(** Loop-nest structure: nest contexts, invariance, array-reference
    collection with statement paths. *)

type level = {
  l_index : string;
  l_lo : Fortran.Ast.expr;
  l_hi : Fortran.Ast.expr;
  l_step : Fortran.Ast.expr;  (** defaults to 1 *)
}

type nest = level list  (** outermost first *)

val level_of_header : Fortran.Ast.do_header -> level
val indices : nest -> string list
val trip_count_const : level -> int option

val is_invariant_expr : Fortran.Ast.stmt list -> Fortran.Ast.expr -> bool
(** True when the expression reads nothing the body writes. *)

type access = Read | Write

type ref_info = {
  r_array : string;
  r_subs : Fortran.Ast.expr list;
  r_access : access;
  r_path : int list;  (** statement path within the analyzed body *)
  r_conditional : bool;  (** under an IF or WHERE mask *)
}

val collect_refs : Fortran.Ast.stmt list -> ref_info list
(** Array references in program order (scalars are handled by the scalar
    dataflow passes). *)

val path_before : int list -> int list -> bool
(** Lexicographic statement-path order. *)

val inner_loops : Fortran.Ast.stmt list -> Fortran.Ast.do_header list
val nest_depth : Fortran.Ast.stmt list -> int
