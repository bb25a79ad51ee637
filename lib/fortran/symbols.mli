(** Per-unit symbol information: types, array shapes (PARAMETER constants
    resolved), visibility, COMMON and EQUIVALENCE membership, formals.
    Used by the analyses (dependence tests need bounds), data placement
    and the execution engines (storage and element sizes). *)

module SMap = Ast_utils.SMap
module SSet = Ast_utils.SSet

type sym = {
  s_name : string;
  s_type : Ast.dtype;
  s_dims : (Ast.expr * Ast.expr) list;
  s_vis : Ast.visibility;
  s_common : string option;  (** common block name ("" = blank common) *)
  s_process_common : bool;
  s_formal : bool;
  s_equiv : bool;  (** appears in an EQUIVALENCE group *)
}

type t = {
  syms : sym SMap.t;
  params : (string * Ast.expr) list;
  unit_name : string;
  formals : string list;
}

val element_bytes : Ast.dtype -> int
val implicit_type : string -> Ast.dtype
(** Fortran's implicit rules: I–N integer, else real. *)

val of_unit : Ast.punit -> t
(** Build the table; names used but not declared get implicit typing. *)

val of_decls : Ast.punit -> used:SSet.t -> t
(** The table with [used] standing for the names the body mentions:
    [of_unit u = of_decls u ~used:(Ast_utils.names_of u.u_body)]. *)

val lookup : t -> string -> sym option
val is_array : t -> string -> bool
val rank : t -> string -> int
val dtype_of : t -> string -> Ast.dtype

val extents : t -> string -> (int * int option) list
(** Per dimension: (lower bound, extent if constant). *)

val size_elems : t -> string -> int option
val size_bytes : t -> string -> int option

val interface_vars : t -> SSet.t
(** Formals, COMMON members and EQUIVALENCEd names — data whose usage may
    cross a routine boundary (the paper's placement default applies). *)
