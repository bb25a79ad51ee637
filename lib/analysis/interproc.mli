(** Interprocedural use/def summaries (paper §4.1.1): per routine, which
    formal positions and COMMON members it reads and writes, transitively
    through its callees; plus purity (no common defs, no I/O). *)

module SSet = Fortran.Ast_utils.SSet

type summary = {
  s_unit : string;
  s_formal_use : bool array;  (** per formal position: read? *)
  s_formal_def : bool array;  (** per formal position: written? *)
  s_common_use : SSet.t;
  s_common_def : SSet.t;
  s_calls : string list;
  s_has_io : bool;
  s_pure : bool;
}

type t

val analyze : Fortran.Ast.program -> t
(** Compute transitively-closed summaries for a whole program. *)

val find : t -> string -> summary option

val symbols : t -> Fortran.Ast.punit -> Fortran.Symbols.t
(** The table {!analyze} built for [u] when [u] is physically one of the
    analysed units (each unit's table is built once per program);
    otherwise a fresh [Symbols.of_unit u]. *)

val call_effect :
  t -> string -> Fortran.Ast.expr list -> (SSet.t * SSet.t) option
(** Conservative [(uses, defs)] of [CALL name(args)] over caller names;
    [None] when the callee is unknown or does I/O (assume the worst). *)
