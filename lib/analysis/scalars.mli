(** Scalar classification for one loop: induction variable, reduction,
    privatizable (with live-out flag), or a genuine shared dependence
    that blocks DOALL execution. *)

module SSet = Fortran.Ast_utils.SSet
module SMap = Fortran.Ast_utils.SMap

type red_op = Rsum | Rprod | Rmin | Rmax

type giv_kind =
  | Additive of Fortran.Ast.expr  (** v = v + k *)
  | Multiplicative of Fortran.Ast.expr  (** v = v * k *)

type classification =
  | Induction of giv_kind
  | Reduction of { op : red_op; sites : int }
      (** [sites] accumulation statements, all with operator [op] *)
  | Privatizable of { live_out : bool }
  | Shared_dep

val show_red_op : red_op -> string
val show_classification : classification -> string
val equal_red_op : red_op -> red_op -> bool
val equal_classification : classification -> classification -> bool

val reduction_form :
  string -> Fortran.Ast.stmt -> (red_op * Fortran.Ast.expr) option
(** The one recognizer of a scalar accumulation: [v = v op e] with [op]
    one of [+], [-] (giving [Rsum] and [-e]), [*], [min], [max], either
    operand order, and an operand [e] that does not read [v].  Returns
    the operator and [e]. *)

val upward_exposed : Fortran.Ast.stmt list -> SSet.t
(** Scalars read before any definite write within one iteration
    (definitions under IF/WHERE or inside inner DO loops are treated as
    conditional). *)

val exposed_before : Fortran.Ast.stmt -> SSet.t -> SSet.t
(** One backward liveness step: [exposed_before s (upward_exposed rest)]
    equals [upward_exposed (s :: rest)].  Folding it from the back of a
    statement list yields the upward-exposed set of every suffix in one
    pass. *)

val last_write_unconditional : string -> Fortran.Ast.stmt list -> bool
(** Is the last write to the scalar unconditional and at the top level
    (required for a last-value assignment)? *)

type result = { classes : classification SMap.t; exposed : SSet.t }

val classify :
  index:string -> live_after:(string -> bool) -> Fortran.Ast.stmt list -> result
(** Classify every scalar written in the loop body. *)
