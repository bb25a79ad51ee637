(** Affine (linear) forms [c0 + Σ ci·vi] with integer coefficients over
    program variables — the normal form the dependence tests, induction
    substitution and run-time test synthesis operate on. *)

module SMap = Fortran.Ast_utils.SMap

type t = { const : int; coeffs : int SMap.t }

val zero : t
val const : int -> t
val var : string -> t
val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val scale : int -> t -> t

val is_const : t -> bool
val coeff : string -> t -> int
val vars : t -> string list
val equal : t -> t -> bool

val of_expr : ?env:t SMap.t -> Fortran.Ast.expr -> t option
(** Convert an expression; [env] maps variables that are themselves known
    affine forms (substituted induction variables).  [None] for
    non-affine expressions. *)

val to_expr : t -> Fortran.Ast.expr

val pp : Format.formatter -> t -> unit
val to_string : t -> string
