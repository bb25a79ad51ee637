(** Array privatization analysis (paper §4.1.2): an array is privatizable
    in a loop when every element read in an iteration was first written in
    that iteration, so each processor can keep its own cluster-memory
    copy.  Bounds comparisons use provable affine differences; loops are
    assumed non-empty (KAP's standard annotation). *)

type dim_range =
  | Exact of Fortran.Ast.expr  (** single loop-invariant subscript *)
  | Span of Fortran.Ast.expr * Fortran.Ast.expr  (** [lo..hi], invariant *)
  | Opaque

type region = dim_range list

val range_covers : dim_range -> dim_range -> bool
val covers : region -> region -> bool

val privatizable :
  outer_index:string -> string -> Fortran.Ast.stmt list -> bool
(** Is the array privatizable in the loop over [outer_index]? *)
