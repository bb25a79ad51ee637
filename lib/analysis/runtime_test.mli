(** Run-time dependence test synthesis (paper §4.1.5) for loops over
    linearized multi-dimensional subscripts like
    [a(j + (i-1)*ld)]: generate a cheap loop-invariant condition (each
    index's coefficient dominates the span of the others, tried in both
    orders) guarding a parallel version. *)

type candidate = {
  rt_array : string;
  rt_condition : Fortran.Ast.expr;  (** guard for the parallel version *)
}

val condition_for :
  levels:Loops.level list ->
  invariant:(Fortran.Ast.expr -> bool) ->
  Fortran.Ast.expr ->
  Fortran.Ast.expr option

val candidate_for :
  levels:Loops.level list ->
  body:Fortran.Ast.stmt list ->
  string ->
  candidate option
(** Build the run-time test for one array of the loop nest; requires all
    its references to share the same subscript shape. *)
