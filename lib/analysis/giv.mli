(** Generalized induction variables (paper §4.1.4): ordinary [v = v + k],
    multiplicative (geometric, OCEAN) and additive-in-triangular-nests
    (TRFD), with closed forms and a monotonicity fact the dependence
    tester uses to prove iterations disjoint. *)

type closed_form = {
  g_var : string;
  g_at_use : Fortran.Ast.expr;
      (** value right after the update in terms of the loop indices and
          the pre-loop value (spelled as the variable's own name) *)
  g_final : Fortran.Ast.expr;  (** value after the whole loop *)
  g_monotonic : bool;  (** strictly monotonic over the iteration space *)
  g_update_paths : int list list;  (** update statements to delete *)
}

val recognize :
  lvl:Loops.level -> string -> Fortran.Ast.stmt list -> closed_form option
(** Recognize [v] as a GIV of the given loop; [None] when no supported
    pattern matches (multiple updates, non-unit steps, …). *)
