(** Loop interchange (paper §3.4).

    Moving a parallel loop outward enlarges the parallel grain; the
    central coordinator tries interchanged versions of each nest.  We
    interchange a perfectly-nested pair when the inner bounds are
    invariant of the outer index and the caller has established that
    both loops are independently parallelizable (then any interleaving
    is legal, so interchange is too). *)

open Fortran

val swap : Ast.stmt -> Ast.stmt option
(** Swap the two loops of a perfect nest.  [None] when the statement is
    not a perfect nest or the inner bounds depend on the outer index.
    The caller guarantees legality (e.g. both levels carry no
    dependence). *)
