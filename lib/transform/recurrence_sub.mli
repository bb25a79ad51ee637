(** Library-call substitution for recognized recurrences (paper §3.3) and
    the vector reduction intrinsics of Cedar Fortran (paper §2.1). *)

val apply :
  Fortran.Ast.do_header ->
  Fortran.Ast.stmt list ->
  (Analysis.Recurrence.pattern * Fortran.Ast.stmt list) option
(** Replace a whole loop by calls into the Cedar runtime library
    ([cedar_dotp], [cedar_slr1], [cedar_maxval]/[cedar_minval]),
    returning the recognized pattern with them; [None] when the operand
    shapes do not fit. *)

val vector_reduce :
  Fortran.Ast.do_header -> Fortran.Ast.stmt list -> Fortran.Ast.stmt list option
(** Single-processor vector form for reduction loops running inside an
    already-parallel context: [sum]/[dotproduct]/[maxval] intrinsics,
    including GAUSSJ-style max searches with (invariant) index
    bookkeeping. *)
