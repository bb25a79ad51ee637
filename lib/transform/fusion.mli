(** Loop fusion (paper §4.2.4, Figure 9 variant c): merge adjacent loops
    with identical iteration spaces to enlarge the parallel grain, with
    the paper's replication trick for straight-line code between them. *)

val fuse :
  Fortran.Ast.do_header ->
  Fortran.Ast.stmt list ->
  Fortran.Ast.do_header ->
  Fortran.Ast.stmt list ->
  Fortran.Ast.stmt
(** Fuse two compatible loops (the caller checks legality). *)

val fuse_region :
  Fortran.Ast.stmt ->
  Fortran.Ast.stmt list ->
  Fortran.Ast.stmt ->
  Fortran.Ast.stmt option
(** [fuse_region loop1 mid loop2]: fuse with [mid] (scalar straight-line
    code) replicated into every iteration when safe. *)
