(** Stripmining (paper §3.2): turn a parallelizable loop into a
    concurrent loop over strips whose body processes one strip in vector
    form, with privatizable scalars expanded into strip-sized loop-local
    arrays (the paper's privatization + scalar-expansion combination). *)

val apply :
  ?strip:int ->
  cls:Fortran.Ast.loop_class ->
  private_scalars:string list ->
  Fortran.Ast.do_header ->
  Fortran.Ast.stmt list ->
  Fortran.Ast.stmt option
(** [None] when the body shape cannot vectorize (calls, inner loops,
    diagonal accesses, non-unit strides, live-out scalars). *)
