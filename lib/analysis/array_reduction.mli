(** Array-element and multi-statement reduction recognition
    (paper §4.1.3): [a(s) = a(s) + e1 + e2 …], any subscripts (indirect
    included), multiple accumulation statements, one operator. *)

type array_reduction = {
  ar_array : string;
  ar_op : Scalars.red_op;
  ar_sites : int;  (** number of accumulation statements *)
}

val accum_form :
  Fortran.Ast.stmt ->
  (string * Fortran.Ast.expr list * Scalars.red_op * Fortran.Ast.expr) option
(** Recognize one accumulation statement; the additive case looks down
    the whole left-associated +/- spine. *)

val recognize : string -> Fortran.Ast.stmt list -> array_reduction option
(** Is every access to the array in the body an accumulation with a
    single operator (and no other read)? *)
