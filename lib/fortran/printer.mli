(** Cedar Fortran source printer.

    Output re-parses with {!Parser.parse_program}; the property tests
    rely on the round trip.  The expression and line writers come from
    {!Emit}, the layer shared with non-Cedar codegen backends; every
    line is written straight into the output buffer. *)

val expr_str : Ast.expr -> string

val emit_stmt : Buffer.t -> int -> Ast.stmt -> unit
(** Append one statement (recursively) at the given indent level. *)

val emit_unit : Buffer.t -> Ast.punit -> unit

val stmt_to_string : Ast.stmt -> string
val unit_to_string : Ast.punit -> string

val program_to_string : Ast.program -> string
(** Print a whole program as Cedar Fortran source text. *)
