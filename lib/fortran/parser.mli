(** Recursive-descent parser for fortran77 / Cedar Fortran.

    Statements are recognized positionally (Fortran has no reserved
    words); array references are distinguished from function calls using
    the declarations seen so far in the current program unit. *)

exception Error of string * int
(** [Error (message, line)]: the front end's one exception, for lexical
    and syntax errors alike ({!Lexer.Error} is the same exception).  No
    other exception escapes {!parse_program}. *)

val parse_program : string -> Ast.program
(** Parse a complete source file into program units.
    @raise Error on lexical and syntax errors *)

val parse_expr_string : string -> Ast.expr
(** Parse a single expression (tests and tools); bypasses the
    logical-line layer, so a leading integer is a literal, not a label.
    @raise Error on lexical and syntax errors *)
