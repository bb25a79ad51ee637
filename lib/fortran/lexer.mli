(** Lexer for fortran77 / Cedar Fortran source: accepts a pragmatic mix
    of fixed form (column-6 continuations, label fields, [c]/[*] comment
    lines) and free form ([&] continuations, [!] comments).

    The source is scanned once, by index: a logical line is a range of
    the source, and only a continued line is copied into a string of its
    own.  Each identifier is lower-cased into one string, and each token
    list is built front to back. *)

exception Error of string * int
(** [Error (message, line)]: the front end's one error, also raised as
    {!Parser.Error}.  An integer literal or statement label that does
    not fit an OCaml [int] is an [Error] at its line. *)

val lex : string -> Token.line list
(** Split source text into logical statement lines and tokenize each.
    @raise Error on a lexical error *)

val tokenize_line : int -> string -> Token.t list
(** Tokenize one raw statement body (no label/continuation handling).
    @raise Error on a lexical error *)
