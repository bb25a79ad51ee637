(** Lexer for fortran77 / Cedar Fortran source: accepts a pragmatic mix
    of fixed form (column-6 continuations, label fields, [c]/[*] comment
    lines) and free form ([&] continuations, [!] comments).

    Each physical line is read in one scan, by index and with no copy:
    the comment and blank test, the [!] cut, trimming, the label and the
    tokens.  A continued statement carries only an open string literal
    (and a trailing [&] or blanks, which count only if it goes on) from
    one line to the next.  Each identifier is lower-cased into one
    string, and each token list is built front to back. *)

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
