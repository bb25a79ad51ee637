(** Line- and expression-level emission core shared by every codegen
    backend ({!Printer} for Cedar Fortran, the OpenMP backend in
    [lib/codegen]).  Precedence-aware expression printing lives only
    here, so backends cannot drift on expression syntax.  The writers
    print straight into the output buffer. *)

val add_expr : Buffer.t -> Ast.expr -> unit
(** Append an expression with minimal parentheses.  A string literal
    prints with each embedded quote doubled, so the text reparses to the
    same literal. *)

val expr_str : Ast.expr -> string
(** [add_expr] into a fresh string, for messages and tests. *)

val add_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit
(** Append the items separated by [", "]. *)

val add_int : Buffer.t -> int -> unit
(** Append an integer as [string_of_int] prints it. *)

val start_line : Buffer.t -> int -> unit
(** [start_line buf indent] begins a source line: six blanks for the
    label field, then two spaces per indent level. *)

val end_line : Buffer.t -> unit

val emit_line : Buffer.t -> int -> string -> unit
(** [emit_line buf indent text]: [start_line], [text], [end_line]. *)

val add_simple_stmt : Buffer.t -> Ast.stmt -> unit
(** Append the text of a statement that prints on one line (assignment,
    CALL, RETURN, STOP, CONTINUE, GOTO, PRINT, READ), the same for every
    target.
    @raise Invalid_argument on IF, WHERE, DO or a labeled statement *)

val simple_line : Buffer.t -> int -> Ast.stmt -> unit
(** [add_simple_stmt] as a whole line at the given indent. *)

val relabel : Buffer.t -> int -> (unit -> unit) -> unit
(** [relabel buf label write] runs [write] and puts [label],
    right-aligned in four columns, over the first four characters of the
    first line it wrote. *)

val decl_line : Buffer.t -> int -> Ast.decl -> unit
(** A declaration as a whole line at the given indent. *)

val unit_header : Buffer.t -> Ast.punit -> unit
(** The PROGRAM/SUBROUTINE/FUNCTION line and the PARAMETER lines. *)

val equivalence_lines : Buffer.t -> Ast.punit -> unit
(** One EQUIVALENCE line per aliased pair. *)
