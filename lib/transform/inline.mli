(** Inline subroutine expansion (paper §3.2, §4.1.1) — the 1991 system's
    only interprocedural mechanism, with its failure modes kept: call
    nesting too deep, callee too large, arrays reshaped across the
    boundary, non-tail RETURN, GOTO. *)

type failure =
  | Unknown_routine of string
  | Too_deep
  | Too_large of string
  | Reshaped of string
  | Unsupported_body of string

val show_failure : failure -> string

type limits = { max_depth : int; max_stmts : int }

val default_limits : limits

val inline_unit :
  ?limits:limits ->
  syms:(Fortran.Ast.punit -> Fortran.Symbols.t) ->
  Fortran.Ast.program ->
  Fortran.Ast.punit ->
  Fortran.Ast.punit * failure list
(** Inline every CALL in a unit (recursively up to the depth limit);
    [syms] gives a callee's symbol table.  A unit in which nothing was
    inlined comes back as itself (physically), so its table still
    applies. *)
