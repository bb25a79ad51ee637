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

val inline_call :
  limits:limits ->
  depth:int ->
  csyms:Fortran.Symbols.t ->
  Fortran.Ast.punit ->
  Fortran.Ast.expr list ->
  (Fortran.Ast.stmt list * Fortran.Ast.decl list, failure) result
(** Inline one call site of a callee whose symbol table is [csyms]:
    returns the replacement statements and the renamed callee locals to
    declare in the caller.  Column-anchored actuals ([conc(1, j)] bound
    to a rank-1 formal) rebuild the caller's full subscripts. *)

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
