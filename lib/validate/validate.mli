(** Independent re-verification of Cedar Fortran parallel loops: a static
    checker that re-runs dependence analysis on every concurrent loop of
    an (emitted) program and flags anything that could race, plus a
    dynamic harness around the interpreter's race detector.

    The static checker accepts the synchronization and privatization
    patterns the restructurer emits — loop-local declarations,
    [IF (i .EQ. hi)] last-value copies, lock-bracketed reduction merges
    in preambles/postambles, await/advance cascades whose delay factor
    covers every carried distance, and two-version loops under a run-time
    dependence test — and reports everything else as an {!issue}.

    Of a unit's symbol table the checker reads only {!Fortran.Symbols.is_array}
    and the PARAMETERs, which no implicitly typed name changes, so
    {!check_source} builds each unit's table from its declarations alone
    ([Symbols.of_decls u ~used:SSet.empty]).  It runs
    {!Analysis.Interproc.analyze} on the reparsed program only when a
    checked loop first makes a call. *)

type issue = {
  v_unit : string;  (** program unit containing the loop *)
  v_index : string;  (** the loop's index variable *)
  v_cls : Fortran.Ast.loop_class;
  v_what : string;  (** what is wrong *)
}

val issue_to_string : issue -> string

val check_stmts_in :
  syms:Fortran.Symbols.t ->
  interproc:Analysis.Interproc.t ->
  unit_name:string ->
  ?facts:(string * string) list ->
  Fortran.Ast.stmt list ->
  issue list
(** Check a statement list in a given unit context — used by the
    restructurer driver to re-verify each loop it just transformed.
    [facts] are disequality pairs known from enclosing guards. *)

val check_source : string -> (issue list, string) result
(** Parse Cedar Fortran text and check it; [Error] on a parse failure. *)

val reverify : Fortran.Ast.program -> (issue list, string) result
(** Print the program and re-check the reparsed text — validates what is
    actually shipped, not the in-memory tree.  [Error] means the emitted
    text does not even reparse. *)

val check_output :
  target:Codegen.Target.t -> string -> (issue list, string) result
(** Target-aware {!check_source}: Cedar text parses directly; OpenMP
    text first re-reads through {!Codegen.Openmp.lift_source}, so the
    same parser and race checks apply to the emitted directives. *)

val reverify_target :
  target:Codegen.Target.t ->
  Fortran.Ast.program ->
  (issue list, string) result
(** Emit for [target] → (lift →) reparse → check. *)

val check_dynamic :
  ?input:float list ->
  cfg:Machine.Config.t ->
  Fortran.Ast.program ->
  Interp.Race.issue list * string
(** Run the program with the dynamic race detector armed; returns the
    races observed and the run's PRINT output. *)
