(** Fuel counter for long-running analyses: a cheap per-domain poll that
    hot loops call once per unit of work.

    The restructurer's deadline [interrupt] hook is otherwise polled only
    between loop nests, so a single pathological nest (a dependence test
    quadratic in the number of references, or one huge serial loop under
    the interpreter) could hold a worker domain far past its deadline.
    Hot loops call {!tick}; every [interval] ticks the installed hook
    runs and may raise (e.g. {!Restructurer.Driver.Interrupted}) to
    abandon the computation.

    State is Domain-local: concurrent worker domains poll their own
    deadlines without interference.  With no hook installed a tick is a
    decrement-and-test — cheap enough for per-iteration use. *)

val interval : int
(** Ticks between hook invocations (1024). *)

val with_hook : (unit -> unit) -> (unit -> 'a) -> 'a
(** [with_hook f body]: run [body] with [f] installed, restoring the
    previously installed hook (if any) on exit — exception-safe. *)

val tick : unit -> unit
(** One unit of work; runs the hook every {!interval} calls. *)
