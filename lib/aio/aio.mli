(** Single-domain fiber scheduler on OCaml 5 effect handlers.

    A fiber is a first-class suspended computation: its body runs under a
    deep effect handler, and every blocking operation ([yield], [sleep],
    [wait_readable], [Mailbox.take], [await]) performs a [Suspend] effect
    whose continuation is parked in the scheduler and resumed by the
    readiness loop — when a descriptor becomes ready, a timer expires, a
    cross-thread completion is posted, or the fiber is cancelled.  One
    domain runs every fiber, so fiber-to-fiber state needs no locks; the
    only synchronized edges are {!post} and {!fulfil}, the bridge by
    which worker domains and foreign threads resume fibers.

    The readiness loop is pluggable (a {!source} record), so tests drive
    the scheduler with a deterministic mock — a virtual clock and
    scripted readiness — while production uses {!poll_source}, a poll(2)
    loop (not select: FD_SETSIZE caps select at 1024 descriptors, far
    below the 10k-connection target) with a self-pipe for cross-thread
    wakeups.

    Effects used: [Suspend] (park the continuation, registering wakeup
    conditions), [Spawn] (create a fiber), [Yield] (requeue at the back
    of the ready queue).  Everything else is sugar over [Suspend]. *)

type t
(** A scheduler: ready queue, timer heap, descriptor interest tables and
    the cross-thread completion queue. *)

type fiber
(** Handle to a spawned fiber; usable for {!cancel} and {!is_done}. *)

exception Cancelled
(** Raised inside a fiber at its next (or current) suspension point
    after {!cancel}.  Escaping the fiber body with it is the normal way
    a cancelled fiber dies; the scheduler swallows it. *)

(** {1 Readiness sources} *)

type event =
  | Ev_readable of Unix.file_descr
  | Ev_writable of Unix.file_descr

type source = {
  src_now : unit -> float;
      (** The scheduler clock.  Deadlines are absolute on this clock. *)
  src_mod : Unix.file_descr -> int -> unit;
      (** Incremental interest update: the scheduler calls this on every
          interest {e transition} with the descriptor's new mask (bit 1 =
          readable, bit 2 = writable, 0 = forget the descriptor).  Between
          calls the registered set is unchanged, so a source can mirror it
          kernel-side (epoll) or in flat arrays instead of rebuilding a
          watch list on every wait — the difference between O(ready) and
          O(registered) wakeups with thousands of idle connections
          parked. *)
  src_wait : timeout_s:float option -> event list;
      (** Block until a registered descriptor is ready, the timeout
          elapses ([Some 0.] polls, [None] waits forever) or {!src_wake}
          fires; return the ready subset (possibly []). *)
  src_wake : unit -> unit;
      (** Thread-safe: interrupt a concurrent or subsequent [src_wait].
          Spurious wakes are harmless. *)
  src_close : unit -> unit;
      (** Release source resources; called once when {!run} returns. *)
}

val poll_source : unit -> source
(** The portable production source: poll(2) over incrementally maintained
    pollfd arrays plus a self-pipe, clocked by [Unix.gettimeofday].
    Registration is O(1) (swap-with-last removal), but each wakeup still
    scans every registered descriptor — kernel- and user-side — so it is
    the fallback, not the default, on Linux. *)

val epoll_source : unit -> source option
(** The Linux production source: the interest set lives kernel-side in an
    epoll instance (level-triggered), so a wakeup costs O(ready) however
    many descriptors are parked.  [None] where epoll is unavailable;
    {!create} falls back to {!poll_source}. *)

val raise_fd_limit : unit -> int
(** Raise this process's RLIMIT_NOFILE soft limit to the hard limit and
    return the resulting soft limit (-1 if it could not be read). *)

val poll_fd :
  Unix.file_descr -> [ `Read | `Write ] -> timeout_s:float -> bool
(** One-shot poll(2) on a single descriptor, independent of any
    scheduler: [true] iff the descriptor became ready before the timeout
    (negative = wait forever).  The drop-in replacement for single-fd
    [Unix.select] waits, which silently break once the process holds
    FD_SETSIZE (1024) descriptors — exactly the regime a
    many-connection front-end lives in. *)

(** {1 Scheduler lifecycle} *)

val create : ?source:source -> unit -> t
(** A fresh scheduler (default source: {!epoll_source} where available,
    else {!poll_source}).  {!post} is usable immediately; fibers only run
    once {!run} is entered. *)

val run : t -> (unit -> unit) -> unit
(** Spawn [main] as the first fiber and drive the readiness loop until
    no live fibers remain, then close the source.  Runs on the calling
    thread; a scheduler can be run at most once. *)

val post : t -> (unit -> unit) -> unit
(** Thread-safe: enqueue a thunk to run on the scheduler thread between
    fiber steps and wake the loop.  The thunk runs outside any fiber, so
    it must not perform fiber effects — it may {!spawn_on},
    {!cancel_on} and {!fulfil}.  Dropped if the loop has finished. *)

val spawn_on : t -> (unit -> unit) -> fiber
(** Spawn from the scheduler thread outside a fiber (a {!post} thunk, or
    before {!run}).  Inside a fiber use {!spawn}. *)

val cancel_on : t -> fiber -> unit
(** Cancel from the scheduler thread outside a fiber. *)

val live_fibers : t -> int
(** Fibers spawned and not yet finished (scheduler thread only). *)

(** {1 Fiber context}

    Everything below is called from inside a fiber, where a wait
    suspends only the calling fiber.  {!now}, {!sleep},
    {!wait_readable}, {!wait_writable} and the calls built on them
    ({!read}, {!write_all}, {!accept}) also work on any other thread,
    where they block that thread: the clock is [Unix.gettimeofday], a
    sleep is [Unix.sleepf], and a wait is poll(2) up to the same
    absolute deadline.  A poll that a signal interrupts before the
    deadline returns a spurious [`Ready], which callers re-check anyway.
    Every other call raises [Effect.Unhandled] outside a fiber. *)

val spawn : (unit -> unit) -> fiber
val yield : unit -> unit

val self : unit -> fiber
val scheduler : unit -> t

val now : unit -> float
(** Current time on the scheduler clock (the wall clock outside a
    fiber). *)

val sleep : float -> unit
(** Suspend for [d] seconds of scheduler-clock time (block the thread
    outside a fiber). *)

val cancel : fiber -> unit
(** Mark [f] cancelled and, if it is suspended, wake it now; {!Cancelled}
    is raised at its current or next suspension point.  Cancelling a
    finished fiber, or twice, is a no-op.  From foreign threads, wrap in
    {!post}. *)

val is_done : fiber -> bool

val wait_readable :
  ?deadline:float -> Unix.file_descr -> [ `Ready | `Deadline ]
(** Suspend until [fd] is readable (error/hangup count as readable) or
    the absolute [deadline] passes.  @raise Cancelled *)

val wait_writable :
  ?deadline:float -> Unix.file_descr -> [ `Ready | `Deadline ]

val read :
  ?deadline:float ->
  Unix.file_descr ->
  bytes ->
  int ->
  int ->
  [ `Data of int | `Eof | `Deadline ]
(** One read of up to [len] bytes from a {e non-blocking} descriptor,
    suspending on EAGAIN.  [`Eof] covers both a clean close and hard IO
    errors (the connection is equally gone).  @raise Cancelled *)

val write_all :
  ?deadline:float ->
  Unix.file_descr ->
  bytes ->
  int ->
  int ->
  [ `Ok | `Closed | `Deadline ]
(** Write all [len] bytes, suspending on EAGAIN; [`Closed] on EPIPE or
    any other hard error.  @raise Cancelled *)

val accept :
  ?deadline:float ->
  Unix.file_descr ->
  [ `Conn of Unix.file_descr * Unix.sockaddr
  | `Error of Unix.error
  | `Deadline ]
(** Accept on a non-blocking listener, suspending until a connection
    arrives.  @raise Cancelled *)

(** {1 Cross-thread completions}

    The bridge by which CPU-bound work dispatched to a worker-domain
    pool resumes a fiber: the fiber creates a promise, hands {!fulfil}
    to the pool as a completion callback and suspends in {!await}; the
    worker's [fulfil] posts the wakeup through the completion queue and
    the readiness loop resumes the fiber. *)

type 'a promise

val promise : unit -> 'a promise
(** Fiber context. *)

val promise_on : t -> 'a promise
(** Any thread. *)

val fulfil : 'a promise -> 'a -> unit
(** Thread-safe; first call wins, later calls are ignored. *)

val await : ?deadline:float -> 'a promise -> [ `Value of 'a | `Deadline ]
(** Suspend until the promise is fulfilled.  Any number of fibers may
    await one promise; {!fulfil} wakes them all.  @raise Cancelled *)

(** {1 Mailboxes}

    Bounded fiber-to-fiber queues (the fiber analogue of
    [Service.Bounded_queue]); all operations are fiber-context. *)

module Mailbox : sig
  type 'a mb

  val create : ?capacity:int -> unit -> 'a mb
  (** Default capacity: unbounded. *)

  val put : 'a mb -> 'a -> bool
  (** Suspend while full; [false] iff the mailbox is closed.
      @raise Cancelled *)

  val take : 'a mb -> 'a option
  (** Suspend while empty; [None] once closed {e and} drained.
      @raise Cancelled *)

  val take_opt : 'a mb -> 'a option
  (** Never suspends: [Some v] if an item is immediately available,
      [None] if the mailbox is currently empty (closed or not).  The
      batching primitive — after a blocking {!take} yields the first
      item, a consumer drains the rest of the same scheduler pass with
      [take_opt] and processes the whole batch at once.  May wake a
      blocked putter, so it is still fiber-context only. *)

  val close : 'a mb -> unit
  (** Idempotent; wakes every waiter.  Queued items stay takeable. *)

  val length : 'a mb -> int
  val high_water : 'a mb -> int
end
