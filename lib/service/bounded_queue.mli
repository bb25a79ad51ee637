(** Bounded multi-producer / multi-consumer blocking queue.

    The job feed of the restructuring service: submitters block when the
    queue is full (backpressure), worker domains block when it is empty.
    Protected by one mutex and two condition variables; FIFO order is
    preserved.  A closed queue rejects new items but drains the ones
    already enqueued. *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument when [capacity < 1] *)

val push : 'a t -> 'a -> bool
(** Enqueue, blocking while the queue is at capacity.  Returns [false]
    (without enqueuing) if the queue was closed. *)

val try_push : 'a t -> 'a -> bool
(** Non-blocking enqueue: [false] when full or closed. *)

val try_push_front : 'a t -> 'a -> bool
(** Non-blocking enqueue at the head, ahead of every queued item:
    [false] when full or closed.  Used by a dying worker to requeue its
    job — it must never block on backpressure while it is healing the
    pool, and the job keeps its place ahead of the jobs submitted after
    it. *)

val pop : 'a t -> 'a option
(** Dequeue, blocking while the queue is empty.  Returns [None] once the
    queue is closed {e and} drained — the worker-shutdown signal. *)

val close : 'a t -> unit
(** Reject further pushes and wake every blocked producer/consumer. *)

val length : 'a t -> int
(** Items currently queued (racy snapshot; exact under the caller's own
    synchronization). *)

val high_water : 'a t -> int
(** Deepest the queue has ever been — the backlog high-water mark. *)
