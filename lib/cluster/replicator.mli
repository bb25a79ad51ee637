(** Shard-side warm-cache replication with a configurable factor.

    Hangs off {!Service.Server.create}'s [on_cache_fill] hook: every
    fresh full-rung result is queued here and pushed — asynchronously,
    off the job's critical path — to the first [replicas - 1] distinct
    ring successors of its key, so under replication factor R a single
    shard death cools no key.  The ring is the cluster ring (same ids,
    same vnodes as the proxy's), so origin and proxy agree on where a
    key's replicas belong without coordination.

    Pushes are fire-and-forget with a bounded queue: when the queue is
    full the entry is dropped and counted, never blocking the worker
    that computed the result.  The receiving shard re-verifies the
    checksum before admitting ({!Service.Server.admit_replica}).

    {b Target health.}  A target that keeps eating transport errors is
    held down and skipped (counted in [skipped_down]) until a short
    cooldown expires, so pushes aimed at a dead shard stop burning pool
    connections.

    {b Topology changes.}  {!set_members} swaps the ring and the pools
    for a new member set; then — when {!set_gc} has wired a collector —
    drops the replica-flagged entries this shard no longer backs, and —
    when {!set_export} has wired a cache exporter — re-queues every
    resident entry once, so replica placement converges to the new ring
    without recomputation. *)

type t

type counts = {
  pushed : int;  (** frames sent and acked (admitted or not) *)
  admitted : int;  (** acks that reported admission *)
  rejected : int;  (** acks that reported rejection *)
  dropped : int;  (** queue-full drops (never sent) *)
  errors : int;  (** transport failures (peer unreachable) *)
  skipped_down : int;  (** pushes skipped because the target was held down *)
}

val create :
  ?vnodes:int ->
  ?queue_capacity:int ->
  ?timeout_s:float ->
  ?replicas:int ->
  self:string ->
  peers:Membership.shard list ->
  unit ->
  t
(** [peers] is the full cluster (this shard included; it is skipped as
    a replica target).  [vnodes] (default 64) must match the proxy's.
    [queue_capacity] (default 256) bounds the push backlog; [timeout_s]
    (default 5) bounds each push round trip.  [replicas] (default 2) is
    the {e total} number of copies of a key, the primary included —
    each fill is pushed to the key's first [replicas - 1] distinct ring
    successors; [replicas = 1] disables replication. *)

val push :
  t -> key:string -> digest:string -> Service.Server.payload -> unit
(** Enqueue one entry for replication (non-blocking; drops + counts on
    a full queue).  Shaped to partially apply as the server's
    [on_cache_fill] hook. *)

val set_export :
  t -> (unit -> (string * string * Service.Server.payload) list) -> unit
(** Wire the cache exporter used for re-replication on topology change:
    it returns every resident entry as [(key, digest, payload)]
    (see {!Service.Server.export_cache}). *)

val set_gc : t -> (keep:(string -> bool) -> int) -> unit
(** Wire the replica garbage collector (usually
    [Service.Server.gc_replicas server]): on every {!set_members} it is
    called with [keep key] true iff this shard still backs [key] —
    owner or one of the first [replicas - 1] distinct successors —
    under the {e new} ring, so ex-successors drop the replica entries
    they no longer own. *)

val set_members : t -> Membership.shard list -> unit
(** Replace the member set: rebuild the ring, swap the connection
    pools, reset target health, and — when an exporter is wired —
    re-queue every resident cache entry once so placement converges to
    the new ring. *)

val apply_change : t -> Net.Server.cluster_change -> bool * int * string
(** Apply a topology change pushed down from the proxy to this shard's
    member view, then {!set_members}.  An add is checked as the proxy
    checks it ({!Membership.check_shard}); an add of a member, or a
    remove of a non-member, is refused.  Returns [(ok, applied,
    message)], where [applied] counts the changes applied so far (the
    cluster's ring epoch lives in the proxy) — the shape of
    {!Net.Server.create}'s [on_cluster_change].  Not synchronized: call
    it from one thread, as the server's event loop does. *)

val replicas : t -> int
(** The configured replication factor (total copies). *)

val counts : t -> counts
(** This replicator's own counts.  Each is held in a child of the
    registry total [cluster_replication_<field>_total] (for example
    [cluster_replication_errors_total]), which sums every replicator in
    the process. *)

val stop : t -> unit
(** Drain the queue, stop the sender thread, close the connections.
    Entries still queued are sent before it returns (peers permitting;
    unreachable peers just count as errors).  Idempotent. *)
