(** The restructuring server: a self-healing pool of OCaml 5 [Domain]
    workers fed by a bounded job queue.

    A job carries fortran77 source plus a {!Restructurer.Options.t};
    workers parse, restructure, print, and attach a {!Perfmodel} cycle
    estimate.  Results land in a content-addressed LRU cache keyed by
    (source, options, machine) — entries are checksummed at insertion
    and verified on every hit, so a corrupted entry is dropped and
    recomputed rather than served.  Every job has a wall-clock deadline:
    jobs that expire while queued come back [Cancelled] without running;
    jobs that exceed it while running are abandoned at the next
    interrupt poll and come back [Timeout].

    The pool survives its own failures:

    - {b Exception barrier}: any exception raised while executing a job
      (an [assert false] deep in a transform, a model error) resolves
      that job [Failed] with a captured backtrace; it never unwinds the
      worker.
    - {b Degradation ladder}: a failed, timed-out, or
      validator-rejected attempt is retried with exponential backoff at
      a cheaper rung — full techniques, then a conservative set (no
      DOACROSS, no generalized-induction substitution, no two-version
      run-time tests), then parse-and-print serial passthrough.  Each
      [Done] payload is tagged with the rung that produced it; only
      full-rung results are cached.
    - {b Self-healing}: the pool runs one domain per worker and no
      other.  A worker killed by an escaping exception (chaos injection
      is the only source) heals the pool as it dies: its in-flight job
      is requeued once, at the head of the queue so no later job
      overtakes it, or resolved [Failed] — never leaked — and its slot
      is respawned with a fresh domain, which joins the dead one.
      Optionally, a watchdog thread checks per-worker heartbeats: a
      worker silent long past its job's deadline is declared wedged, its
      job resolves [Timeout], the slot is respawned, and the stuck domain
      is orphaned until it exits on its own (the fuel counter in the
      analysis hot loops guarantees it does).
    - {b Circuit breaker}: after [breaker_threshold] consecutive {e
      real} (non-injected) restructure failures the breaker opens and
      jobs are served serial passthrough directly — degraded but alive.
      After [breaker_cooldown_ms] one probe job runs the full ladder;
      success closes the breaker, failure re-opens it.

    Chaos faults from an attached {!Fault} injector taint the jobs they
    strike (unless the injector is in stealth mode), and tainted
    failures never count toward the breaker — injected chaos must not
    convince the service that its restructurer is broken.  Nor does a
    source that does not parse: it fails at once, without a retry, and
    leaves the breaker as it was. *)

type request = {
  req_name : string;  (** label for reporting, e.g. the workload name *)
  req_source : string;  (** fortran77 source text *)
  req_options : Restructurer.Options.t;
}

type rung =
  | Full  (** every configured technique *)
  | Conservative
      (** techniques minus DOACROSS / GIV substitution / run-time
          dependence tests *)
  | Passthrough  (** parse-and-print serial identity: the reliable floor *)

val rung_name : rung -> string
(** ["full" | "conservative" | "passthrough"] *)

type payload = {
  p_name : string;
  p_text : string;  (** printed Cedar Fortran *)
  p_reports : Restructurer.Driver.loop_report list;
      (** empty for passthrough payloads *)
  p_cycles : float option;  (** perfmodel estimate; [None] if the model
                                does not apply (e.g. no PROGRAM unit) *)
  p_global_words : float option;
  p_rung : rung;  (** the ladder rung that produced this payload *)
}

type outcome =
  | Done of { payload : payload; cached : bool }
  | Failed of string  (** parse or restructure error (after the ladder) *)
  | Timeout  (** started, but exceeded the deadline (after retries) *)
  | Cancelled  (** expired in the queue (or queue closed): never ran *)

type ticket
(** Handle to one submitted job. *)

type t

val cache_key : request -> string
(** The content address, as hex: MD5 over (the MD5 of the source ‖ the
    options, machine config and target included, marshalled without
    sharing).  The source is digested in place.  Equal requests key the
    same wherever they were built (in process or decoded off the wire);
    a one-byte source edit or one changed options field keys apart.  The
    worker that takes a job computes its key once, for both the lookup
    and the fill. *)

val create :
  ?queue_capacity:int ->
  ?timeout_ms:float ->
  ?oversubscribe:bool ->
  ?fault:Fault.t ->
  ?retry_base_ms:float ->
  ?breaker_threshold:int ->
  ?breaker_cooldown_ms:float ->
  ?wedge_after_ms:float ->
  ?latency_reservoir:int ->
  ?max_source_bytes:int ->
  ?shard_id:string ->
  ?memo_capacity:int ->
  ?on_cache_fill:(key:string -> digest:string -> payload -> unit) ->
  workers:int ->
  cache_capacity:int ->
  unit ->
  t
(** Start [workers] domains ([>= 1] enforced) and no other.  Unless
    [oversubscribe] is set, the pool is capped at
    [Domain.recommended_domain_count] — extra domains on an
    oversubscribed host only add stop-the-world GC barrier cost.
    [queue_capacity] bounds the backlog (default 64).  [timeout_ms <= 0]
    (the default) means no deadline.

    [fault] attaches a chaos injector (default {!Fault.none}: no
    overhead beyond one branch per site).  [retry_base_ms] (default 1)
    is the backoff unit: descent [k] of the ladder sleeps
    [retry_base_ms * 2^k] before retrying.  [breaker_threshold]
    (default 5) consecutive real restructure failures open the breaker;
    [breaker_cooldown_ms] (default 250) is the open-to-half-open timer.
    [wedge_after_ms > 0] starts one watchdog thread that checks worker
    heartbeats every 2 ms; [<= 0] (the default) disables wedge
    detection and starts no thread.  [latency_reservoir] (default 1024)
    bounds the latency sample size.  [max_source_bytes > 0] rejects any
    request whose source exceeds the cap — resolved [Failed] with a
    typed message before the text ever reaches a parser ([0], the
    default, means unlimited).

    [memo_capacity] (default 1024) bounds the nest-level restructurer
    memo shared by every worker: per-loop-nest analysis/transformation
    results keyed by the normalized nest, replayed byte-identically for
    every later job containing an equivalent nest ([<= 0] disables it).
    The chaos injector's [memo-corrupt] site poisons entries as they are
    stored; poisoned output is caught by the validator gate when
    [validate] is on and demoted down the ladder, never cached.

    [shard_id] names this server inside a cluster (shows up in
    {!Stats.t}; default [""] = standalone).  [on_cache_fill] fires after
    each {e fresh} full-rung result is cached, with the content key, the
    payload-text digest, and the clean payload — the cluster replicator
    hangs off this.  It never fires for entries admitted via
    {!admit_replica}, and an exception it raises is swallowed (a
    replication hiccup must not fail the job that filled the cache). *)

val admit_replica : t -> key:string -> digest:string -> payload -> bool
(** Admit a warm-cache entry replicated from a ring peer.  The digest
    is recomputed from the payload text and the push is rejected on
    mismatch (corrupt in flight), as well as for non-[Full] rungs.
    Returns whether the entry was admitted; either way the replication
    counters in {!Stats.t} advance.  Admission inserts with normal LRU
    semantics — a replica can evict, and be evicted like, any other
    entry. *)

val gc_replicas : t -> keep:(string -> bool) -> int
(** Drop every {e replica-flagged} cache entry whose key fails [keep],
    returning how many were dropped.  The cluster replicator calls this
    on a topology change with [keep key = ] "this shard still backs
    [key] under the new ring", so an ex-successor does not serve (or
    shadow) entries it no longer owns.  Locally computed entries are
    never touched.  Counted in {!Stats.t}[.replica_gc]. *)

val memo_stats : t -> Restructurer.Memo.stats option
(** Counters of the shared nest-level memo; [None] when the memo was
    disabled at {!create}. *)

val export_cache : t -> (string * string * payload) list
(** Every resident cache entry as [(key, digest, payload)], recency
    untouched — what the cluster replicator re-pushes when the ring
    changes so placement converges without recomputation. *)

val set_replication_source : t -> (unit -> int * int) -> unit
(** Wire the outbound-replication counters [(pushed, skipped_down)]
    into {!stats} (cedard calls this when a replicator is attached). *)

val effective_workers : t -> int
(** Worker slots in the pool (after the oversubscription cap). *)

val submit : ?trace:int -> t -> request -> ticket
(** Enqueue a job; blocks while the queue is full (closed-loop
    backpressure).  On a closed server the ticket resolves [Cancelled].
    [trace] carries a caller-minted {!Obs.Trace} id (e.g. one received
    over the wire) onto the ticket; when omitted (or [0]) a fresh id is
    minted iff tracing is enabled.

    The job, a cache hit included, is looked up in the cache by the
    worker that takes it off the queue, never on the caller: a hit
    leaves the queue behind every job submitted before it, and the
    caller pays no hashing. *)

val try_submit : ?trace:int -> t -> request -> ticket option
(** Non-blocking {!submit} for front-ends that shed load instead of
    queuing on backpressure: [None] means the queue had no room (or the
    server was shutting down) and nothing was enqueued. *)

val await : ticket -> outcome
(** Block until the job resolves.  Every submitted ticket resolves,
    whatever happens to the worker that picked it up. *)

val on_resolve : ticket -> (outcome -> unit) -> unit
(** Register a completion callback instead of blocking: fires exactly
    once, on whatever thread resolves the ticket — or immediately on the
    caller if the ticket already resolved (an oversized source, or a
    submit to a closed server, resolves inside {!submit}).  This is the
    non-blocking half of the fiber front-end's completion-queue bridge:
    the callback typically posts a wakeup into an [Aio] scheduler.
    Callbacks run outside the ticket lock and must not call {!await} on
    the same ticket. *)

val run : t -> request -> outcome
(** [submit] then [await]: the synchronous client. *)

val stats : t -> Stats.t
(** Snapshot of the counters so far. *)

val shutdown : t -> Stats.t
(** Deterministic drain: (1) close the queue, so every later submit
    resolves [Cancelled]; (2) stop respawning, and stop and join the
    watchdog if there is one; (3) join the workers — they finish
    in-flight and already-queued jobs first — and every orphaned
    domain; (4) salvage the jobs of workers that died during the drain
    and whatever is still queued; (5) return the final statistics.
    When it returns, every domain the server spawned has exited.
    Idempotent — a second (e.g. signal-path) caller just gets the
    statistics. *)
