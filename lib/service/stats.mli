(** A snapshot of one server's statistics, taken at any time: a view
    over the server's counters ({!Server.stats} fills it, [cedarctl stats]
    serves it live, and {!Server.shutdown} returns the final one). *)

type t = {
  shard_id : string;  (** cluster shard identity; [""] outside a cluster *)
  submitted : int;
  completed : int;  (** finished with a result (fresh or cached) *)
  failed : int;  (** parse/restructure/model errors, after the ladder *)
  timed_out : int;  (** started but exceeded the deadline, after retries *)
  cancelled : int;  (** expired in the queue, never started *)
  retries : int;  (** ladder descents plus dead-worker requeues *)
  rung_full : int;  (** [Done] payloads produced with full techniques *)
  rung_conservative : int;  (** [Done] payloads from the conservative rung *)
  rung_passthrough : int;  (** [Done] payloads that are serial passthrough *)
  degraded : int;  (** jobs served passthrough because the breaker was open *)
  respawns : int;  (** worker domains replaced after a death or a wedge *)
  corrupt_dropped : int;  (** cache entries failing their integrity check *)
  breaker_opened : int;  (** closed/half-open -> open transitions *)
  replica_admitted : int;  (** warm-cache pushes admitted from ring peers *)
  replica_rejected : int;  (** pushes rejected (checksum mismatch or rung) *)
  replicated_hits : int;  (** cache hits served from a replicated entry *)
  replica_pushed : int;  (** warm-cache entries this shard pushed to peers *)
  replica_skipped_down : int;
      (** outbound pushes skipped because the target was held down *)
  replica_gc : int;
      (** replicated entries dropped because ring ownership moved away *)
  memo_hits : int;  (** restructurer nest-memo hits, all jobs *)
  memo_misses : int;  (** restructurer nest-memo misses, all jobs *)
  memo_entries : int;  (** nests resident in the memo at snapshot *)
  breaker_state : string;  (** "closed" / "open" / "half-open" at snapshot *)
  faults_injected : int;  (** total chaos faults fired, all sites *)
  queue_high_water : int;
  cache : Cache.stats;
  cache_hit_rate : float;  (** hits over lookups, in [0,1] *)
  p50_latency_ms : float;
      (** submit-to-result, all outcomes; estimated from a fixed-size
          reservoir sample, so memory stays bounded at any job count *)
  p95_latency_ms : float;
  max_latency_ms : float;  (** exact (tracked outside the sample) *)
  latency_count : int;  (** exact number of latencies observed *)
  wall_s : float;  (** service lifetime, create to snapshot *)
  throughput : float;  (** completed jobs per wall-clock second *)
}

val percentile : float -> float list -> float
(** [percentile p xs]: the [p]-th percentile ([0..100]) of [xs] by
    nearest-rank; 0 on the empty list. *)

val to_string : t -> string
(** Multi-line human-readable summary, printed on shutdown.  A
    "survival" line is appended only when faults were injected or any
    self-healing machinery engaged; shard/replication lines only when
    clustered. *)

val to_json : t -> string
(** The same snapshot as one flat JSON object, for [cedarctl --json]
    and the proxy's cluster-wide aggregation.  Self-contained emitter
    (no JSON library); strings are escaped. *)
