(** A server's statistics.  {!t} is one server's in-process snapshot
    ({!Server.stats}, {!Server.shutdown}); every printed view — cedard's
    shutdown summary, [cedarctl stats] and [cedarctl cluster stats],
    text or JSON — is {!render}ed from an {!Obs.Metrics.dump}, so a view
    reads the same registry a scrape does. *)

type t = {
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
  replica_gc : int;
      (** replicated entries dropped because ring ownership moved away *)
  memo_hits : int;  (** restructurer nest-memo hits, all jobs *)
  memo_misses : int;  (** restructurer nest-memo misses, all jobs *)
  breaker_state : string;  (** "closed" / "open" / "half-open" at snapshot *)
  faults_injected : int;  (** total chaos faults fired, all sites *)
  queue_high_water : int;
  cache : Cache.stats;
  cache_hit_rate : float;  (** hits over lookups, in [0,1] *)
  wall_s : float;  (** service lifetime, create to snapshot *)
}

val latency_buckets : float list
(** The bounds of [service_job_seconds] (submit to resolve): log-spaced,
    4 per octave, from 2{^-20} s (about 1 µs) to 2{^7} s. *)

val latency_error : float
(** 2{^1/8} − 1 ≈ 9.05%: a percentile read from those buckets is within
    this relative error of the exact nearest-rank value inside the
    bounds; below the lowest it reads as the lowest, above the highest
    as the highest. *)

val latency_ms : string -> int -> float
(** [latency_ms dump p]: that estimate, in ms, of the [p]-th percentile
    ([1..100]; 100 is the max) of a dump's unlabelled
    [service_job_seconds]; 0 when it counted nothing. *)

val render : ?json:bool -> string -> string
(** A dump as the stats view: lines of text, or one flat JSON object
    with [~json:true], every value read from its samples (wall time and
    throughput run from [service_start_time_ms] to the local clock).  A
    proxy's merged dump, which carries its member view
    ([cluster_member_fails]), renders as the cluster view: the proxy's
    own counters, then each member's view from its [shard]-labelled
    samples ("unreachable", or null in JSON, without them). *)
