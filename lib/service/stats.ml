type t = {
  shard_id : string;
  submitted : int;
  completed : int;
  failed : int;
  timed_out : int;
  cancelled : int;
  retries : int;
  rung_full : int;
  rung_conservative : int;
  rung_passthrough : int;
  degraded : int;
  respawns : int;
  corrupt_dropped : int;
  breaker_opened : int;
  replica_admitted : int;
  replica_rejected : int;
  replicated_hits : int;
  replica_pushed : int;
  replica_skipped_down : int;
  replica_gc : int;
  memo_hits : int;
  memo_misses : int;
  memo_entries : int;
  breaker_state : string;
  faults_injected : int;
  queue_high_water : int;
  cache : Cache.stats;
  cache_hit_rate : float;
  p50_latency_ms : float;
  p95_latency_ms : float;
  max_latency_ms : float;
  latency_count : int;
  wall_s : float;
  throughput : float;
}

(* nearest-rank: the ceil(p/100 * n)-th smallest value *)
let percentile p xs =
  match xs with
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let rank =
        int_of_float (ceil (p /. 100.0 *. float_of_int n))
      in
      a.(max 0 (min (n - 1) (rank - 1)))

let to_string s =
  let lines =
    [
      Printf.sprintf "jobs        submitted %d  completed %d  failed %d  timeout %d  cancelled %d"
        s.submitted s.completed s.failed s.timed_out s.cancelled;
      Printf.sprintf "rungs       full %d  conservative %d  passthrough %d  (retries %d)"
        s.rung_full s.rung_conservative s.rung_passthrough s.retries;
      Printf.sprintf "queue       high-water depth %d" s.queue_high_water;
      Printf.sprintf "cache       %d hits  %d misses  %d evictions  %d resident  (hit rate %.1f%%)"
        s.cache.Cache.hits s.cache.Cache.misses s.cache.Cache.evictions
        s.cache.Cache.entries (100.0 *. s.cache_hit_rate);
      Printf.sprintf "memo        %d hits  %d misses  %d resident nests"
        s.memo_hits s.memo_misses s.memo_entries;
      Printf.sprintf "latency     p50 %.2f ms  p95 %.2f ms  max %.2f ms  (%d samples)"
        s.p50_latency_ms s.p95_latency_ms s.max_latency_ms s.latency_count;
      Printf.sprintf "throughput  %.1f jobs/s over %.2f s" s.throughput s.wall_s;
    ]
  in
  (* cluster lines only appear on clustered shards *)
  let cluster =
    (if s.shard_id <> "" then
       [ Printf.sprintf "shard       %s" s.shard_id ]
     else [])
    @
    if
      s.replica_admitted > 0 || s.replica_rejected > 0
      || s.replicated_hits > 0 || s.replica_pushed > 0
      || s.replica_skipped_down > 0 || s.replica_gc > 0
    then
      [
        Printf.sprintf
          "replication pushed %d  skipped-down %d  admitted %d  rejected %d  \
           hits-from-replica %d  gc-dropped %d"
          s.replica_pushed s.replica_skipped_down s.replica_admitted
          s.replica_rejected s.replicated_hits s.replica_gc;
      ]
    else []
  in
  (* the survival line only appears when something needed surviving *)
  let survival =
    if
      s.respawns > 0 || s.degraded > 0 || s.corrupt_dropped > 0
      || s.breaker_opened > 0 || s.faults_injected > 0
      || s.breaker_state <> "closed"
    then
      [
        Printf.sprintf
          "survival    respawns %d  degraded %d  corrupt-dropped %d  breaker opened %d (now %s)  faults injected %d"
          s.respawns s.degraded s.corrupt_dropped s.breaker_opened
          s.breaker_state s.faults_injected;
      ]
    else []
  in
  String.concat "\n" (lines @ cluster @ survival)

(* hand-rolled JSON: the only strings that ride in are shard ids and
   breaker states, but escape them anyway so the emitter is total *)
let to_json s =
  let i name v = Printf.sprintf "\"%s\":%d" name v in
  let f name v =
    (* %.17g would be exact but noisy; 6 significant digits is plenty
       for rates and millisecond latencies *)
    Printf.sprintf "\"%s\":%.6g" name v
  in
  let str name v =
    Printf.sprintf "\"%s\":\"%s\"" name (Obs.Trace.json_escape v)
  in
  let fields =
    [
      str "shard_id" s.shard_id;
      i "submitted" s.submitted;
      i "completed" s.completed;
      i "failed" s.failed;
      i "timed_out" s.timed_out;
      i "cancelled" s.cancelled;
      i "retries" s.retries;
      i "rung_full" s.rung_full;
      i "rung_conservative" s.rung_conservative;
      i "rung_passthrough" s.rung_passthrough;
      i "degraded" s.degraded;
      i "respawns" s.respawns;
      i "corrupt_dropped" s.corrupt_dropped;
      i "breaker_opened" s.breaker_opened;
      i "replica_admitted" s.replica_admitted;
      i "replica_rejected" s.replica_rejected;
      i "replicated_hits" s.replicated_hits;
      i "replica_pushed" s.replica_pushed;
      i "replica_skipped_down" s.replica_skipped_down;
      i "replica_gc" s.replica_gc;
      i "memo_hits" s.memo_hits;
      i "memo_misses" s.memo_misses;
      i "memo_entries" s.memo_entries;
      str "breaker_state" s.breaker_state;
      i "faults_injected" s.faults_injected;
      i "queue_high_water" s.queue_high_water;
      i "cache_hits" s.cache.Cache.hits;
      i "cache_misses" s.cache.Cache.misses;
      i "cache_evictions" s.cache.Cache.evictions;
      i "cache_entries" s.cache.Cache.entries;
      f "cache_hit_rate" s.cache_hit_rate;
      f "p50_latency_ms" s.p50_latency_ms;
      f "p95_latency_ms" s.p95_latency_ms;
      f "max_latency_ms" s.max_latency_ms;
      i "latency_count" s.latency_count;
      f "wall_s" s.wall_s;
      f "throughput" s.throughput;
    ]
  in
  "{" ^ String.concat "," fields ^ "}"
