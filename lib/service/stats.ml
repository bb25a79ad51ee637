type t = {
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
  replica_gc : int;
  memo_hits : int;
  memo_misses : int;
  breaker_state : string;
  faults_injected : int;
  queue_high_water : int;
  cache : Cache.stats;
  cache_hit_rate : float;
  wall_s : float;
}

module M = Obs.Metrics

(* 2^(k/4) s for k = -80 .. 28: about 1 us to 128 s *)
let latency_buckets =
  List.init 109 (fun i -> Float.pow 2.0 (float_of_int (i - 80) /. 4.0))

let latency_error = Float.pow 2.0 0.125 -. 1.0

(* The nearest rank, ceil(p/100 n), falls in the first bucket whose
   cumulative count reaches it; the estimate is that bucket's geometric
   middle, at most a factor 2^(1/8) from any value inside it. *)
let quantile buckets n p =
  let rank = max 1 (((p * n) + 99) / 100) in
  let rec go lo = function
    | [] -> Option.value ~default:0.0 lo
    | (hi, c) :: rest ->
        if c < rank then go (Some hi) rest
        else Option.fold ~none:hi ~some:(fun lo -> Float.sqrt (lo *. hi)) lo
  in
  if n = 0 then 0.0 else go None buckets

(* One source's samples out of a parsed dump, its [shard] label dropped:
   those labelled [shard = id], or with no shard label for [None] (a
   cedard's own dump, or a proxy's own registry). *)
let source fams shard =
  List.concat_map
    (fun (f : M.family) ->
      List.filter_map
        (fun (s : M.sample) ->
          if List.assoc_opt "shard" s.labels <> shard then None
          else Some { s with labels = List.remove_assoc "shard" s.labels })
        f.samples)
    fams

(* a peer's dump is data: a malformed value reads as 0 *)
let value (s : M.sample) = Option.value ~default:0.0 (float_of_string_opt s.value)

let num ?(labels = []) src metric =
  List.find_opt (fun (s : M.sample) -> s.metric = metric && s.labels = labels) src
  |> Option.fold ~none:0.0 ~some:value

let int ?labels src metric = int_of_float (num ?labels src metric)

let latency src p =
  let buckets =
    List.filter_map
      (fun (s : M.sample) ->
        match List.assoc_opt "le" s.labels with
        | Some le when s.metric = "service_job_seconds_bucket" && le <> "+Inf" ->
            Option.map (fun b -> (b, int_of_float (value s))) (float_of_string_opt le)
        | _ -> None)
      src
  in
  1000.0 *. quantile buckets (int src "service_job_seconds_count") p

let latency_ms dump p = latency (source (M.parse dump) None) p

(* ------------------------------------------------------------------ *)
(* One server's view                                                   *)
(* ------------------------------------------------------------------ *)

let view ~json ~now src =
  let c = int src in
  let submitted = c "service_jobs_submitted_total"
  and completed = c "service_jobs_completed_total"
  and failed = c "service_jobs_failed_total"
  and timed_out = c "service_jobs_timeout_total"
  and cancelled = c "service_jobs_cancelled_total"
  and retries = c "service_retries_total"
  and rung_full = c "service_rung_full_total"
  and rung_conservative = c "service_rung_conservative_total"
  and rung_passthrough = c "service_rung_passthrough_total"
  and degraded = c "service_degraded_total"
  and respawns = c "service_worker_respawns_total"
  and corrupt_dropped = c "service_cache_corrupt_dropped_total"
  and breaker_opened = c "service_breaker_opened_total"
  and replica_admitted = c "service_replica_admitted_total"
  and replica_rejected = c "service_replica_rejected_total"
  and replicated_hits = c "service_replicated_hits_total"
  and replica_pushed = c "cluster_replication_pushed_total"
  and replica_skipped_down = c "cluster_replication_skipped_down_total"
  and replica_gc = c "service_replica_gc_total"
  and memo_hits = c "memo_hits_total"
  and memo_misses = c "memo_misses_total"
  and memo_entries = c "memo_entries"
  and queue_high_water = c "service_queue_high_water"
  and cache_hits = c "service_cache_hits_total"
  and cache_misses = c "service_cache_misses_total"
  and cache_evictions = c "service_cache_evictions_total"
  and cache_entries = c "service_cache_entries"
  and latency_count = c "service_job_seconds_count" in
  let shard_id =
    List.find_map
      (fun (s : M.sample) ->
        if s.metric = "service_shard_info" then List.assoc_opt "id" s.labels else None)
      src
    |> Option.value ~default:""
  and breaker_state =
    match c "service_breaker_state" with 2 -> "open" | 1 -> "half-open" | _ -> "closed"
  and faults_injected =
    List.fold_left
      (fun n (s : M.sample) ->
        if String.starts_with ~prefix:"service_fault_fired_" s.metric then n + int_of_float (value s)
        else n)
      0 src
  and hit_rate =
    let lookups = cache_hits + cache_misses in
    if lookups = 0 then 0.0 else float_of_int cache_hits /. float_of_int lookups
  and p50 = latency src 50 and p95 = latency src 95 and max = latency src 100 in
  let started = num src "service_start_time_ms" /. 1000.0 in
  let wall_s = if started > 0.0 then now -. started else 0.0 in
  let throughput = if wall_s > 0.0 then float_of_int completed /. wall_s else 0.0 in
  if json then
    (* hand-rolled; %.17g would be exact but noisy, and 6 significant
       digits is plenty for rates and millisecond latencies *)
    let i k v = Printf.sprintf "\"%s\":%d" k v
    and f k v = Printf.sprintf "\"%s\":%.6g" k v
    and str k v = Printf.sprintf "\"%s\":\"%s\"" k (Obs.Trace.json_escape v) in
    "{"
    ^ String.concat ","
        [
          str "shard_id" shard_id; i "submitted" submitted; i "completed" completed;
          i "failed" failed; i "timed_out" timed_out; i "cancelled" cancelled;
          i "retries" retries; i "rung_full" rung_full;
          i "rung_conservative" rung_conservative; i "rung_passthrough" rung_passthrough;
          i "degraded" degraded; i "respawns" respawns; i "corrupt_dropped" corrupt_dropped;
          i "breaker_opened" breaker_opened; i "replica_admitted" replica_admitted;
          i "replica_rejected" replica_rejected; i "replicated_hits" replicated_hits;
          i "replica_pushed" replica_pushed; i "replica_skipped_down" replica_skipped_down;
          i "replica_gc" replica_gc; i "memo_hits" memo_hits; i "memo_misses" memo_misses;
          i "memo_entries" memo_entries; str "breaker_state" breaker_state;
          i "faults_injected" faults_injected; i "queue_high_water" queue_high_water;
          i "cache_hits" cache_hits; i "cache_misses" cache_misses;
          i "cache_evictions" cache_evictions; i "cache_entries" cache_entries;
          f "cache_hit_rate" hit_rate; f "p50_latency_ms" p50; f "p95_latency_ms" p95;
          f "max_latency_ms" max; i "latency_count" latency_count; f "wall_s" wall_s;
          f "throughput" throughput;
        ]
    ^ "}"
  else
    let lines =
      [
        Printf.sprintf "jobs        submitted %d  completed %d  failed %d  timeout %d  cancelled %d"
          submitted completed failed timed_out cancelled;
        Printf.sprintf "rungs       full %d  conservative %d  passthrough %d  (retries %d)"
          rung_full rung_conservative rung_passthrough retries;
        Printf.sprintf "queue       high-water depth %d" queue_high_water;
        Printf.sprintf "cache       %d hits  %d misses  %d evictions  %d resident  (hit rate %.1f%%)"
          cache_hits cache_misses cache_evictions cache_entries (100.0 *. hit_rate);
        Printf.sprintf "memo        %d hits  %d misses  %d resident nests"
          memo_hits memo_misses memo_entries;
        Printf.sprintf "latency     p50 %.2f ms  p95 %.2f ms  max %.2f ms  (%d samples)"
          p50 p95 max latency_count;
        Printf.sprintf "throughput  %.1f jobs/s over %.2f s" throughput wall_s;
      ]
    in
    (* cluster lines only appear on clustered shards *)
    let cluster =
      (if shard_id <> "" then [ "shard       " ^ shard_id ] else [])
      @
      if
        replica_admitted > 0 || replica_rejected > 0 || replicated_hits > 0
        || replica_pushed > 0 || replica_skipped_down > 0 || replica_gc > 0
      then
        [
          Printf.sprintf
            "replication pushed %d  skipped-down %d  admitted %d  rejected %d  \
             hits-from-replica %d  gc-dropped %d"
            replica_pushed replica_skipped_down replica_admitted replica_rejected
            replicated_hits replica_gc;
        ]
      else []
    in
    (* the survival line only appears when something needed surviving *)
    let survival =
      if
        respawns > 0 || degraded > 0 || corrupt_dropped > 0 || breaker_opened > 0
        || faults_injected > 0 || breaker_state <> "closed"
      then
        [
          Printf.sprintf
            "survival    respawns %d  degraded %d  corrupt-dropped %d  breaker opened %d (now %s)  faults injected %d"
            respawns degraded corrupt_dropped breaker_opened breaker_state faults_injected;
        ]
      else []
    in
    String.concat "\n" (lines @ cluster @ survival)

(* ------------------------------------------------------------------ *)
(* The cluster view: a proxy's merged dump                             *)
(* ------------------------------------------------------------------ *)

let render ?(json = false) dump =
  let fams = M.parse dump and now = Unix.gettimeofday () in
  let view = view ~json ~now in
  let own = source fams None in
  (* the proxy's view of its members; a cedard's dump has none *)
  match List.filter (fun (s : M.sample) -> s.metric = "cluster_member_fails") own with
  | [] -> view own
  | members ->
      let l (m : M.sample) k = Option.value ~default:"" (List.assoc_opt k m.labels) in
      let id m = l m "member" and fails m = int_of_float (value m) in
      let port m = Option.value ~default:0 (int_of_string_opt (l m "port")) in
      let shard m = match source fams (Some (id m)) with [] -> None | src -> Some (view src) in
      let c = int own and each f = String.concat "," (List.map f members) in
      let routed = c "cluster_proxy_routed_total" and failovers = c "cluster_failover_total"
      and shed = c "net_shed_total" + c "cluster_proxy_shed_total" in
      if json then
        let js = Obs.Trace.json_escape in
        Printf.sprintf
          {|{"proxy":{"routed":%d,"failovers":%d,"shed":%d,"stale_routes":%d,"read_repairs":%d,"topology_changes":%d,"pool_idle":{%s},"members":{"epoch":%d,"vnodes":%d,"shards":[%s]}},"shards":{%s}}|}
          routed failovers shed (c "cluster_proxy_stale_routes_total")
          (c "cluster_read_repair_total") (c "cluster_topology_changes_total")
          (each (fun m ->
               Printf.sprintf {|"%s":%d|} (js (id m))
                 (int ~labels:[ ("member", id m) ] own "cluster_pool_idle")))
          (c "cluster_ring_epoch") (c "cluster_ring_vnodes")
          (each (fun m ->
               Printf.sprintf {|{"id":"%s","host":"%s","port":%d,"state":"%s","fails":%d}|}
                 (js (id m)) (js (l m "host")) (port m) (js (l m "state")) (fails m)))
          (each (fun m ->
               Printf.sprintf {|"%s":%s|} (js (id m)) (Option.value ~default:"null" (shard m))))
      else
        let section m =
          Printf.sprintf "--- shard %s (%s:%d) %s, %d consecutive fails ---\n%s" (id m)
            (l m "host") (port m) (l m "state") (fails m)
            (match shard m with
            | Some v -> v
            | None when l m "state" = "down" -> "unreachable: down"
            | None -> "unreachable: no reply")
        in
        String.concat "\n"
          (Printf.sprintf "cluster     routed %d  failovers %d  shed %d" routed failovers shed
          :: List.map section members)
