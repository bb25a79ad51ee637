(* The traced run: per-layer numbers, timed from outside each layer's
   public functions.

   Pass 1 (sequential, one job in flight) takes the first jobs of the
   run's seeded sequence.  For each it calls the in-worker pipeline
   directly -- parse, restructure with a memo of its own, emit,
   validate, perfmodel -- and then the serving ladder: the in-process
   service (a miss, for cold and rebatch), a cache hit in process, the
   wire encode/decode of request and reply, a hit over a socket to
   Net.Server, and a hit through Cluster.Proxy.  Every call runs in an
   Obs.Trace span carrying the minor words it allocated; the per-layer
   table is computed from those spans.

   Pass 2 replays the run's closed loop with tracing alternately off
   and on (four equal slices), which gives the tracing overhead, the
   queue wait the service's own spans record under load, and the
   process-wide GC and cache counters. *)

open Service.Server
module Trace = Obs.Trace

let sequential_jobs (kind : Stack.kind) =
  match kind with Cold | Rebatch -> 200 | Warm | Proxy -> Stack.resident

let counter name =
  match Obs.Metrics.find Obs.Metrics.global name with `Counter n -> n | _ -> 0

(* a span around one public call, with the minor words it allocated *)
let layer ?(counts = fun _ -> []) name f =
  Trace.with_span ("bench." ^ name) (fun sp ->
      let w0 = Gc.minor_words () in
      let r = f () in
      Trace.count sp "minor_words" (int_of_float (Gc.minor_words () -. w0));
      List.iter (fun (k, v) -> Trace.count sp k v) (counts r);
      r)

let concurrent (r : Restructurer.Driver.loop_report) =
  match r.Restructurer.Driver.r_mode with
  | None | Some Restructurer.Cost_model.Serial | Some Restructurer.Cost_model.Vector -> false
  | Some _ -> true

(* the service's in-worker pipeline, called directly; returns the
   validator's issue count *)
let pipeline memo req =
  let opts = req.req_options in
  let target = opts.Restructurer.Options.target in
  let prog = layer "parse" (fun () -> Fortran.Parser.parse_program req.req_source) in
  let pairs0 = counter "depend_pairs_tested_total" in
  let res =
    layer "restructure"
      ~counts:(fun (r : Restructurer.Driver.result) ->
        let reports = r.Restructurer.Driver.reports in
        [ ("loops_parallel", List.length (List.filter concurrent reports));
          ("versions",
            List.fold_left (fun n (x : Restructurer.Driver.loop_report) -> n + x.r_versions) 0 reports);
          ("depend_pairs", counter "depend_pairs_tested_total" - pairs0) ])
      (fun () -> Restructurer.Driver.restructure ~memo opts prog)
  in
  let out = res.Restructurer.Driver.program in
  let text =
    layer "emit" ~counts:(fun s -> [ ("bytes", String.length s) ])
      (fun () -> Codegen.Emit.program_to_string ~target out)
  in
  let issues =
    layer "validate"
      ~counts:(fun n -> [ ("issues", n) ])
      (fun () ->
        match Validate.check_output ~target text with Ok l -> List.length l | Error _ -> 1)
  in
  layer "perfmodel" (fun () ->
      try ignore (Perfmodel.Model.evaluate ~cfg:opts.Restructurer.Options.machine out)
      with _ -> ());
  issues

let submit_msg req =
  Net.Wire.Submit
    { Net.Wire.sub_name = req.req_name; sub_source = req.req_source;
      sub_options = req.req_options; sub_trace = 0 }

(* the reply frame Net.Server sends for a cache hit *)
let reply_msg p =
  Net.Wire.Result
    (Net.Wire.R_done
       { r_cached = true; r_rung = p.p_rung; r_text = p.p_text; r_cycles = p.p_cycles;
         r_global_words = p.p_global_words;
         r_notes = List.map Net.Wire.note_of_report p.p_reports; r_trace = 0 })

let wire_round msg =
  let frame =
    layer "wire.encode" ~counts:(fun f -> [ ("bytes", String.length f) ])
      (fun () -> Net.Wire.encode ~id:1 msg)
  in
  Result.is_ok (layer "wire.decode" (fun () -> Net.Wire.decode frame))

(* The serving ladder of the traced run: the workload's own first
   service, its Net.Server (one is added for in-process workloads) and
   a Cluster.Proxy (a one-shard one is added where the workload has
   none). *)
type ladder = {
  svc : Service.Server.t;
  direct : Net.Client.t;
  via_proxy : Net.Client.t;
  proxy : Cluster.Proxy.t;
  added_net : Net.Server.t option;
  added_proxy : Cluster.Proxy.t option;
}

let ladder (st : Stack.t) =
  let svc = List.hd st.services in
  let net, added_net =
    match st.nets with
    | n :: _ -> (n, None)
    | [] ->
        let n = Net.Server.create Net.Server.default_cfg svc in
        (n, Some n)
  in
  let proxy, added_proxy =
    match st.proxy with
    | Some p -> (p, None)
    | None ->
        let p = Cluster.Proxy.create [ Stack.member 0 net ] in
        (p, Some p)
  in
  { svc; direct = Stack.connect (Net.Server.port net);
    via_proxy = Stack.connect (Cluster.Proxy.port proxy); proxy; added_net; added_proxy }

let close_ladder l =
  Net.Client.close l.direct;
  Net.Client.close l.via_proxy;
  Option.iter Cluster.Proxy.drain l.added_proxy;
  Option.iter Net.Server.drain l.added_net

(* job [i] of pass 1; returns the number of failed checks.  The direct
   pipeline and the in-process miss swap order from job to job, so
   neither gets the other's warm caches every time. *)
let sequential_job (st : Stack.t) l memo i (_, req) =
  Trace.with_span "bench.job" ~attrs:[ ("name", req.req_name) ] @@ fun _ ->
  let bad = ref 0 in
  let direct () =
    let issues = pipeline memo req in
    if req.req_options.Restructurer.Options.validate then bad := !bad + issues
  in
  let miss () =
    match st.kind with
    | Cold | Rebatch ->
        if layer "service.run" (fun () -> Stack.full (Service.Server.run l.svc req)) = None
        then incr bad
    | Warm | Proxy -> ()
  in
  if i mod 2 = 0 then (direct (); miss ()) else (miss (); direct ());
  (match layer "service.hit" (fun () -> Service.Server.run l.svc req) with
  | Done { payload = p; cached = true } when p.p_rung = Full ->
      if not (wire_round (submit_msg req) && wire_round (reply_msg p)) then incr bad;
      let over name client =
        match
          layer name (fun () ->
              Net.Client.submit client ~name:req.req_name ~options:req.req_options
                req.req_source)
        with
        | Ok (Net.Wire.R_done { r_text; r_rung = Full; _ }) when String.equal r_text p.p_text -> ()
        | _ -> incr bad
      in
      over "net.submit" l.direct;
      over "proxy.submit" l.via_proxy
  | _ -> incr bad);
  !bad

(* --- the per-layer table, from pass 1's spans ------------------------ *)

let us t = (t.Trace.t_stop_s -. t.Trace.t_start_s) *. 1e6
let named name job =
  List.filter (fun c -> c.Trace.t_name = "bench." ^ name) job.Trace.t_children

(* per job: total microseconds of its [name] spans *)
let time name jobs = List.map (fun j -> List.fold_left (fun a c -> a +. us c) 0.0 (named name j)) jobs

(* per job: total of counter [key] over its [name] spans *)
let count name key jobs =
  List.map
    (fun j ->
      List.fold_left
        (fun a c -> a +. float_of_int (Option.value ~default:0 (List.assoc_opt key c.Trace.t_counts)))
        0.0 (named name j))
    jobs

let mean_time name jobs = Bstats.mean (time name jobs)
let p50_time name jobs = Bstats.median (time name jobs)
let per_job name key jobs = Bstats.mean (count name key jobs)

(* --- pass 2 ---------------------------------------------------------- *)

type pass2 = {
  traced_jps : float;
  untraced_jps : float;
  jobs : int;
  failed : int;
  minor_words : float;
  major_collections : int;
  cache_hits : int;
  cache_lookups : int;
}

let cache_counts services =
  List.fold_left
    (fun (h, l) s ->
      let c = (Service.Server.stats s).Service.Stats.cache in
      (h + c.Service.Cache.hits, l + c.Service.Cache.hits + c.Service.Cache.misses))
    (0, 0) services

let pass2 (st : Stack.t) ~src ~seconds ~tracer =
  let g0 = Gc.quick_stat () in
  let h0, l0 = cache_counts st.services in
  let slices =
    List.map
      (fun traced ->
        Trace.install (if traced then tracer else Trace.disabled);
        let r =
          Load.run ~clients:st.clients
            ~next:(Load.timed ~seconds:(seconds /. 4.0) ~min_jobs:1 (fun _ -> src ()))
            ~call:(Stack.send st)
        in
        (traced, r))
      [ false; true; false; true ]
  in
  Trace.install Trace.disabled;
  let g1 = Gc.quick_stat () in
  let h1, l1 = cache_counts st.services in
  let jps traced =
    let rs = List.filter_map (fun (t, r) -> if t = traced then Some r else None) slices in
    let sum f = List.fold_left (fun a r -> a +. f r) 0.0 rs in
    sum (fun r -> float_of_int r.Load.jobs) /. sum (fun r -> r.Load.wall_s)
  in
  let total f = List.fold_left (fun a (_, r) -> a + f r) 0 slices in
  { traced_jps = jps true; untraced_jps = jps false; jobs = total (fun r -> r.Load.jobs);
    failed = total (fun r -> r.Load.failed);
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    cache_hits = h1 - h0; cache_lookups = l1 - l0 }

(* --- the trace file -------------------------------------------------- *)

let rec chrome_events t0 (t : Trace.tree) acc =
  let args =
    List.map (fun (k, v) -> (k, Json.str v)) t.t_attrs
    @ List.map (fun (k, v) -> (k, string_of_int v)) t.t_counts
    @ [ ("trace", string_of_int t.t_trace) ]
  in
  let ev =
    Json.obj
      [ ("name", Json.str t.t_name); ("ph", Json.str "X");
        ("ts", Printf.sprintf "%.1f" ((t.t_start_s -. t0) *. 1e6));
        ("dur", Printf.sprintf "%.1f" (us t)); ("pid", "1");
        ("tid", string_of_int t.t_domain); ("args", Json.obj args) ]
  in
  List.fold_left (fun acc c -> chrome_events t0 c acc) (ev :: acc) t.t_children

let write_trace ~path ~env ~table roots =
  let t0 = List.fold_left (fun a t -> Float.min a t.Trace.t_start_s) infinity roots in
  let events = List.rev (List.fold_left (fun acc t -> chrome_events t0 t acc) [] roots) in
  let table = List.map (fun (n, v, u) -> (n, Json.obj [ ("value", Json.num v); ("unit", Json.str u) ])) table in
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        (Json.obj
           [ ("env", env); ("perLayer", Json.obj table);
             ("traceEvents", "[\n" ^ String.concat ",\n" events ^ "\n]") ]))

(* --- the run --------------------------------------------------------- *)

type outcome = { metrics : (string * float * string) list; attempted : int; failed : int }

let run (st : Stack.t) ~seed ~seconds ~trace_path ~env =
  let src = Stack.source st ~seed in
  let n = sequential_jobs st.kind in
  let jobs =
    match st.kind with
    | Cold | Rebatch -> List.init n (fun _ -> src ())
    | Warm | Proxy -> List.init n (fun j -> (j, st.resident_req.(j)))
  in
  let memo = Restructurer.Driver.create_memo ~capacity:1024 () in
  (* the pipeline's memo starts where the service's stood after set-up *)
  (match st.kind with
  | Rebatch ->
      Array.iter (fun r -> ignore (pipeline memo r)) (Gen.prewarm_set (Stack.spec st.kind seed))
  | Cold | Warm | Proxy -> ());
  let l = ladder st in
  let memo0 = Restructurer.Driver.memo_stats memo in
  let flushes0 = counter "net_flushes_total" and frames0 = counter "net_flushed_frames_total" in
  let wakeups0 = counter "aio_wakeups_total" in
  let tracer1 = Trace.memory () in
  Trace.install tracer1;
  (* on a domain of its own, like a service worker, away from the
     front ends' threads on the main domain *)
  let bad1 =
    Domain.join
      (Domain.spawn (fun () ->
           List.fold_left ( + ) 0 (List.mapi (sequential_job st l memo) jobs)))
  in
  Trace.install Trace.disabled;
  let memo1 = Restructurer.Driver.memo_stats memo in
  let tracer2 = Trace.memory () in
  let p2 = pass2 st ~src ~seconds ~tracer:tracer2 in
  let failovers = Cluster.Proxy.failover_total l.proxy in
  close_ladder l;
  let roots = Trace.roots tracer1 in
  let jobs1 = List.filter (fun t -> t.Trace.t_name = "bench.job") roots in
  let queue_waits =
    Trace.find_spans (fun t -> t.Trace.t_name = "queue_wait") (Trace.roots tracer2)
    |> List.map us
  in
  let socket_rtts =
    float_of_int (2 * n + match st.kind with Warm | Proxy -> p2.jobs | Cold | Rebatch -> 0)
  in
  let m f = float_of_int (f memo1 - f memo0) in
  let lookups = m (fun s -> s.Restructurer.Memo.st_hits) +. m (fun s -> s.Restructurer.Memo.st_misses) in
  let nj = float_of_int n in
  let validates = st.kind = Rebatch in
  let wire = mean_time "wire.encode" jobs1 +. mean_time "wire.decode" jobs1 in
  let measured, covered =
    match st.kind with
    | Cold | Rebatch ->
        ( mean_time "service.run" jobs1,
          List.fold_left (fun a name -> a +. mean_time name jobs1) 0.0
            ([ "parse"; "restructure"; "emit"; "perfmodel" ] @ if validates then [ "validate" ] else []) )
    | Warm -> (mean_time "net.submit" jobs1, wire +. mean_time "service.hit" jobs1)
    | Proxy -> (mean_time "proxy.submit" jobs1, (2.0 *. wire) +. mean_time "service.hit" jobs1)
  in
  let table =
    [ ("parse.us_per_job", mean_time "parse" jobs1, "us");
      ("parse.minor_words_per_job", per_job "parse" "minor_words" jobs1, "words");
      ("restructure.us_per_job", mean_time "restructure" jobs1, "us");
      ("restructure.minor_words_per_job", per_job "restructure" "minor_words" jobs1, "words");
      ("restructure.loops_parallel_per_job", per_job "restructure" "loops_parallel" jobs1, "count");
      ("restructure.versions_per_job", per_job "restructure" "versions" jobs1, "count");
      ("depend.pairs_tested_per_job", per_job "restructure" "depend_pairs" jobs1, "count");
      ("memo.hit_ratio", Bstats.ratio (m (fun s -> s.Restructurer.Memo.st_hits)) lookups, "ratio");
      ("memo.lookups_per_job", lookups /. nj, "count");
      ("memo.evictions_per_job", m (fun s -> s.Restructurer.Memo.st_evictions) /. nj, "count");
      ("validate.us_per_job", mean_time "validate" jobs1, "us");
      ("validate.issues", List.fold_left ( +. ) 0.0 (count "validate" "issues" jobs1), "count");
      ("emit.us_per_job", mean_time "emit" jobs1, "us");
      ("emit.bytes_per_job", per_job "emit" "bytes" jobs1, "bytes");
      ("perfmodel.us_per_job", mean_time "perfmodel" jobs1, "us");
      ("service.queue_wait_us_p50", Bstats.median queue_waits, "us");
      ("service.cache_hit_ratio",
        Bstats.ratio (float_of_int p2.cache_hits) (float_of_int p2.cache_lookups), "ratio");
      ("service.hit_us", p50_time "service.hit" jobs1, "us");
      ("wire.encode_us_per_job", mean_time "wire.encode" jobs1, "us");
      ("wire.decode_us_per_job", mean_time "wire.decode" jobs1, "us");
      ("wire.bytes_per_job", per_job "wire.encode" "bytes" jobs1, "bytes");
      ("net.socket_tax_us", p50_time "net.submit" jobs1 -. p50_time "service.hit" jobs1, "us");
      ("net.frames_per_flush",
        Bstats.ratio
          (float_of_int (counter "net_flushed_frames_total" - frames0))
          (float_of_int (counter "net_flushes_total" - flushes0)), "count");
      ("aio.wakeups_per_job", float_of_int (counter "aio_wakeups_total" - wakeups0) /. socket_rtts, "count");
      ("proxy.relay_tax_us", p50_time "proxy.submit" jobs1 -. p50_time "net.submit" jobs1, "us");
      ("proxy.failovers", float_of_int failovers, "count");
      ("gc.minor_words_per_job", p2.minor_words /. float_of_int p2.jobs, "words");
      ("gc.major_collections_per_1k_jobs",
        1000.0 *. float_of_int p2.major_collections /. float_of_int p2.jobs, "count");
      ("residual_pct", 100.0 *. (measured -. covered) /. measured, "%");
      ("trace.jobs_per_s", p2.traced_jps, "jobs/s");
      ("trace.overhead_pct", 100.0 *. (1.0 -. (p2.traced_jps /. p2.untraced_jps)), "%") ]
  in
  write_trace ~path:trace_path ~env ~table roots;
  { metrics = table; attempted = n + p2.jobs; failed = bad1 + p2.failed + failovers }
