(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (see DESIGN.md's experiment index and
   EXPERIMENTS.md for paper-vs-measured), plus bechamel microbenchmarks
   of the toolchain itself.

   Usage:
     bench/main.exe             -- all paper experiments + microbenchmarks
     bench/main.exe table1 | table2 | fig6 | fig7 | fig8 | fig9 | qcd
     bench/main.exe micro       -- bechamel microbenchmarks only
     bench/main.exe service     -- traffic-generator run, writes
                                   BENCH_service.json
     bench/main.exe cluster     -- cedarproxy scaling pass only (1/2/4/8
                                   shards + kill-a-shard, R=1 vs R=2 at
                                   two shards), prints JSON
*)

let micro () =
  let open Bechamel in
  let cg_src = (Workloads.Linalg.find "CG").Workloads.Workload.source 64 in
  let cg_prog = Fortran.Parser.parse_program cg_src in
  let cedar = Machine.Config.cedar_config1 in
  let opts = Restructurer.Options.advanced cedar in
  let restructured =
    (Restructurer.Driver.restructure opts cg_prog).Restructurer.Driver.program
  in
  let small_cg =
    Fortran.Parser.parse_program
      ((Workloads.Linalg.find "CG").Workloads.Workload.source 24)
  in
  let tests =
    Test.make_grouped ~name:"cedar"
      [
        Test.make ~name:"parse-cg-n64"
          (Staged.stage (fun () -> ignore (Fortran.Parser.parse_program cg_src)));
        Test.make ~name:"restructure-cg-advanced"
          (Staged.stage (fun () ->
               ignore (Restructurer.Driver.restructure opts cg_prog)));
        Test.make ~name:"perfmodel-cg"
          (Staged.stage (fun () ->
               ignore (Perfmodel.Model.evaluate ~cfg:cedar restructured)));
        Test.make ~name:"des-cdoall-10k-iters"
          (Staged.stage (fun () ->
               let sim = Machine.Sim.create () in
               Machine.Sim.spawn sim (fun () ->
                   Machine.Microtask.run_loop sim
                     ~dispatch:{ Machine.Microtask.startup = 60.0; per_iter = 5.0 }
                     ~proc_ids:(List.init 8 (fun p -> (p, 0)))
                     ~lo:1 ~hi:10_000 ~step:1
                     (fun _ -> Machine.Sim.delay sim 10.0));
               ignore (Machine.Sim.run sim)));
        Test.make ~name:"interpret-cg-n24-des"
          (Staged.stage (fun () -> ignore (Interp.Exec.run ~cfg:cedar small_cg)));
      ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ instance ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  print_newline ();
  print_endline "Microbenchmarks (bechamel, monotonic clock)";
  print_endline "===========================================";
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> Printf.printf "  %-36s %14.0f ns/run\n" name est
      | _ -> Printf.printf "  %-36s (no estimate)\n" name)
    results

(* End-to-end service throughput: drive the domain pool with the seeded
   traffic generator and leave a machine-readable record. *)

(* per-phase time accounting rides the service's own phase histograms;
   deltas of the cumulative sums bracket one traffic pass *)
let phase_names = [ "parse"; "restructure"; "validate"; "perfmodel" ]

let phase_hists =
  List.map
    (fun n ->
      ( n,
        Obs.Metrics.histogram Obs.Metrics.global
          (Printf.sprintf "service_phase_%s_seconds" n) ))
    phase_names

let phase_snapshot () =
  List.map (fun (n, h) -> (n, Obs.Metrics.histogram_sum h)) phase_hists

let phase_delta before after =
  List.map2
    (fun (n, s0) (_, s1) -> (n, s1 -. s0))
    before after

let phase_json breakdown =
  "{"
  ^ String.concat ", "
      (List.map (fun (n, s) -> Printf.sprintf {|"%s": %.4f|} n s) breakdown)
  ^ "}"

let phase_line label breakdown =
  Printf.printf "%s phase seconds:%s\n" label
    (String.concat ""
       (List.map (fun (n, s) -> Printf.sprintf "  %s %.3f" n s) breakdown))

(* Memo pass: the nest-level memoization A/B.  The driver restructures
   the full corpus [replays] times back to back — the shared-nest
   workload: from the second replay on, every program shares all its
   nests with a previously seen one, which is exactly the regime the
   memo targets.  The driver is called directly, so no result cache is
   involved.  Two numbers come out: the {e cold} speedup (memo starts
   empty, so the first replay pays miss-and-store on every nest) and the
   {e steady-state} speedup of a fully resident table — the long-running
   service's regime, where the cold first replay has amortized away. *)
let memo_pass () =
  let opts = Restructurer.Options.advanced Machine.Config.cedar_config1 in
  let corpus = Service.Traffic.corpus () in
  let progs =
    List.map
      (fun w ->
        Fortran.Parser.parse_program
          (w.Workloads.Workload.source w.Workloads.Workload.small_size))
      corpus
  in
  let replays = 8 in
  let jobs = replays * List.length progs in
  let replay ?memo () =
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun p -> ignore (Restructurer.Driver.restructure ?memo opts p))
      progs;
    Unix.gettimeofday () -. t0
  in
  let run ?memo () =
    let w = ref 0.0 in
    for _ = 1 to replays do
      w := !w +. replay ?memo ()
    done;
    !w
  in
  ignore (run ()) (* warm the allocator so the A/B is steady-state *);
  let off = ref infinity and cold = ref infinity and hot = ref infinity in
  let last_memo = ref None in
  for _ = 1 to 3 do
    off := Float.min !off (run ());
    let m = Restructurer.Driver.create_memo ~capacity:4096 () in
    cold := Float.min !cold (run ~memo:m ());
    (* the table is now fully resident: replays from here are pure hits *)
    hot := Float.min !hot (run ~memo:m ());
    last_memo := Some m
  done;
  let st =
    match !last_memo with
    | Some m -> Restructurer.Driver.memo_stats m
    | None -> assert false
  in
  let hits = st.Restructurer.Memo.st_hits
  and misses = st.Restructurer.Memo.st_misses in
  let cold_speedup = if !cold > 0.0 then !off /. !cold else 0.0 in
  let hot_speedup = if !hot > 0.0 then !off /. !hot else 0.0 in
  Printf.printf
    "memo: corpus x%d (%d jobs)  unmemoized %.3f s (%.0f jobs/s)\n\
    \      cold  %.3f s (%.0f jobs/s, %.2fx)  steady %.3f s (%.0f jobs/s, \
     %.2fx)\n\
    \      hits %d misses %d resident %d\n%!"
    replays jobs !off
    (float_of_int jobs /. !off)
    !cold
    (float_of_int jobs /. !cold)
    cold_speedup !hot
    (float_of_int jobs /. !hot)
    hot_speedup hits misses st.Restructurer.Memo.st_size;
  Printf.sprintf
    {|{
    "corpus_programs": %d,
    "replays": %d,
    "jobs": %d,
    "unmemoized_s": %.4f,
    "cold_memoized_s": %.4f,
    "steady_memoized_s": %.4f,
    "unmemoized_jobs_per_s": %.2f,
    "cold_memoized_jobs_per_s": %.2f,
    "steady_memoized_jobs_per_s": %.2f,
    "cold_speedup": %.3f,
    "steady_speedup": %.3f,
    "memo_hits": %d,
    "memo_misses": %d,
    "memo_hit_rate": %.4f,
    "memo_resident": %d
  }|}
    (List.length progs) replays jobs !off !cold !hot
    (float_of_int jobs /. !off)
    (float_of_int jobs /. !cold)
    (float_of_int jobs /. !hot)
    cold_speedup hot_speedup hits misses
    (if hits + misses > 0 then
       float_of_int hits /. float_of_int (hits + misses)
     else 0.0)
    st.Restructurer.Memo.st_size

(* Seconds per pass of [f] over [inputs]: the best of 3 runs of 40
   passes. *)
let best_pass_s f inputs =
  let reps = 40 in
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      List.iter f inputs
    done;
    best := Float.min !best ((Unix.gettimeofday () -. t0) /. float_of_int reps)
  done;
  !best

(* Codegen pass: Cedar-vs-OpenMP emission A/B.  The corpus is parsed
   and restructured once (advanced set); what is timed is only the
   backend — repeated program_to_string calls per target — so the row
   isolates the price of directive lowering (reduction recognition,
   preamble/postamble clause splitting) over the plain printer. *)
let codegen_pass () =
  let opts = Restructurer.Options.advanced Machine.Config.cedar_config1 in
  let progs =
    List.map
      (fun w ->
        (Restructurer.Driver.restructure opts
           (Fortran.Parser.parse_program
              (w.Workloads.Workload.source w.Workloads.Workload.small_size)))
          .Restructurer.Driver.program)
      (Service.Traffic.corpus ())
  in
  let emit target p = Codegen.Emit.program_to_string ~target p in
  let bytes_per_pass target =
    List.fold_left (fun n p -> n + String.length (emit target p)) 0 progs
  in
  let time target = best_pass_s (fun p -> ignore (emit target p)) progs in
  ignore (bytes_per_pass Codegen.Target.Cedar) (* warm allocator *);
  let n = List.length progs in
  let ced_s = time Codegen.Target.Cedar
  and omp_s = time Codegen.Target.Openmp in
  let ced_bytes = bytes_per_pass Codegen.Target.Cedar
  and omp_bytes = bytes_per_pass Codegen.Target.Openmp in
  let per_s t = if t > 0.0 then float_of_int n /. t else 0.0 in
  Printf.printf
    "codegen: corpus of %d programs per pass\n\
    \         cedar  %.2f ms/pass (%.0f emits/s, %d bytes)\n\
    \         openmp %.2f ms/pass (%.0f emits/s, %d bytes)\n%!"
    n (1e3 *. ced_s) (per_s ced_s) ced_bytes (1e3 *. omp_s) (per_s omp_s)
    omp_bytes;
  Printf.sprintf
    {|{
    "corpus_programs": %d,
    "codegen_cedar_pass_s": %.5f,
    "codegen_openmp_pass_s": %.5f,
    "codegen_cedar_emits_per_s": %.1f,
    "codegen_openmp_emits_per_s": %.1f,
    "codegen_cedar_bytes_per_pass": %d,
    "codegen_openmp_bytes_per_pass": %d
  }|}
    n ced_s omp_s (per_s ced_s) (per_s omp_s) ced_bytes omp_bytes

(* Front-end pass: the text path a validated job reads.  Timed are the
   parse (lex + parse) of every corpus source, and the lift of each
   restructured program's OpenMP text back to Cedar plus the reparse of
   the lifted text, as [Validate.check_output] does it. *)
let frontend_pass () =
  let opts = Restructurer.Options.advanced Machine.Config.cedar_config1 in
  let sources =
    List.map
      (fun w -> w.Workloads.Workload.source w.Workloads.Workload.small_size)
      (Service.Traffic.corpus ())
  in
  let omp =
    List.map
      (fun src ->
        Codegen.Emit.program_to_string ~target:Codegen.Target.Openmp
          (Restructurer.Driver.restructure opts (Fortran.Parser.parse_program src))
            .Restructurer.Driver.program)
      sources
  in
  let lift_reparse text =
    match Codegen.Openmp.lift_source text with
    | Ok cedar -> ignore (Fortran.Parser.parse_program cedar)
    | Error m -> failwith ("frontend pass: lift failed: " ^ m)
  in
  let bytes l = List.fold_left (fun n s -> n + String.length s) 0 l in
  let n = List.length sources in
  let parse_s =
    best_pass_s (fun src -> ignore (Fortran.Parser.parse_program src)) sources
  in
  let lift_s = best_pass_s lift_reparse omp in
  let per_s t = if t > 0.0 then float_of_int n /. t else 0.0 in
  Printf.printf
    "frontend: corpus of %d programs per pass\n\
    \         parse          %.2f ms/pass (%.0f parses/s, %d bytes)\n\
    \         lift+reparse   %.2f ms/pass (%.0f lift+reparses/s, %d bytes)\n%!"
    n (1e3 *. parse_s) (per_s parse_s) (bytes sources) (1e3 *. lift_s)
    (per_s lift_s) (bytes omp);
  Printf.sprintf
    {|{
    "corpus_programs": %d,
    "frontend_parse_pass_s": %.5f,
    "frontend_lift_reparse_pass_s": %.5f,
    "frontend_parses_per_s": %.1f,
    "frontend_lift_reparses_per_s": %.1f,
    "frontend_source_bytes_per_pass": %d,
    "frontend_openmp_bytes_per_pass": %d
  }|}
    n parse_s lift_s (per_s parse_s) (per_s lift_s) (bytes sources) (bytes omp)

(* Netfast pass: the warm socket path after the in-place frame decoder
   and the corked writer.  Flush counters give the frames-per-flush
   batching factor; [Gc.quick_stat] deltas give the allocation price
   per job.  Client and server share the process (as in every other
   socket pass), so the GC numbers are the whole round trip. *)
let netfast_pass () =
  let workers = 4 in
  let base = Service.Traffic.default_cfg in
  let server =
    Service.Server.create ~workers ~cache_capacity:256 ~timeout_ms:30_000.0 ()
  in
  ignore (Service.Traffic.run server base) (* warm the cache *);
  let net = Net.Server.create Net.Server.default_cfg server in
  let ccfg = Net.Client.default_cfg ~port:(Net.Server.port net) in
  let m_fl = Obs.Metrics.counter Obs.Metrics.global "net_flushes_total" in
  let m_fr = Obs.Metrics.counter Obs.Metrics.global "net_flushed_frames_total" in
  let drive () =
    Net.Client.drive ccfg
      {
        Net.Client.requests = base.Service.Traffic.requests;
        conns = 4;
        seed = base.Service.Traffic.seed;
        size_jitter = base.Service.Traffic.size_jitter;
        batch = base.Service.Traffic.batch;
        validate = false;
        target = Codegen.Target.Cedar;
      }
  in
  ignore (drive ()) (* reach steady state before measuring *);
  let fl0 = Obs.Metrics.counter_value m_fl in
  let fr0 = Obs.Metrics.counter_value m_fr in
  let gc0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let reqs = ref 0 in
  let passes = 5 in
  for _ = 1 to passes do
    let s = drive () in
    reqs := !reqs + s.Net.Client.d_requests
  done;
  let wall = Unix.gettimeofday () -. t0 in
  let gc1 = Gc.quick_stat () in
  let flushes = Obs.Metrics.counter_value m_fl - fl0 in
  let frames = Obs.Metrics.counter_value m_fr - fr0 in
  (* pipelined ping burst over a raw socket: worker-pool replies above
     complete one at a time, so they flush one at a time — the corked
     writer earns its keep on inline replies, where the whole burst is
     answered in one scheduler pass and leaves in O(1) flushes *)
  let burst = 64 and rounds = 5 in
  let bfl0 = Obs.Metrics.counter_value m_fl in
  let bfr0 = Obs.Metrics.counter_value m_fr in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd
    (Unix.ADDR_INET (Unix.inet_addr_loopback, Net.Server.port net));
  let burst_req =
    String.concat ""
      (List.init burst (fun i -> Net.Wire.encode ~id:i Net.Wire.Ping))
  in
  let reply_bytes = burst * String.length (Net.Wire.encode ~id:0 Net.Wire.Pong) in
  let buf = Bytes.create reply_bytes in
  for _ = 1 to rounds do
    ignore (Unix.write_substring fd burst_req 0 (String.length burst_req));
    let got = ref 0 in
    while !got < reply_bytes do
      let n = Unix.read fd buf !got (reply_bytes - !got) in
      if n = 0 then failwith "netfast: burst connection closed early";
      got := !got + n
    done
  done;
  Unix.close fd;
  let bfl = Obs.Metrics.counter_value m_fl - bfl0 in
  let bfr = Obs.Metrics.counter_value m_fr - bfr0 in
  Net.Server.drain net;
  ignore (Service.Server.shutdown server);
  let jobs = float_of_int !reqs in
  let tp = if wall > 0.0 then jobs /. wall else 0.0 in
  let minor_per_job = (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. jobs in
  let promoted_per_job =
    (gc1.Gc.promoted_words -. gc0.Gc.promoted_words) /. jobs
  in
  let minor_cols_per_1k =
    float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections)
    /. jobs *. 1000.0
  in
  let frames_per_flush =
    if flushes > 0 then float_of_int frames /. float_of_int flushes else 0.0
  in
  let burst_frames_per_flush =
    if bfl > 0 then float_of_int bfr /. float_of_int bfl else 0.0
  in
  Printf.printf
    "netfast: c=4 warm  %.0f jobs/s  %d flushes / %d frames (%.2f \
     frames/flush)  minor %.0f w/job  promoted %.0f w/job  %.2f minor \
     GCs/1k jobs\n\
    \         ping burst %dx%d: %d flushes / %d frames (%.1f \
     frames/flush)\n%!"
    tp flushes frames frames_per_flush minor_per_job promoted_per_job
    minor_cols_per_1k rounds burst bfl bfr burst_frames_per_flush;
  Printf.sprintf
    {|{
    "conns": 4,
    "requests": %d,
    "jobs_per_s": %.2f,
    "flushes": %d,
    "frames_flushed": %d,
    "frames_per_flush": %.3f,
    "burst_pings": %d,
    "burst_flushes": %d,
    "burst_frames_per_flush": %.2f,
    "minor_words_per_job": %.1f,
    "promoted_words_per_job": %.1f,
    "minor_collections_per_1k_jobs": %.2f
  }|}
    !reqs tp flushes frames frames_per_flush (rounds * burst) bfl
    burst_frames_per_flush minor_per_job promoted_per_job minor_cols_per_1k

(* Socket pass: the same closed-loop workload through the cedarnet TCP
   front-end.  The cache is warmed with the identical request sequence
   first, so — like the warm in-process passes — these numbers measure
   serving, framing, and socket transport, not restructuring.  The
   in-process twin runs with the same client counts for an
   apples-to-apples socket tax. *)
let net_pass () =
  let workers = 4 in
  let base = Service.Traffic.default_cfg in
  let server =
    Service.Server.create ~workers ~cache_capacity:256 ~timeout_ms:30_000.0 ()
  in
  ignore (Service.Traffic.run server base) (* warm the cache *);
  let inproc_tp c =
    let s = Service.Traffic.run server { base with Service.Traffic.clients = c } in
    if s.Service.Traffic.s_wall_s > 0.0 then
      float_of_int s.Service.Traffic.s_requests /. s.Service.Traffic.s_wall_s
    else 0.0
  in
  let net = Net.Server.create Net.Server.default_cfg server in
  let ccfg = Net.Client.default_cfg ~port:(Net.Server.port net) in
  let sock_pass c =
    let s =
      Net.Client.drive ccfg
        {
          Net.Client.requests = base.Service.Traffic.requests;
          conns = c;
          seed = base.Service.Traffic.seed;
          size_jitter = base.Service.Traffic.size_jitter;
          batch = base.Service.Traffic.batch;
          validate = false;
          target = Codegen.Target.Cedar;
        }
    in
    Printf.printf "net c=%-2d %s\n%!" c (Net.Client.drive_summary_to_string s);
    let tp =
      if s.Net.Client.d_wall_s > 0.0 then
        float_of_int s.Net.Client.d_requests /. s.Net.Client.d_wall_s
      else 0.0
    in
    ( tp,
      1e3 *. Net.Client.percentile 50.0 s.Net.Client.d_latencies,
      1e3 *. Net.Client.percentile 95.0 s.Net.Client.d_latencies )
  in
  let conns = [ 1; 4; 16 ] in
  let socket = List.map sock_pass conns in
  let inproc = List.map inproc_tp conns in
  Net.Server.drain net;
  ignore (Service.Server.shutdown server);
  (* overload: a 1-worker pool behind a 2-submit budget, hit by 16
     closed-loop connections on a cold cache — the shed rate and the
     in-flight high water show admission control holding the line *)
  let budget = 2 in
  let oserver =
    Service.Server.create ~workers:1 ~cache_capacity:0 ~timeout_ms:30_000.0 ()
  in
  let onet =
    Net.Server.create
      { Net.Server.default_cfg with Net.Server.max_inflight = budget }
      oserver
  in
  let ocfg = Net.Client.default_cfg ~port:(Net.Server.port onet) in
  let osum =
    Net.Client.drive ocfg
      {
        Net.Client.requests = 100;
        conns = 16;
        seed = base.Service.Traffic.seed;
        size_jitter = base.Service.Traffic.size_jitter;
        batch = base.Service.Traffic.batch;
        validate = false;
        target = Codegen.Target.Cedar;
      }
  in
  let shed_rate =
    float_of_int osum.Net.Client.d_overloaded
    /. float_of_int osum.Net.Client.d_requests
  in
  let high_water = Net.Server.inflight_high_water onet in
  Printf.printf
    "net overload: budget %d, 16 conns: %s\n  shed rate %.2f, in-flight \
     high water %d\n%!"
    budget
    (Net.Client.drive_summary_to_string osum)
    shed_rate high_water;
  Net.Server.drain onet;
  ignore (Service.Server.shutdown oserver);
  let fl xs = String.concat ", " (List.map (Printf.sprintf "%.2f") xs) in
  Printf.sprintf
    {|{
    "conns": [%s],
    "socket_jobs_per_s": [%s],
    "socket_rtt_p50_ms": [%s],
    "socket_rtt_p95_ms": [%s],
    "inproc_jobs_per_s": [%s],
    "overload": {
      "inflight_budget": %d,
      "burst_conns": 16,
      "requests": %d,
      "overloaded": %d,
      "shed_rate": %.4f,
      "inflight_high_water": %d
    }
  }|}
    (String.concat ", " (List.map string_of_int conns))
    (fl (List.map (fun (tp, _, _) -> tp) socket))
    (fl (List.map (fun (_, p50, _) -> p50) socket))
    (fl (List.map (fun (_, _, p95) -> p95) socket))
    (fl inproc) budget osum.Net.Client.d_requests
    osum.Net.Client.d_overloaded shed_rate high_water

(* Fibers pass: connection-scaling economics of the event-loop server.
   The threaded core paid one OS thread pair per connection, so its
   viable regime ended around the conn budget; the fiber core pays
   three parked fibers and a poll slot.  This pass parks [idle_target]
   completely idle connections on the server and drives the same
   16-connection cache-hit load as the net pass through the crowd — the
   p95 RTT must not degrade, and the RSS growth per idle connection is
   recorded as the per-conn memory price. *)

let read_rss_kb () =
  try
    let ic = open_in "/proc/self/status" in
    let rec go () =
      match input_line ic with
      | line ->
          if String.length line > 6 && String.sub line 0 6 = "VmRSS:" then begin
            close_in ic;
            String.to_seq line
            |> Seq.filter (fun c -> c >= '0' && c <= '9')
            |> String.of_seq |> int_of_string
          end
          else go ()
      | exception End_of_file ->
          close_in ic;
          0
    in
    go ()
  with Sys_error _ | Failure _ -> 0

let fibers_pass () =
  ignore (Aio.raise_fd_limit ());
  let idle_target = 5000 in
  let workers = 4 in
  let base = Service.Traffic.default_cfg in
  let server =
    Service.Server.create ~workers ~cache_capacity:256 ~timeout_ms:30_000.0 ()
  in
  ignore (Service.Traffic.run server base) (* warm the cache *);
  let net =
    Net.Server.create
      { Net.Server.default_cfg with Net.Server.max_conns = idle_target + 64 }
      server
  in
  let port = Net.Server.port net in
  let ccfg = Net.Client.default_cfg ~port in
  let drive c =
    let s =
      Net.Client.drive ccfg
        {
          Net.Client.requests = base.Service.Traffic.requests;
          conns = c;
          seed = base.Service.Traffic.seed;
          size_jitter = base.Service.Traffic.size_jitter;
          batch = base.Service.Traffic.batch;
          validate = false;
          target = Codegen.Target.Cedar;
        }
    in
    let tp =
      if s.Net.Client.d_wall_s > 0.0 then
        float_of_int s.Net.Client.d_requests /. s.Net.Client.d_wall_s
      else 0.0
    in
    ( tp,
      1e3 *. Net.Client.percentile 50.0 s.Net.Client.d_latencies,
      1e3 *. Net.Client.percentile 95.0 s.Net.Client.d_latencies )
  in
  let tp0, p50_0, p95_0 = drive 16 in
  Printf.printf "fibers baseline  c=16: %.0f jobs/s  p50 %.3f ms  p95 %.3f ms\n%!"
    tp0 p50_0 p95_0;
  let seen0 = Net.Server.connections_seen net in
  let rss0 = read_rss_kb () in
  let idle =
    Array.init idle_target (fun _ ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        fd)
  in
  (* wait until the server has accepted the whole crowd *)
  let deadline = Unix.gettimeofday () +. 60.0 in
  while
    Net.Server.connections_seen net < seen0 + idle_target
    && Unix.gettimeofday () < deadline
  do
    Thread.delay 0.01
  done;
  let idle_accepted = Net.Server.connections_seen net - seen0 in
  let rss1 = read_rss_kb () in
  let tp1, p50_1, p95_1 = drive 16 in
  Printf.printf
    "fibers +%d idle c=16: %.0f jobs/s  p50 %.3f ms  p95 %.3f ms\n%!"
    idle_accepted tp1 p50_1 p95_1;
  (* a sample of the idle crowd must still be served *)
  let alive = ref 0 and sampled = ref 0 in
  Array.iteri
    (fun i fd ->
      if i mod 500 = 0 then begin
        incr sampled;
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
        Net.Wire.write_frame fd ~id:i Net.Wire.Ping;
        (* a Pong is a bare 20-byte header *)
        let hdr = Bytes.create Net.Wire.header_bytes in
        let rec fill off =
          off = Bytes.length hdr
          ||
          match Unix.read fd hdr off (Bytes.length hdr - off) with
          | 0 -> false
          | k -> fill (off + k)
          | exception Unix.Unix_error _ -> false
        in
        if fill 0 then
          match Net.Wire.decode (Bytes.to_string hdr) with
          | Ok (_, Net.Wire.Pong) -> incr alive
          | _ -> ()
      end)
    idle;
  Array.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    idle;
  Net.Server.drain net;
  ignore (Service.Server.shutdown server);
  let rss_growth_kb = max 0 (rss1 - rss0) in
  let per_conn_bytes =
    if idle_accepted > 0 then rss_growth_kb * 1024 / idle_accepted else 0
  in
  Printf.printf
    "fibers idle cost: %d KiB RSS growth over %d conns = %d bytes/conn; \
     idle sample alive %d/%d\n%!"
    rss_growth_kb idle_accepted per_conn_bytes !alive !sampled;
  Printf.sprintf
    {|{
    "idle_conns": %d,
    "baseline_16conn": { "jobs_per_s": %.2f, "rtt_p50_ms": %.3f, "rtt_p95_ms": %.3f },
    "under_idle_load_16conn": { "jobs_per_s": %.2f, "rtt_p50_ms": %.3f, "rtt_p95_ms": %.3f },
    "rss_growth_kb": %d,
    "rss_per_idle_conn_bytes": %d,
    "idle_sample_alive": %d,
    "idle_sample_size": %d
  }|}
    idle_accepted tp0 p50_0 p95_0 tp1 p50_1 p95_1 rss_growth_kb
    per_conn_bytes !alive !sampled

(* Cluster pass: the same closed-loop drive through cedarproxy over 1,
   2, 4, and 8 in-process shards — the scaling table.  Caches are
   warmed with the identical request sequence first, so the
   steady-state numbers measure routed serving, not restructuring.
   For multi-shard configurations a second drive runs with one shard
   killed, measuring failover throughput and how much of the victim's
   warm set the ring successors answer from their replicas; the
   two-shard row runs at both R=1 and R=2 so the replication factor's
   effect on the kill-recovery hit rate is a direct A/B. *)
let cluster_pass () =
  let base = Service.Traffic.default_cfg in
  let requests = base.Service.Traffic.requests in
  let conns = 8 in
  let run_one ?(replicas = 2) n =
    let handles =
      List.init n (fun i ->
          let id = Printf.sprintf "s%d" i in
          let repl = ref None in
          let on_cache_fill ~key ~digest payload =
            match !repl with
            | Some r -> Cluster.Replicator.push r ~key ~digest payload
            | None -> ()
          in
          let svc =
            Service.Server.create ~workers:2 ~cache_capacity:256
              ~timeout_ms:30_000.0 ~oversubscribe:true ~shard_id:id
              ~on_cache_fill ()
          in
          let net = Net.Server.create Net.Server.default_cfg svc in
          (id, svc, net, repl))
    in
    let shards =
      List.map
        (fun (id, _, net, _) ->
          { Cluster.Membership.sh_id = id; sh_host = "127.0.0.1";
            sh_port = Net.Server.port net })
        handles
    in
    if n > 1 then
      List.iter
        (fun (id, _, _, repl) ->
          repl :=
            Some
              (Cluster.Replicator.create ~replicas ~self:id ~peers:shards ()))
        handles;
    let proxy = Cluster.Proxy.create ~probe_ms:200.0 shards in
    let ccfg = Net.Client.default_cfg ~port:(Cluster.Proxy.port proxy) in
    let dcfg =
      {
        Net.Client.requests;
        conns;
        seed = base.Service.Traffic.seed;
        size_jitter = base.Service.Traffic.size_jitter;
        batch = base.Service.Traffic.batch;
        validate = false;
        target = Codegen.Target.Cedar;
      }
    in
    ignore (Net.Client.drive ccfg dcfg) (* warm every shard's cache *);
    if n > 1 then Thread.delay 0.3 (* let the async replication land *);
    let s = Net.Client.drive ccfg dcfg in
    Printf.printf "cluster n=%d R=%d %s\n%!" n replicas
      (Net.Client.drive_summary_to_string s);
    let tp summary =
      if summary.Net.Client.d_wall_s > 0.0 then
        float_of_int summary.Net.Client.d_requests
        /. summary.Net.Client.d_wall_s
      else 0.0
    in
    let pct p summary =
      1e3 *. Net.Client.percentile p summary.Net.Client.d_latencies
    in
    let kill_json =
      if n <= 1 then "null"
      else begin
        (* kill shard s0 and re-drive the same sequence: the victim's
           keys fail over to the ring successor's replicas *)
        let _, _, victim_net, _ = List.hd handles in
        Net.Server.drain victim_net;
        let sk = Net.Client.drive ccfg dcfg in
        Printf.printf "cluster n=%d R=%d (s0 killed) %s\n%!" n replicas
          (Net.Client.drive_summary_to_string sk);
        let replica_hits =
          List.fold_left
            (fun acc (id, svc, _, _) ->
              if id = "s0" then acc
              else
                acc + (Service.Server.stats svc).Service.Stats.replicated_hits)
            0 handles
        in
        Printf.sprintf
          {|{ "jobs_per_s": %.2f, "rtt_p99_ms": %.2f, "done": %d, "failed": %d, "overloaded": %d, "failovers": %d, "replica_hits": %d, "replica_hit_rate": %.4f }|}
          (tp sk) (pct 99.0 sk) sk.Net.Client.d_done sk.Net.Client.d_failed
          sk.Net.Client.d_overloaded
          (Cluster.Proxy.failover_total proxy)
          replica_hits
          (float_of_int replica_hits /. float_of_int requests)
      end
    in
    let json =
      Printf.sprintf
        {|{ "shards": %d, "replicas": %d, "jobs_per_s": %.2f, "rtt_p50_ms": %.2f, "rtt_p99_ms": %.2f, "done": %d, "failed": %d, "after_kill": %s }|}
        n replicas (tp s) (pct 50.0 s) (pct 99.0 s) s.Net.Client.d_done
        s.Net.Client.d_failed kill_json
    in
    Cluster.Proxy.drain proxy;
    List.iter
      (fun (_, svc, net, repl) ->
        (match !repl with
        | Some r -> Cluster.Replicator.stop r
        | None -> ());
        Net.Server.drain net;
        ignore (Service.Server.shutdown svc))
      handles;
    json
  in
  Printf.sprintf
    {|{
    "requests_per_pass": %d,
    "conns": %d,
    "passes": [
      %s
    ]
  }|}
    requests conns
    (String.concat ",\n      "
       (List.map
          (fun (n, replicas) -> run_one ~replicas n)
          [ (1, 2); (2, 1); (2, 2); (4, 2); (8, 2) ]))

let service_bench () =
  let workers = 4 in
  let cfg = Service.Traffic.default_cfg in
  let server =
    Service.Server.create ~workers ~cache_capacity:256 ~timeout_ms:30_000.0 ()
  in
  (* cold pass fills the cache; the warm pass replays the identical
     request sequence, so it measures pure cache-hit serving *)
  let snap0 = phase_snapshot () in
  let cold = Service.Traffic.run server cfg in
  let snap1 = phase_snapshot () in
  (* discard one warm pass so the measured warm passes below are both
     steady-state (first-touch effects would otherwise bias whichever
     pass runs first) *)
  ignore (Service.Traffic.run server cfg);
  let snap2 = phase_snapshot () in
  let warm = Service.Traffic.run server cfg in
  let snap3 = phase_snapshot () in
  (* traced warm passes measure what turning the span tracer on costs
     relative to the disabled-tracer fast path.  Alternate the two modes
     and take the best pass of each: sequential ordering alone can swing
     warm cache-hit throughput by tens of percent (allocator/GC warm-up,
     especially on single-core hosts), so an A-then-B comparison would
     mostly measure run order, not tracing. *)
  let tracer = Obs.Trace.memory () in
  let warm_pass traced =
    Obs.Trace.install (if traced then tracer else Obs.Trace.disabled);
    let s = Service.Traffic.run server cfg in
    Obs.Trace.install Obs.Trace.disabled;
    s
  in
  let throughput (s : Service.Traffic.summary) =
    if s.Service.Traffic.s_wall_s > 0.0 then
      float_of_int s.Service.Traffic.s_requests /. s.Service.Traffic.s_wall_s
    else 0.0
  in
  let warm_traced = warm_pass true in
  (* one sample = five back-to-back passes, so a single scheduler hiccup
     can't dominate the measured wall time *)
  let measure traced =
    Obs.Trace.install (if traced then tracer else Obs.Trace.disabled);
    let reqs = ref 0 and wall = ref 0.0 in
    for _ = 1 to 5 do
      let s = Service.Traffic.run server cfg in
      reqs := !reqs + s.Service.Traffic.s_requests;
      wall := !wall +. s.Service.Traffic.s_wall_s
    done;
    Obs.Trace.install Obs.Trace.disabled;
    if !wall > 0.0 then float_of_int !reqs /. !wall else 0.0
  in
  let best_plain = ref 0.0 and best_traced = ref 0.0 in
  for _ = 1 to 3 do
    best_plain := max !best_plain (measure false);
    best_traced := max !best_traced (measure true)
  done;
  let best_plain = !best_plain and best_traced = !best_traced in
  let cold_phases = phase_delta snap0 snap1 in
  let warm_phases = phase_delta snap2 snap3 in
  let effective = Service.Server.effective_workers server in
  let stats = Service.Server.shutdown server in
  (* chaos pass on a fresh pool: every fault site at 10%, fixed seed —
     measures the survival overhead of the self-healing machinery *)
  let fault =
    Service.Fault.create ~seed:cfg.Service.Traffic.seed
      (List.map (fun s -> (s, 0.1)) Service.Fault.service_sites)
  in
  let chaos_server =
    Service.Server.create ~workers ~cache_capacity:256 ~timeout_ms:30_000.0
      ~fault ()
  in
  let chaos = Service.Traffic.run chaos_server cfg in
  let chaos_stats = Service.Server.shutdown chaos_server in
  print_endline "Service throughput (closed-loop traffic generator)";
  print_endline "==================================================";
  print_endline ("cold:  " ^ Service.Traffic.summary_to_string cold);
  print_endline ("warm:  " ^ Service.Traffic.summary_to_string warm);
  print_endline ("warm+trace: " ^ Service.Traffic.summary_to_string warm_traced);
  print_endline ("chaos: " ^ Service.Traffic.summary_to_string chaos);
  phase_line "cold" cold_phases;
  phase_line "warm" warm_phases;
  print_endline (Service.Stats.to_string stats);
  print_endline "--- chaos pass (service sites at 10%) ---";
  print_endline (Service.Stats.to_string chaos_stats);
  print_endline "--- memo pass (nest-level memoization A/B) ---";
  let memo_json = memo_pass () in
  print_endline "--- codegen pass (cedar vs openmp emission A/B) ---";
  let codegen_json = codegen_pass () in
  print_endline "--- frontend pass (parse; lift + reparse) ---";
  let frontend_json = frontend_pass () in
  print_endline "--- net pass (cedarnet TCP front-end) ---";
  let net_json = net_pass () in
  print_endline "--- netfast pass (zero-copy decode + corked writer) ---";
  let netfast_json = netfast_pass () in
  print_endline "--- fibers pass (idle-connection scaling) ---";
  let fibers_json = fibers_pass () in
  print_endline "--- cluster pass (cedarproxy over 1/2/4/8 shards) ---";
  let cluster_json = cluster_pass () in
  let json =
    Printf.sprintf
      {|{
  "requests_per_pass": %d,
  "workers_requested": %d,
  "workers_effective": %d,
  "host_cores": %d,
  "clients": %d,
  "seed": %d,
  "batch": %d,
  "cold_throughput_jobs_per_s": %.2f,
  "warm_throughput_jobs_per_s": %.2f,
  "warm_traced_throughput_jobs_per_s": %.2f,
  "tracing_overhead_pct": %.2f,
  "cold_phase_seconds": %s,
  "warm_phase_seconds": %s,
  "warm_cached": %d,
  "cache_hit_rate": %.4f,
  "p50_latency_ms": %.3f,
  "p95_latency_ms": %.3f,
  "wall_s": %.3f,
  "failed": %d,
  "timed_out": %d,
  "cancelled": %d,
  "chaos_throughput_jobs_per_s": %.2f,
  "chaos_resolved": %d,
  "chaos_rung_full": %d,
  "chaos_rung_conservative": %d,
  "chaos_rung_passthrough": %d,
  "chaos_retries": %d,
  "chaos_respawns": %d,
  "chaos_degraded": %d,
  "chaos_corrupt_dropped": %d,
  "chaos_faults_injected": %d,
  "memo": %s,
  "codegen": %s,
  "frontend": %s,
  "net": %s,
  "netfast": %s,
  "fibers": %s,
  "cluster": %s
}
|}
      cfg.Service.Traffic.requests workers effective
      (Domain.recommended_domain_count ())
      cfg.Service.Traffic.clients cfg.Service.Traffic.seed
      cfg.Service.Traffic.batch (throughput cold) best_plain best_traced
      (if best_plain > 0.0 then
         (best_plain -. best_traced) /. best_plain *. 100.0
       else 0.0)
      (phase_json cold_phases) (phase_json warm_phases)
      warm.Service.Traffic.s_cached stats.Service.Stats.cache_hit_rate
      stats.Service.Stats.p50_latency_ms stats.Service.Stats.p95_latency_ms
      stats.Service.Stats.wall_s
      (cold.Service.Traffic.s_failed + warm.Service.Traffic.s_failed)
      (cold.Service.Traffic.s_timeout + warm.Service.Traffic.s_timeout)
      (cold.Service.Traffic.s_cancelled + warm.Service.Traffic.s_cancelled)
      (throughput chaos)
      (chaos.Service.Traffic.s_fresh + chaos.Service.Traffic.s_cached
     + chaos.Service.Traffic.s_failed + chaos.Service.Traffic.s_timeout
     + chaos.Service.Traffic.s_cancelled)
      chaos_stats.Service.Stats.rung_full
      chaos_stats.Service.Stats.rung_conservative
      chaos_stats.Service.Stats.rung_passthrough
      chaos_stats.Service.Stats.retries chaos_stats.Service.Stats.respawns
      chaos_stats.Service.Stats.degraded
      chaos_stats.Service.Stats.corrupt_dropped
      chaos_stats.Service.Stats.faults_injected memo_json codegen_json
      frontend_json net_json netfast_json fibers_json cluster_json
  in
  let oc = open_out "BENCH_service.json" in
  output_string oc json;
  close_out oc;
  print_endline "wrote BENCH_service.json"

(* CI perf gate: compare the warm-path throughput recorded in
   BENCH_service.json against the checked-in floor in
   bench/perf_floor.json and fail on a >30% regression.  No JSON
   library in the toolchain, and none is needed: both files are flat
   enough that scanning for ["key": <number>] is exact. *)
let json_float_field path key =
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let needle = Printf.sprintf "\"%s\"" key in
  let nl = String.length needle and sl = String.length s in
  let rec find i =
    if i + nl > sl then None
    else if String.sub s i nl = needle then Some (i + nl)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
      let i = ref start in
      while !i < sl && (s.[!i] = ':' || s.[!i] = ' ') do incr i done;
      let j = ref !i in
      while
        !j < sl
        && match s.[!j] with
           | '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' -> true
           | _ -> false
      do
        incr j
      done;
      float_of_string_opt (String.sub s !i (!j - !i))

let checkfloor () =
  let bench_file = "BENCH_service.json" in
  let floor_file = "bench/perf_floor.json" in
  let get path key =
    match json_float_field path key with
    | Some v -> v
    | None ->
        Printf.eprintf "checkfloor: no numeric field %S in %s\n" key path;
        exit 2
  in
  let gate key =
    let measured = get bench_file key in
    let floor = get floor_file key in
    let limit = floor *. 0.7 in
    let ok = measured >= limit in
    Printf.printf "perf gate: %-32s measured %10.2f  floor %10.2f  fail \
                   below %10.2f  -> %s\n"
      key measured floor limit
      (if ok then "ok" else "REGRESSION");
    ok
  in
  let ok =
    List.for_all gate
      [
        "warm_throughput_jobs_per_s";
        "cold_throughput_jobs_per_s";
        "codegen_cedar_emits_per_s";
        "codegen_openmp_emits_per_s";
        "frontend_parses_per_s";
        "frontend_lift_reparses_per_s";
      ]
  in
  if not ok then exit 1

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | [] | [ "all" ] ->
      Experiments.print_all ();
      Experiments.print_ablation ();
      Experiments.print_synthetic ();
      micro ()
  | [ "table1" ] -> Experiments.print_table1 ()
  | [ "table2" ] -> Experiments.print_table2 ()
  | [ "fig6" ] -> Experiments.print_fig6 ()
  | [ "fig7" ] -> Experiments.print_fig7 ()
  | [ "fig8" ] -> Experiments.print_fig8 ()
  | [ "fig9" ] -> Experiments.print_fig9 ()
  | [ "qcd" ] -> Experiments.print_qcd_note ()
  | [ "ablation" ] -> Experiments.print_ablation ()
  | [ "synthetic" ] -> Experiments.print_synthetic ()
  | [ "micro" ] -> micro ()
  | [ "service" ] -> service_bench ()
  | [ "memo" ] -> print_endline (memo_pass ())
  | [ "codegen" ] -> print_endline (codegen_pass ())
  | [ "frontend" ] -> print_endline (frontend_pass ())
  | [ "netfast" ] -> print_endline (netfast_pass ())
  | [ "fibers" ] -> print_endline (fibers_pass ())
  | [ "cluster" ] -> print_endline (cluster_pass ())
  | [ "checkfloor" ] -> checkfloor ()
  | _ ->
      prerr_endline
        "usage: main.exe \
         [all|table1|table2|fig6|fig7|fig8|fig9|qcd|ablation|synthetic|micro|service|memo|codegen|frontend|netfast|fibers|cluster|checkfloor]";
      exit 2
