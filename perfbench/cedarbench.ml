(* The repository benchmark.

     cedarbench.exe --workload cold|rebatch|warm|proxy --seed N
                    --seconds S --trace 0|1 [--commit ID] [--out DIR]

   Sets the workload up five times (set-up time is the median), then
   drives the last stack with a seeded closed loop of one client for S
   seconds and checks every reply.  With [--trace 0] it prints the
   end-to-end metrics; with [--trace 1] it runs the traced passes of
   Layers instead and prints the per-layer metrics, writing its spans
   to DIR.  The last line of stdout is the result object; the line
   before it records the environment. *)

let setups = 5

(* One job in flight, one worker per service: on a shared host with a
   few vCPUs, more threads than that measure the scheduler and the
   neighbours, not the program. *)
let clients = 1

(* cold/rebatch: jobs of the quality prefix run on the interpreter *)
let oracle_jobs = 2

type outcome = Layers.outcome = {
  metrics : (string * float * string) list;
  attempted : int;
  failed : int;
}

(* The timed loop runs as consecutive blocks, with the host's slowdown
   (Calib) sampled before each block and after the last; a block's
   times are divided by the mean of the two samples around it, and each
   timing metric is the median of its per-block values, so neither a
   host running slower for minutes nor a burst of steal in one block
   moves the run's figure.  The bounded metrics are CPU time: on a
   shared host, wall time also carries how long the program waited for
   a vCPU, which spreads twice as far from run to run; wall figures go
   to the env line and stderr. *)
let blocks = 20

type block = {
  wall_jps : float;
  wall_p50 : float;
  wall_p95 : float;
  cpu_per_job : float;
  cpu_p50 : float;
  cpu_p95 : float;
  slow : float;
}

let untraced calib (st : Stack.t) ~seed ~seconds ~setup_s =
  let q = Array.length st.prefix in
  let reqs = Array.make q None and kept = Array.make q None in
  let src = Stack.source st ~seed in
  let keep slot p = if slot < q then kept.(slot) <- Some p in
  let slows = Array.make (blocks + 1) nan in
  (* one client, so one job at a time: the process's CPU time across a
     job is that job's, on every thread of the stack *)
  let block b =
    let next =
      Load.timed ~seconds:(seconds /. float_of_int blocks)
        ~min_jobs:(if b = 0 then q else 0)
        (fun _ ->
          let ((slot, req) as job) = src () in
          if slot < q then reqs.(slot) <- Some req;
          job)
    in
    let cpus = ref [] in
    let call c job =
      let c0 = Env.cpu_s () in
      let ok = Stack.send ~keep st c job in
      cpus := (Env.cpu_s () -. c0) :: !cpus;
      ok
    in
    slows.(b) <- Calib.slowdown calib;
    let cpu0 = Env.cpu_s () in
    let r = Load.run ~clients:st.clients ~next ~call in
    (r, Env.cpu_s () -. cpu0, Bstats.sorted !cpus)
  in
  let runs = List.init blocks block in
  slows.(blocks) <- Calib.slowdown calib;
  let figures =
    List.mapi
      (fun b ((r : Load.result), cpu, cpus) ->
        { wall_jps = float_of_int r.jobs /. r.wall_s;
          wall_p50 = 1e3 *. Bstats.percentile 50.0 r.lats;
          wall_p95 = 1e3 *. Bstats.percentile 95.0 r.lats;
          cpu_per_job = 1e3 *. cpu /. float_of_int r.jobs;
          cpu_p50 = 1e3 *. Bstats.percentile 50.0 cpus;
          cpu_p95 = 1e3 *. Bstats.percentile 95.0 cpus;
          slow = (slows.(b) +. slows.(b + 1)) /. 2.0 })
      runs
  in
  let med f = Bstats.median (List.map f figures) in
  let scaled f = med (fun b -> f b /. b.slow) in
  (* per-block figures on stderr, to tell drift from a regression *)
  List.iter
    (fun b ->
      Printf.eprintf
        "block: %.1f jobs/s, p50 %.4f ms, p95 %.4f ms, cpu %.4f ms/job (p50 %.4f, p95 %.4f), slowdown %.3f\n"
        b.wall_jps b.wall_p50 b.wall_p95 b.cpu_per_job b.cpu_p50 b.cpu_p95 b.slow)
    figures;
  let wall =
    [ ("jobs_per_s", med (fun b -> b.wall_jps *. b.slow));
      ("latency_p50_ms", scaled (fun b -> b.wall_p50));
      ("latency_p95_ms", scaled (fun b -> b.wall_p95));
      ("unscaled_jobs_per_s", med (fun b -> b.wall_jps));
      ("unscaled_cpu_ms_per_job", med (fun b -> b.cpu_per_job));
      ("slowdown", med (fun b -> b.slow)) ]
  in
  let rss = Env.peak_rss_mb () in
  let jobs = List.fold_left (fun a (r, _, _) -> a + r.Load.jobs) 0 runs in
  (* output quality, outside the timed loop *)
  let quality =
    match st.kind with
    | Cold | Rebatch -> Array.to_list (Array.map2 (fun r p -> (r, p)) reqs kept)
    | Warm | Proxy ->
        Array.to_list (Array.map2 (fun r p -> (Some r, p)) st.resident_req st.resident_pay)
  in
  let speedups, unmodelled =
    List.fold_left
      (fun (ok, bad) -> function
        | Some r, Some p -> (
            match Check.speedup r p with Some s -> (s :: ok, bad) | None -> (ok, bad + 1))
        | _ -> (ok, bad + 1))
      ([], 0) quality
  in
  let oracle_checked, oracle_bad =
    if q = 0 then (0, 0)
    else
      let rng = Random.State.make [| seed; 0x0c1e |] in
      List.init oracle_jobs (fun _ -> Random.State.int rng q)
      |> List.sort_uniq compare
      |> List.fold_left
           (fun (n, bad) i ->
             match (reqs.(i), kept.(i)) with
             | Some r, Some p ->
                 let n', bad' = Check.equivalent r p in
                 (n + n', bad + bad')
             | _ -> (n + 1, bad + 1))
           (0, 0)
  in
  let failovers = Option.fold ~none:0 ~some:Cluster.Proxy.failover_total st.proxy in
  ( {
      metrics =
        [ ("cpu_ms_per_job", scaled (fun b -> b.cpu_per_job), "ms");
          ("job_cpu_p50_ms", scaled (fun b -> b.cpu_p50), "ms");
          ("job_cpu_p95_ms", scaled (fun b -> b.cpu_p95), "ms");
          ("peak_rss_mb", rss, "MB");
          ("setup_s", setup_s, "s");
          ("speedup_geomean", Bstats.geomean speedups, "x") ];
      attempted = jobs + List.length quality + oracle_checked;
      failed =
        List.fold_left (fun a (r, _, _) -> a + r.Load.failed) 0 runs + unmodelled + oracle_bad
        + failovers;
    },
    wall )

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let commit = ref "unknown" and out = ref "perfbench/out" in
  let usage = "cedarbench.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "cold | rebatch | warm | proxy");
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_float seconds, "S  length of the timed loop");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics");
      ("--commit", Arg.Set_string commit, "ID  source revision, recorded with the run");
      ("--out", Arg.Set_string out, "DIR  where the traced run writes its spans") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let kind =
    match List.assoc_opt !workload Stack.kinds with
    | Some k -> k
    | None ->
        prerr_endline ("unknown workload " ^ !workload ^ "\n" ^ usage);
        exit 2
  in
  let steal0 = Env.steal_ticks () in
  let calib = Calib.start () in
  at_exit (fun () -> Calib.stop calib);
  (* set up [setups] times, each in a fresh process and timed with the
     host's slowdown just before it: the first ones in child processes,
     the last here, where its stack serves the run, so the run's memory
     holds one set-up and not the garbage of all of them *)
  let timed_setup () =
    let slow = Calib.slowdown calib in
    let t0 = Unix.gettimeofday () in
    let st = Stack.setup kind ~seed:!seed ~clients in
    (st, Unix.gettimeofday () -. t0, slow)
  in
  let in_child () =
    let r, w = Unix.pipe ~cloexec:true () in
    match Unix.fork () with
    | 0 ->
        Unix.close r;
        let code =
          try
            let st, dt, slow = timed_setup () in
            let line = Printf.sprintf "%.17g %.17g %d\n" dt slow st.Stack.setup_failed in
            ignore (Unix.write_substring w line 0 (String.length line));
            0
          with _ -> 1
        in
        Unix._exit code
    | pid ->
        Unix.close w;
        let ic = Unix.in_channel_of_descr r in
        let line = In_channel.input_line ic in
        close_in ic;
        let ok = snd (Unix.waitpid [] pid) = Unix.WEXITED 0 in
        (match line with
        | Some l when ok -> Scanf.sscanf l "%f %f %d" (fun dt slow failed -> (dt, slow, failed))
        | _ -> (nan, nan, 1))
  in
  let children = List.init (setups - 1) (fun _ -> in_child ()) in
  let st, dt, slow = timed_setup () in
  let times = List.map (fun (dt, slow, _) -> (dt, slow)) children @ [ (dt, slow) ] in
  let setup_failed =
    List.fold_left (fun a (_, _, f) -> a + f) st.Stack.setup_failed children
  in
  let env ?(wall = []) steal =
    Json.obj
      ([ ("workload", Json.str !workload); ("seed", string_of_int !seed);
         ("seconds", Json.num !seconds); ("trace", string_of_int !trace);
         ("nproc", string_of_int (Env.nproc ())); ("clients", string_of_int clients);
         ("steal_ticks", string_of_int steal); ("ocaml", Json.str Sys.ocaml_version);
         ("commit", Json.str !commit);
         ("setup_s_each", Json.arr (List.map (fun (t, _) -> Json.num t) times));
         ("setup_slowdown_each", Json.arr (List.map (fun (_, s) -> Json.num s) times)) ]
      @ List.map (fun (k, v) -> (k, Json.num v)) wall)
  in
  let o, wall =
    if !trace = 1 then begin
      (try Sys.mkdir !out 0o755 with Sys_error _ -> ());
      let trace_path = Filename.concat !out (Printf.sprintf "trace-%s.json" !workload) in
      ( Layers.run st ~seed:!seed ~seconds:!seconds ~trace_path
          ~env:(env (Env.steal_ticks () - steal0)),
        [] )
    end
    else
      untraced calib st ~seed:!seed ~seconds:!seconds
        ~setup_s:(Bstats.median (List.map (fun (t, s) -> t /. s) times))
  in
  Stack.teardown st;
  let unmeasured = List.length (List.filter (fun (_, v, _) -> not (Float.is_finite v)) o.metrics) in
  let failed = o.failed + setup_failed + unmeasured in
  print_endline (Json.obj [ ("env", env ~wall (Env.steal_ticks () - steal0)) ]);
  print_endline
    (Json.obj
       [ ("correct", string_of_bool (failed = 0));
         ("attempted", string_of_int (max 1 o.attempted)); ("failed", string_of_int failed);
         ("metrics",
           Json.obj
             (List.map
                (fun (n, v, u) ->
                  (n, Json.obj [ ("value", Json.num (if Float.is_finite v then v else 0.0));
                                 ("unit", Json.str u) ]))
                o.metrics)) ])
