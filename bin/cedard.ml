(* cedard — the Cedar restructuring service, driven by its built-in
   closed-loop traffic generator.

   Starts a Server with --workers domains, replays --requests jobs drawn
   from the workloads corpus by a seeded RNG (--seed, --clients
   outstanding at a time), then replays request #0 once more to
   demonstrate the content-addressed cache short-circuit, and prints the
   stats summary, rendered from the metrics dump, on shutdown.  Exit
   status 1 if any job failed, timed out, or was cancelled. *)

open Cmdliner

(* --validate acceptance sweep: restructure the whole corpus under both
   technique sets with the validator on, then hold the shipped output to
   the paper's standard — the independent static checker must accept the
   emitted text for the requested target (OpenMP output is lifted back
   to Cedar dialect first, so the same parser and race checks apply to
   the directives actually shipped), and an instrumented interpreter run
   must observe zero data races.  The dynamic check runs on the
   restructured AST, which is target-neutral. *)
let sweep_validate verbose target =
  let corpus = Service.Traffic.corpus () in
  let static_rej = ref 0 and dynamic_races = ref 0 and runs = ref 0 in
  List.iter
    (fun w ->
      let n = w.Workloads.Workload.small_size in
      let prog =
        Fortran.Parser.parse_program (w.Workloads.Workload.source n)
      in
      List.iter
        (fun (tlabel, opts) ->
          let opts =
            { opts with Restructurer.Options.validate = true; target }
          in
          let result = Restructurer.Driver.restructure opts prog in
          incr runs;
          let tag =
            Printf.sprintf "%s/n%d/%s" w.Workloads.Workload.name n tlabel
          in
          (match
             Validate.reverify_target ~target
               result.Restructurer.Driver.program
           with
          | Ok [] ->
              if verbose then Printf.printf "  %-28s static ok\n" tag
          | Ok issues ->
              static_rej := !static_rej + List.length issues;
              List.iter
                (fun i ->
                  Printf.printf "  %-28s STATIC %s\n" tag
                    (Validate.issue_to_string i))
                issues
          | Error msg ->
              incr static_rej;
              Printf.printf "  %-28s STATIC emitted text does not reparse: %s\n"
                tag msg);
          let races, _out =
            Validate.check_dynamic
              ~cfg:opts.Restructurer.Options.machine
              result.Restructurer.Driver.program
          in
          dynamic_races := !dynamic_races + List.length races;
          List.iter
            (fun r ->
              Printf.printf "  %-28s RACE %s\n" tag
                (Interp.Race.issue_to_string r))
            races)
        [
          ("auto", Restructurer.Options.auto_1991 Machine.Config.cedar_config1);
          ("adv", Restructurer.Options.advanced Machine.Config.cedar_config1);
        ])
    corpus;
  Printf.printf
    "validate sweep (%s): %d restructured programs, %d static rejections, %d dynamic races\n%!"
    (Codegen.Target.to_string target)
    !runs !static_rej !dynamic_races;
  !static_rej = 0 && !dynamic_races = 0

(* --serve mode: put the pool on the network behind the cedarnet
   front-end and run until a Shutdown frame or SIGINT/SIGTERM arrives.
   Both stop paths converge on the same deterministic drain: stop
   accepting, reject new work, finish in-flight replies, join the
   event-loop thread, then Service.Server.shutdown flushes stats. *)
let serve server fault ?on_cluster_change ~host ~port ~max_conns
    ~max_inflight ~max_source_bytes ~net_timeout_s ~metrics_port ~metrics ()
    =
  let net_cfg =
    {
      Net.Server.host;
      port;
      max_conns;
      max_inflight;
      max_source_bytes;
      read_timeout_s = net_timeout_s;
      write_timeout_s = net_timeout_s;
    }
  in
  (* a fiber front-end is only bounded by descriptors; take the hard
     limit before accepting *)
  ignore (Aio.raise_fd_limit ());
  let net = Net.Server.create ~fault ?on_cluster_change net_cfg server in
  Option.iter
    (fun p ->
      Printf.printf "cedard: metrics on http://%s:%d/metrics\n%!" host
        (Net.Metrics_http.start ~host ~port:p net (fun () ->
             Obs.Metrics.dump Obs.Metrics.global)))
    metrics_port;
  (* signal-safe: request_stop only flips an atomic flag *)
  let on_signal _ = Net.Server.request_stop net in
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Printf.printf
    "cedard: serving on %s:%d (max %d connections, %d in flight, source \
     cap %d bytes)\n%!"
    host (Net.Server.port net) max_conns max_inflight max_source_bytes;
  Net.Server.wait_stop net;
  Printf.printf "cedard: draining...\n%!";
  Net.Server.drain net;
  ignore (Service.Server.shutdown server);
  Printf.printf
    "cedard: served %d connection(s), in-flight high water %d, shed %d\n"
    (Net.Server.connections_seen net)
    (Net.Server.inflight_high_water net)
    (Net.Server.shed_total net);
  print_endline "--- service stats ---";
  print_endline (Service.Stats.render (Obs.Metrics.dump Obs.Metrics.global));
  if metrics then begin
    print_endline "--- metrics ---";
    print_string (Obs.Metrics.dump Obs.Metrics.global)
  end;
  if Service.Fault.active fault then begin
    print_endline "--- fault log ---";
    print_endline (Service.Fault.log_to_string fault)
  end;
  0

let run workers cache_size memo_capacity timeout_ms requests clients seed
    jitter batch oversubscribe validate target chaos chaos_seed chaos_stealth
    chaos_delay_ms
    trace_file metrics serve_port host max_conns max_inflight
    max_source_bytes net_timeout_s metrics_port shard_id cluster_spec
    vnodes replicas verbose =
  let tracer =
    match trace_file with
    | None -> None
    | Some path ->
        let tr = Obs.Trace.chrome ~path in
        Obs.Trace.install tr;
        Some tr
  in
  let fault =
    match chaos with
    | None -> Ok Service.Fault.none
    | Some spec -> (
        match Service.Fault.parse_spec spec with
        | Error msg -> Error msg
        | Ok sites ->
            Ok
              (Service.Fault.create ~seed:chaos_seed ~stealth:chaos_stealth
                 ~delay_ms:chaos_delay_ms sites))
  in
  match fault with
  | Error msg ->
      Printf.eprintf "cedard: bad --chaos spec: %s\n" msg;
      2
  | Ok fault ->
  let chaotic = Service.Fault.active fault in
  let cluster =
    match cluster_spec with
    | None -> Ok None
    | Some spec -> Result.map Option.some (Cluster.Membership.parse_shards spec)
  in
  match cluster with
  | Error msg ->
      Printf.eprintf "cedard: bad --cluster spec: %s\n" msg;
      2
  | Ok peers ->
  (* warm-cache replication: only meaningful with a shard identity and
     at least one peer to push to *)
  let replicator =
    match peers with
    | Some peers when shard_id <> "" && List.length peers > 1 ->
        Some
          (Cluster.Replicator.create ~vnodes ~replicas ~self:shard_id ~peers
             ())
    | _ -> None
  in
  let on_cache_fill =
    Option.map
      (fun r ~key ~digest payload ->
        Cluster.Replicator.push r ~key ~digest payload)
      replicator
  in
  let server =
    Service.Server.create ~workers ~cache_capacity:cache_size ~memo_capacity
      ~timeout_ms ~oversubscribe ~fault ~max_source_bytes ~shard_id
      ?on_cache_fill ()
  in
  (* topology plumbing: re-replication on membership changes pulls the
     resident cache back through the replicator *)
  (match replicator with
  | None -> ()
  | Some r ->
      Cluster.Replicator.set_export r (fun () ->
          Service.Server.export_cache server);
      Cluster.Replicator.set_gc r (fun ~keep ->
          Service.Server.gc_replicas server ~keep));
  (* the shard's member view lives in its replicator, mutated by the
     Cluster_add/Cluster_remove frames the proxy broadcasts after an
     applied topology change *)
  let on_cluster_change = Option.map Cluster.Replicator.apply_change replicator in
  let stop_replicator () =
    match replicator with
    | None -> ()
    | Some r ->
        Cluster.Replicator.stop r;
        let c = Cluster.Replicator.counts r in
        Printf.printf
          "cedard: replication pushed %d (admitted %d, rejected %d), \
           dropped %d, skipped-down %d, transport errors %d\n"
          c.Cluster.Replicator.pushed c.Cluster.Replicator.admitted
          c.Cluster.Replicator.rejected c.Cluster.Replicator.dropped
          c.Cluster.Replicator.skipped_down c.Cluster.Replicator.errors
  in
  match serve_port with
  | Some port ->
      if shard_id <> "" then
        Printf.printf
          "cedard: shard %s in a %d-shard cluster (replicas %d)\n%!" shard_id
          (match peers with Some p -> List.length p | None -> 1)
          (match replicator with
          | Some r -> Cluster.Replicator.replicas r
          | None -> 1);
      let code =
        serve server fault ?on_cluster_change ~host ~port ~max_conns
          ~max_inflight ~max_source_bytes ~net_timeout_s ~metrics_port
          ~metrics ()
      in
      stop_replicator ();
      (match (tracer, trace_file) with
      | Some tr, Some path ->
          Obs.Trace.flush tr;
          Printf.printf "trace: wrote %s\n" path
      | _ -> ());
      code
  | None ->
  let cfg =
    {
      Service.Traffic.requests;
      clients = max 1 clients;
      seed;
      size_jitter = max 0 jitter;
      batch = max 1 batch;
      validate;
      target;
    }
  in
  Printf.printf
    "cedard: %d workers, cache %d, timeout %s, %d requests (%d clients, seed %d, batch %d%s)\n%!"
    workers cache_size
    (if timeout_ms > 0.0 then Printf.sprintf "%.0f ms" timeout_ms else "none")
    requests cfg.Service.Traffic.clients seed cfg.Service.Traffic.batch
    ((if validate then ", validated" else "")
    ^ (if target <> Codegen.Target.Cedar then
         Printf.sprintf ", target %s" (Codegen.Target.to_string target)
       else "")
    ^
    if chaotic then
      Printf.sprintf ", chaos seed %d%s" chaos_seed
        (if chaos_stealth then " stealth" else "")
    else "");
  let effective = Service.Server.effective_workers server in
  if effective <> workers then
    Printf.printf
      "note: pool capped at %d worker(s) — host has %d available core(s); \
       pass --oversubscribe to force %d domains\n%!"
      effective
      (Domain.recommended_domain_count ())
      workers;
  let summary = Service.Traffic.run server cfg in
  print_endline (Service.Traffic.summary_to_string summary);
  (* replay the first request verbatim: it must come back from the cache
     without re-running the restructurer *)
  let replay_ok =
    if requests > 0 && cache_size > 0 then begin
      let req =
        Service.Traffic.nth_request ~validate ~target ~seed
          ~size_jitter:cfg.Service.Traffic.size_jitter
          ~batch:cfg.Service.Traffic.batch 0
      in
      match Service.Server.run server req with
      | Service.Server.Done { cached = true; payload } ->
          if verbose then
            Printf.printf "replay %s: served from cache (%d loop reports%s)\n"
              req.Service.Server.req_name
              (List.length payload.Service.Server.p_reports)
              (match payload.Service.Server.p_cycles with
              | Some c -> Printf.sprintf ", %.3g estimated cycles" c
              | None -> "");
          true
      | Service.Server.Done { cached = false; _ } ->
          (* only wrong if the entry should still be resident; under
             chaos the entry may have been corrupted and dropped, or the
             original may never have completed at the full rung *)
          Printf.printf "replay: re-ran the restructurer (entry evicted?)\n";
          chaotic || requests > cache_size
      | _ ->
          print_endline "replay: request did not complete";
          chaotic
    end
    else true
  in
  ignore (Service.Server.shutdown server);
  stop_replicator ();
  print_endline "--- service stats ---";
  print_endline (Service.Stats.render (Obs.Metrics.dump Obs.Metrics.global));
  (match tracer with
  | Some tr ->
      Obs.Trace.flush tr;
      (match trace_file with
      | Some path ->
          Printf.printf
            "trace: wrote %s (load in chrome://tracing or ui.perfetto.dev)\n"
            path
      | None -> ())
  | None -> ());
  if metrics then begin
    print_endline "--- metrics ---";
    print_string (Obs.Metrics.dump Obs.Metrics.global)
  end;
  if chaotic then begin
    print_endline "--- fault log ---";
    print_endline (Service.Fault.log_to_string fault)
  end;
  let sweep_ok =
    if not validate then true
    else begin
      print_endline "--- validate sweep (full corpus, both technique sets) ---";
      sweep_validate verbose target
    end
  in
  (* under chaos, individual failures and timeouts are the point; the
     survival criterion is that every submitted job resolved and the
     pool stayed alive to the end *)
  let resolved =
    summary.Service.Traffic.s_fresh + summary.Service.Traffic.s_cached
    + summary.Service.Traffic.s_failed + summary.Service.Traffic.s_timeout
    + summary.Service.Traffic.s_cancelled
  in
  let clean =
    if chaotic then
      resolved = summary.Service.Traffic.s_requests && replay_ok && sweep_ok
    else
      summary.Service.Traffic.s_failed = 0
      && summary.Service.Traffic.s_timeout = 0
      && summary.Service.Traffic.s_cancelled = 0
      && replay_ok && sweep_ok
  in
  if clean then 0 else 1

let workers_arg =
  Arg.(
    value & opt int 4
    & info [ "w"; "workers" ] ~docv:"N" ~doc:"worker domains in the pool")

let cache_arg =
  Arg.(
    value & opt int 256
    & info [ "cache-size" ] ~docv:"N"
        ~doc:"result-cache capacity in entries (0 disables caching)")

let memo_capacity_arg =
  Arg.(
    value & opt int 1024
    & info [ "memo-capacity" ] ~docv:"N"
        ~doc:
          "nest-level restructurer memo capacity in nests, shared across \
           workers (0 disables memoization; replays stay byte-identical \
           either way)")

let timeout_arg =
  Arg.(
    value & opt float 0.0
    & info [ "timeout-ms" ] ~docv:"MS"
        ~doc:"per-job wall-clock deadline in milliseconds (0 = none)")

let requests_arg =
  Arg.(
    value & opt int 200
    & info [ "n"; "requests" ] ~docv:"N" ~doc:"jobs the traffic generator issues")

let clients_arg =
  Arg.(
    value & opt int 8
    & info [ "c"; "clients" ] ~docv:"N"
        ~doc:"closed-loop clients (outstanding jobs kept in flight)")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"traffic RNG seed")

let jitter_arg =
  Arg.(
    value & opt int 4
    & info [ "size-jitter" ] ~docv:"J"
        ~doc:"problem-size spread per workload (0 maximizes cache hits)")

let batch_arg =
  Arg.(
    value & opt int 4
    & info [ "batch" ] ~docv:"K"
        ~doc:"corpus sources concatenated per request (compile-job size)")

let oversubscribe_arg =
  Arg.(
    value & flag
    & info [ "oversubscribe" ]
        ~doc:"spawn more worker domains than the host has cores")

let validate_arg =
  Arg.(
    value & flag
    & info [ "validate" ]
        ~doc:
          "re-verify every job's emitted code with the independent static \
           checker (unverified output is never cached or returned), then \
           sweep the whole corpus under both technique sets and fail unless \
           the shipped output has zero static rejections and zero dynamic \
           races")

let target_conv =
  let parse s =
    match Codegen.Target.of_string s with
    | Some t -> Ok t
    | None -> Error (`Msg (Printf.sprintf "unknown target %S (cedar|openmp)" s))
  in
  let print ppf t = Format.pp_print_string ppf (Codegen.Target.to_string t) in
  Arg.conv (parse, print)

let target_arg =
  Arg.(
    value
    & opt target_conv Codegen.Target.Cedar
    & info [ "target" ] ~docv:"TARGET"
        ~doc:
          "codegen target for every generated job: $(b,cedar) emits the \
           classic Cedar Fortran dialect, $(b,openmp) lowers the same \
           loop annotations to standard Fortran with OpenMP directives; \
           with --validate, the sweep re-checks the emitted text for \
           this target")

let chaos_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "chaos" ] ~docv:"SPEC"
        ~doc:
          "inject faults: comma-separated site=prob with sites raise, \
           delay, kill, corrupt, reject, accept-drop, read-stall, \
           trunc-write, garbage-frame, or the groups all (service sites) \
           and net (wire sites) — e.g. --chaos all=0.1 or --chaos \
           net=0.05,kill=0.05.  Under chaos the exit criterion becomes \
           survival: every job must resolve, but failures and timeouts \
           are expected")

let chaos_seed_arg =
  Arg.(
    value & opt int 42
    & info [ "chaos-seed" ] ~docv:"SEED"
        ~doc:"fault-schedule seed (same seed = same per-site schedule)")

let chaos_stealth_arg =
  Arg.(
    value & flag
    & info [ "chaos-stealth" ]
        ~doc:
          "suppress the chaos-taint marker so injected faults count \
           toward the circuit breaker like real ones")

let chaos_delay_arg =
  Arg.(
    value & opt float 5.0
    & info [ "chaos-delay-ms" ] ~docv:"MS"
        ~doc:"latency injected at the delay site")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "record a span trace of every job (queue wait, attempts per \
           rung, restructurer passes, validation, cache fills) and write \
           it to $(docv) in Chrome trace-event JSON on shutdown — open in \
           chrome://tracing or ui.perfetto.dev")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "print the process metrics registry (queue, cache, breaker, \
           degradation-rung, fault-injection, and dependence-test \
           counters) in Prometheus text format at shutdown")

let serve_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "serve" ] ~docv:"PORT"
        ~doc:
          "serve the cedarnet wire protocol on TCP $(docv) (0 picks an \
           ephemeral port) instead of running the built-in traffic \
           generator; runs until a Shutdown frame, SIGINT, or SIGTERM, \
           then drains gracefully")

let host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"bind address for --serve")

let max_conns_arg =
  Arg.(
    value & opt int 64
    & info [ "max-conns" ] ~docv:"N"
        ~doc:
          "accepted-connection budget; excess connections get one \
           Overloaded frame and are closed")

let max_inflight_arg =
  Arg.(
    value & opt int 256
    & info [ "max-inflight" ] ~docv:"N"
        ~doc:
          "outstanding-submit budget across all connections; excess \
           submits are answered Overloaded immediately")

let max_source_arg =
  Arg.(
    value
    & opt int (8 * 1024 * 1024)
    & info [ "max-source-bytes" ] ~docv:"N"
        ~doc:
          "reject submits whose source exceeds $(docv) bytes with a typed \
           TooLarge reply before any parsing (0 = unlimited); also caps \
           jobs submitted in process")

let net_timeout_arg =
  Arg.(
    value & opt float 30.0
    & info [ "net-timeout-s" ] ~docv:"S"
        ~doc:
          "per-request read and per-reply write deadline on each \
           connection (0 = none); a stalled sender is dropped, an idle \
           connection is not")

let metrics_port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "metrics-port" ] ~docv:"PORT"
        ~doc:
          "with --serve, also serve the Prometheus text dump over HTTP \
           on $(docv) (0 picks an ephemeral port)")

let shard_id_arg =
  Arg.(
    value & opt string ""
    & info [ "shard-id" ] ~docv:"ID"
        ~doc:
          "this server's identity inside a cedar-cluster; shows up in \
           stats and names this shard on the consistent-hash ring")

let cluster_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cluster" ] ~docv:"SPEC"
        ~doc:
          "the full static shard set as id=host:port,id=host:port,... \
           (this shard included).  With --shard-id, enables warm-cache \
           replication: every fresh full-rung result is pushed to its \
           ring successor.  Every shard and the proxy must be given the \
           same list and --vnodes")

let vnodes_arg =
  Arg.(
    value & opt int 64
    & info [ "vnodes" ] ~docv:"V"
        ~doc:"virtual nodes per shard on the consistent-hash ring")

let replicas_arg =
  Arg.(
    value & opt int 2
    & info [ "replicas" ] ~docv:"R"
        ~doc:
          "total copies of each warm-cache entry across the cluster \
           (primary included): every fresh full-rung result is pushed to \
           the key's first R-1 distinct ring successors.  1 disables \
           replication")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"print extra detail")

let cmd =
  let doc = "serve fortran77-to-Cedar restructuring jobs on a domain pool" in
  Cmd.v
    (Cmd.info "cedard" ~doc)
    Term.(
      const run $ workers_arg $ cache_arg $ memo_capacity_arg $ timeout_arg
      $ requests_arg
      $ clients_arg $ seed_arg $ jitter_arg $ batch_arg $ oversubscribe_arg
      $ validate_arg $ target_arg $ chaos_arg $ chaos_seed_arg $ chaos_stealth_arg
      $ chaos_delay_arg $ trace_arg $ metrics_arg $ serve_arg $ host_arg
      $ max_conns_arg $ max_inflight_arg $ max_source_arg $ net_timeout_arg
      $ metrics_port_arg $ shard_id_arg $ cluster_arg $ vnodes_arg
      $ replicas_arg $ verbose_arg)

let () = exit (Cmd.eval' cmd)
