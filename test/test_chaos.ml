(* Chaos suite: the fault injector and everything that must survive it —
   the exception barrier, the dying worker's own respawn/requeue path,
   wedge detection, the degradation ladder, the circuit breaker, and the
   checksummed cache.

   Single-worker servers make the fault schedule fully deterministic
   (one domain consumes every draw in submission order); the corpus
   survival test at the end runs multi-domain on purpose. *)

open Service

let opts_for machine = Restructurer.Options.advanced machine
let cedar = Machine.Config.cedar_config1

let request i =
  Traffic.nth_request ~seed:123 ~size_jitter:0 ~batch:1 i

let outcome_name = function
  | Server.Done { payload; cached } ->
      Printf.sprintf "Done(%s%s)"
        (Server.rung_name payload.Server.p_rung)
        (if cached then ",cached" else "")
  | Server.Failed m -> "Failed " ^ m
  | Server.Timeout -> "Timeout"
  | Server.Cancelled -> "Cancelled"

let direct_serial_text req =
  let prog = Fortran.Parser.parse_program req.Server.req_source in
  Fortran.Printer.program_to_string prog

(* ------------------------------------------------------------------ *)
(* The injector itself                                                 *)
(* ------------------------------------------------------------------ *)

let test_spec_parsing () =
  (match Fault.parse_spec "all=0.1" with
  | Ok sites ->
      Alcotest.(check int) "all expands to the in-process sites"
        (List.length Fault.service_sites)
        (List.length sites)
  | Error m -> Alcotest.failf "all=0.1 rejected: %s" m);
  (match Fault.parse_spec "net=0.1" with
  | Ok sites ->
      Alcotest.(check int) "net expands to the wire sites"
        (List.length Fault.net_sites)
        (List.length sites)
  | Error m -> Alcotest.failf "net=0.1 rejected: %s" m);
  (match Fault.parse_spec "raise=0.5,kill=0.25" with
  | Ok [ (Fault.Exec_raise, p1); (Fault.Worker_kill, p2) ] ->
      Alcotest.(check (float 1e-9)) "raise prob" 0.5 p1;
      Alcotest.(check (float 1e-9)) "kill prob" 0.25 p2
  | Ok _ -> Alcotest.fail "wrong sites parsed"
  | Error m -> Alcotest.failf "spec rejected: %s" m);
  (match Fault.parse_spec "bogus=0.1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown site accepted");
  (match Fault.parse_spec "raise=1.5" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "probability > 1 accepted");
  match Fault.parse_spec "raise" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing probability accepted"

let test_schedule_deterministic () =
  (* same seed, same per-site draw sequence — independent of the order
     sites are interleaved in *)
  let mk () = Fault.create ~seed:9 [ (Fault.Exec_raise, 0.3); (Fault.Worker_kill, 0.3) ] in
  let a = mk () and b = mk () in
  let seq_a = List.init 50 (fun _ -> Fault.fire a Fault.Exec_raise) in
  (* interleave another site's draws in b: raise's schedule must not move *)
  let seq_b =
    List.init 50 (fun _ ->
        ignore (Fault.fire b Fault.Worker_kill);
        Fault.fire b Fault.Exec_raise)
  in
  Alcotest.(check (list bool)) "same raise schedule" seq_a seq_b;
  Alcotest.(check bool) "some fired" true (List.exists Fun.id seq_a);
  Alcotest.(check bool) "some spared" true (List.exists not seq_a)

let test_server_runs_reproducible () =
  (* two identical single-worker chaos runs: identical fault logs and
     identical per-job outcomes *)
  let run_once () =
    let fault = Fault.create ~seed:77 (List.map (fun s -> (s, 0.2)) Fault.all_sites) in
    let server =
      Server.create ~workers:1 ~cache_capacity:16 ~timeout_ms:30_000.0 ~fault ()
    in
    let outcomes =
      List.init 12 (fun i -> outcome_name (Server.run server (request i)))
    in
    ignore (Server.shutdown server);
    (outcomes, Fault.log fault)
  in
  let o1, l1 = run_once () in
  let o2, l2 = run_once () in
  Alcotest.(check (list string)) "same outcomes" o1 o2;
  List.iter2
    (fun (s1, d1, f1) (s2, d2, f2) ->
      Alcotest.(check string) "site" (Fault.site_name s1) (Fault.site_name s2);
      Alcotest.(check int) "draws" d1 d2;
      Alcotest.(check int) "fired" f1 f2)
    l1 l2

let test_traffic_replay_deterministic () =
  (* the full end-to-end loop — seeded traffic generator driving a
     chaotic single-worker pool — replayed twice: the rendered fault log
     must be byte-identical and every per-rung job count must match *)
  let cfg =
    {
      Traffic.requests = 40;
      clients = 4;
      seed = 2024;
      size_jitter = 0;
      batch = 1;
      validate = false;
      target = Codegen.Target.Cedar;
    }
  in
  let run_pass () =
    let fault =
      Fault.create ~seed:7 (List.map (fun s -> (s, 0.15)) Fault.all_sites)
    in
    let server =
      Server.create ~workers:1 ~cache_capacity:32 ~timeout_ms:30_000.0 ~fault
        ()
    in
    let summary = Traffic.run server cfg in
    ignore (Server.shutdown server);
    (summary, Fault.log_to_string fault)
  in
  let s1, log1 = run_pass () in
  let s2, log2 = run_pass () in
  Alcotest.(check string) "byte-identical fault logs" log1 log2;
  Alcotest.(check int) "same full-rung count" s1.Traffic.s_full
    s2.Traffic.s_full;
  Alcotest.(check int) "same conservative-rung count"
    s1.Traffic.s_conservative s2.Traffic.s_conservative;
  Alcotest.(check int) "same passthrough-rung count"
    s1.Traffic.s_passthrough s2.Traffic.s_passthrough;
  Alcotest.(check int) "same failure count" s1.Traffic.s_failed
    s2.Traffic.s_failed;
  Alcotest.(check int) "same cache-hit count" s1.Traffic.s_cached
    s2.Traffic.s_cached;
  Alcotest.(check bool) "the schedule actually injected" true
    (String.length log1 > 0)

let test_fault_metrics_track_ledger () =
  (* the injector's global metrics counters must advance exactly in step
     with its own per-site ledger *)
  let read name =
    match Obs.Metrics.find Obs.Metrics.global name with
    | `Counter n -> n
    | _ -> 0
  in
  let site_counter s =
    Printf.sprintf "service_fault_fired_%s_total"
      (String.map (function '-' -> '_' | c -> c) (Fault.site_name s))
  in
  let draws0 = read "service_fault_draws_total" in
  let fired0 = List.map (fun s -> read (site_counter s)) Fault.all_sites in
  let fault =
    Fault.create ~seed:3 (List.map (fun s -> (s, 0.5)) Fault.all_sites)
  in
  List.iter
    (fun s -> for _ = 1 to 40 do ignore (Fault.fire fault s) done)
    Fault.all_sites;
  let draws = read "service_fault_draws_total" - draws0 in
  Alcotest.(check int) "every draw counted"
    (List.fold_left (fun acc (_, d, _) -> acc + d) 0 (Fault.log fault))
    draws;
  List.iter2
    (fun s f0 ->
      let _, _, fired_ledger =
        List.find (fun (s', _, _) -> s' = s) (Fault.log fault)
      in
      Alcotest.(check int)
        (Fault.site_name s ^ " fired counter matches ledger")
        fired_ledger
        (read (site_counter s) - f0))
    Fault.all_sites fired0

(* ------------------------------------------------------------------ *)
(* One fault class at a time, at probability 1                         *)
(* ------------------------------------------------------------------ *)

let test_raise_always_lands_on_passthrough () =
  (* every restructure attempt raises: the ladder must deliver the
     serial passthrough, and the chaos taint must keep the breaker
     closed *)
  let fault = Fault.create [ (Fault.Exec_raise, 1.0) ] in
  let server = Server.create ~workers:1 ~cache_capacity:16 ~fault () in
  List.iter
    (fun i ->
      let req = request i in
      match Server.run server req with
      | Server.Done { payload; _ } ->
          Alcotest.(check string)
            (req.Server.req_name ^ " passthrough rung")
            "passthrough"
            (Server.rung_name payload.Server.p_rung);
          Alcotest.(check string)
            (req.Server.req_name ^ " serial text")
            (direct_serial_text req) payload.Server.p_text
      | o -> Alcotest.failf "expected Done, got %s" (outcome_name o))
    [ 0; 1; 2; 3; 4; 5; 6; 7 ];
  let stats = Server.shutdown server in
  Alcotest.(check int) "all passthrough" 8 stats.Stats.rung_passthrough;
  Alcotest.(check int) "breaker never opened (tainted failures)" 0
    stats.Stats.breaker_opened;
  Alcotest.(check string) "breaker closed" "closed" stats.Stats.breaker_state;
  Alcotest.(check bool) "retries counted" true (stats.Stats.retries >= 16)

let test_kill_respawns_pool () =
  (* every attempt kills its worker: each job is requeued once, dies
     again, and resolves Failed; each dying worker hands its slot to a
     fresh domain, and the pool must still serve once the fault is
     lifted *)
  let fault = Fault.create [ (Fault.Worker_kill, 1.0) ] in
  let server = Server.create ~workers:2 ~oversubscribe:true ~cache_capacity:16 ~fault () in
  let tickets = List.init 4 (fun i -> (i, Server.submit server (request i))) in
  List.iter
    (fun (i, t) ->
      match Server.await t with
      | Server.Failed m ->
          Alcotest.(check bool)
            (Printf.sprintf "job %d failed as worker death" i)
            true
            (String.length m > 0)
      | o -> Alcotest.failf "job %d: expected Failed, got %s" i (outcome_name o))
    tickets;
  (* heal the fault: the freshly respawned pool must serve normally *)
  Fault.set_prob fault Fault.Worker_kill 0.0;
  (match Server.run server (request 0) with
  | Server.Done { payload; _ } ->
      Alcotest.(check string) "healed pool serves full rung" "full"
        (Server.rung_name payload.Server.p_rung)
  | o -> Alcotest.failf "healed pool: %s" (outcome_name o));
  let stats = Server.shutdown server in
  Alcotest.(check bool)
    (Printf.sprintf "respawns (%d) cover every death" stats.Stats.respawns)
    true
    (stats.Stats.respawns >= 8);
  Alcotest.(check int) "every killed job resolved Failed" 4 stats.Stats.failed

let test_wedge_times_out_and_respawns () =
  (* the one job in flight sleeps far past its deadline without a
     heartbeat: the watchdog resolves it Timeout, once, and hands the
     slot to a fresh worker that serves the next job at the full rung;
     the orphan's late finish (joined by shutdown) resolves nothing *)
  let fault = Fault.create ~delay_ms:1000.0 [ (Fault.Exec_delay, 1.0) ] in
  let server =
    Server.create ~workers:1 ~cache_capacity:16 ~timeout_ms:200.0
      ~wedge_after_ms:20.0 ~fault ()
  in
  let stuck = Server.submit server (request 0) in
  let resolutions = Atomic.make 0 in
  Server.on_resolve stuck (fun _ -> Atomic.incr resolutions);
  (match Server.await stuck with
  | Server.Timeout -> ()
  | o -> Alcotest.failf "stuck job: expected Timeout, got %s" (outcome_name o));
  Fault.set_prob fault Fault.Exec_delay 0.0;
  (match Server.run server (request 1) with
  | Server.Done { payload; _ } ->
      Alcotest.(check string) "respawned slot serves full rung" "full"
        (Server.rung_name payload.Server.p_rung)
  | o -> Alcotest.failf "next job: %s" (outcome_name o));
  let stats = Server.shutdown server in
  Alcotest.(check int) "one respawn" 1 stats.Stats.respawns;
  Alcotest.(check int) "one timeout" 1 stats.Stats.timed_out;
  Alcotest.(check int) "only the next job completed" 1 stats.Stats.completed;
  Alcotest.(check int) "resolved once" 1 (Atomic.get resolutions);
  Alcotest.(check string) "still Timeout after the orphan finished" "Timeout"
    (outcome_name (Server.await stuck))

let test_pool_starts_only_its_workers () =
  (* a server runs one domain per worker and starts no thread, unless
     wedge detection is on, which adds one watchdog thread.  Domain and
     thread ids come from process-wide counters, so probes on either
     side of a server's life count what it started; shutdown joins every
     domain, so each has drawn its ids by then *)
  let domain_probe () =
    Domain.join (Domain.spawn (fun () -> (Domain.self () :> int)))
  in
  let thread_probe () =
    let th = Thread.create ignore () in
    Thread.join th;
    Thread.id th
  in
  (* thread ids one domain draws for its own threads *)
  let per_domain =
    let a = thread_probe () in
    ignore (domain_probe ());
    thread_probe () - a - 1
  in
  let started ~wedge_after_ms =
    let d0 = domain_probe () in
    let t0 = thread_probe () in
    ignore
      (Server.shutdown
         (Server.create ~workers:2 ~oversubscribe:true ~cache_capacity:4
            ~wedge_after_ms ()));
    let t1 = thread_probe () in
    let domains = domain_probe () - d0 - 1 in
    (domains, t1 - t0 - 1 - (domains * per_domain))
  in
  Alcotest.(check (pair int int)) "2 workers: 2 domains, no thread" (2, 0)
    (started ~wedge_after_ms:0.0);
  Alcotest.(check (pair int int)) "wedge detection adds one thread" (2, 1)
    (started ~wedge_after_ms:50.0)

let test_reject_falls_down_ladder () =
  (* the validator (spuriously) rejects every full/conservative result:
     jobs land on passthrough, which is exempt from validation *)
  let fault = Fault.create [ (Fault.Validator_reject, 1.0) ] in
  let server = Server.create ~workers:1 ~cache_capacity:16 ~fault () in
  (match Server.run server (request 0) with
  | Server.Done { payload; _ } ->
      Alcotest.(check string) "rung" "passthrough"
        (Server.rung_name payload.Server.p_rung)
  | o -> Alcotest.failf "expected Done, got %s" (outcome_name o));
  let stats = Server.shutdown server in
  Alcotest.(check int) "two rejections -> two retries" 2 stats.Stats.retries

let test_delay_only_slows () =
  let fault = Fault.create ~delay_ms:2.0 [ (Fault.Exec_delay, 1.0) ] in
  let server = Server.create ~workers:1 ~cache_capacity:16 ~fault () in
  (match Server.run server (request 0) with
  | Server.Done { payload; _ } ->
      Alcotest.(check string) "full rung despite delays" "full"
        (Server.rung_name payload.Server.p_rung)
  | o -> Alcotest.failf "expected Done, got %s" (outcome_name o));
  ignore (Server.shutdown server);
  Alcotest.(check bool) "delay fired" true (Fault.total_fired fault >= 1)

let test_cache_corruption_detected () =
  (* first run stores a corrupted entry; the replay must detect the
     mismatch, drop the entry, and recompute — never serve rotten
     bytes *)
  let fault = Fault.create [ (Fault.Cache_corrupt, 1.0) ] in
  let server = Server.create ~workers:1 ~cache_capacity:16 ~fault () in
  let req = request 0 in
  let text1 =
    match Server.run server req with
    | Server.Done { payload; cached } ->
        Alcotest.(check bool) "first run fresh" false cached;
        payload.Server.p_text
    | o -> Alcotest.failf "first run: %s" (outcome_name o)
  in
  (* stop corrupting so the recomputed entry is stored clean *)
  Fault.set_prob fault Fault.Cache_corrupt 0.0;
  (match Server.run server req with
  | Server.Done { payload; cached } ->
      Alcotest.(check bool) "replay recomputed, not served corrupt" false
        cached;
      Alcotest.(check string) "replay text clean" text1 payload.Server.p_text
  | o -> Alcotest.failf "replay: %s" (outcome_name o));
  (match Server.run server req with
  | Server.Done { cached; _ } ->
      Alcotest.(check bool) "third run hits the clean entry" true cached
  | o -> Alcotest.failf "third run: %s" (outcome_name o));
  let stats = Server.shutdown server in
  Alcotest.(check int) "one corrupt entry dropped" 1
    stats.Stats.corrupt_dropped

(* ------------------------------------------------------------------ *)
(* Ladder and breaker                                                  *)
(* ------------------------------------------------------------------ *)

let test_ladder_exercises_every_rung () =
  (* at p=0.55 per attempt, over 30 deterministic jobs some succeed at
     full, some fail once and land conservative, some fail twice and
     land passthrough *)
  let fault = Fault.create ~seed:5 [ (Fault.Exec_raise, 0.55) ] in
  let server = Server.create ~workers:1 ~cache_capacity:64 ~fault () in
  List.iter (fun i -> ignore (Server.run server (request i))) (List.init 30 Fun.id);
  let stats = Server.shutdown server in
  Alcotest.(check int) "every job done" 30 stats.Stats.completed;
  Alcotest.(check bool)
    (Printf.sprintf "full rung reached (%d)" stats.Stats.rung_full)
    true (stats.Stats.rung_full > 0);
  Alcotest.(check bool)
    (Printf.sprintf "conservative rung reached (%d)" stats.Stats.rung_conservative)
    true
    (stats.Stats.rung_conservative > 0);
  Alcotest.(check bool)
    (Printf.sprintf "passthrough rung reached (%d)" stats.Stats.rung_passthrough)
    true
    (stats.Stats.rung_passthrough > 0)

let test_conservative_rung_drops_techniques () =
  (* a conservative payload must carry no DOACROSS/GIV/two-version
     reports — the rung really restricted the technique set *)
  let fault = Fault.create ~seed:5 [ (Fault.Exec_raise, 0.55) ] in
  let server = Server.create ~workers:1 ~cache_capacity:64 ~fault () in
  let conservative_payloads = ref [] in
  List.iter
    (fun i ->
      match Server.run server (request i) with
      | Server.Done { payload; cached = false }
        when payload.Server.p_rung = Server.Conservative ->
          conservative_payloads := payload :: !conservative_payloads
      | _ -> ())
    (List.init 30 Fun.id);
  ignore (Server.shutdown server);
  Alcotest.(check bool) "saw conservative payloads" true
    (!conservative_payloads <> []);
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (p.Server.p_name ^ " no doacross/two-version text")
        false
        (let t = p.Server.p_text in
         let has needle =
           let nl = String.length needle and tl = String.length t in
           let rec go i = i + nl <= tl && (String.sub t i nl = needle || go (i + 1)) in
           go 0
         in
         has "DOACROSS" || has "IF (NDEP" ))
    !conservative_payloads

let test_breaker_opens_and_recovers () =
  (* stealth chaos: injected raises are indistinguishable from real
     restructurer failures, so consecutive ladder floors open the
     breaker; healing the fault lets the half-open probe close it *)
  let fault = Fault.create ~stealth:true [ (Fault.Exec_raise, 1.0) ] in
  let server =
    Server.create ~workers:1 ~cache_capacity:16 ~fault ~breaker_threshold:3
      ~breaker_cooldown_ms:50.0 ()
  in
  (* 6 failing jobs: 3 trip the threshold, the rest are served degraded *)
  List.iter (fun i -> ignore (Server.run server (request i))) (List.init 6 Fun.id);
  let mid = Server.stats server in
  Alcotest.(check bool)
    (Printf.sprintf "breaker opened (%d)" mid.Stats.breaker_opened)
    true
    (mid.Stats.breaker_opened >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "degraded fast-path used (%d)" mid.Stats.degraded)
    true (mid.Stats.degraded >= 1);
  (* heal, wait out the cooldown, and push jobs through: the first is
     the half-open probe, its success closes the breaker, and the pool
     is back to full-rung service *)
  Fault.set_prob fault Fault.Exec_raise 0.0;
  Unix.sleepf 0.08;
  let after =
    List.init 3 (fun i -> Server.run server (request (10 + i)))
  in
  let full_after =
    List.length
      (List.filter
         (function
           | Server.Done { payload; cached = false } ->
               payload.Server.p_rung = Server.Full
           | Server.Done { cached = true; _ } -> true
           | _ -> false)
         after)
  in
  Alcotest.(check int) "healed jobs all full-fidelity" 3 full_after;
  let stats = Server.shutdown server in
  Alcotest.(check string) "breaker closed again" "closed"
    stats.Stats.breaker_state

(* ------------------------------------------------------------------ *)
(* Corpus survival                                                     *)
(* ------------------------------------------------------------------ *)

let test_corpus_survives_mixed_chaos () =
  (* every fault class at 10% over the whole 44-program corpus, multi
     domain: every job must resolve; every Done payload must pass the
     independent validator and execute identically to the serial
     original under the interpreter *)
  let fault =
    Fault.create ~seed:31 (List.map (fun s -> (s, 0.1)) Fault.all_sites)
  in
  let server =
    Server.create ~workers:4 ~oversubscribe:true ~cache_capacity:128
      ~timeout_ms:60_000.0 ~fault ()
  in
  let corpus = Traffic.corpus () in
  let jobs =
    List.map
      (fun w ->
        let n = w.Workloads.Workload.small_size in
        let opts = { (opts_for cedar) with Restructurer.Options.validate = true } in
        let req =
          {
            Server.req_name = w.Workloads.Workload.name;
            req_source = w.Workloads.Workload.source n;
            req_options = opts;
          }
        in
        (req, Server.submit server req))
      corpus
  in
  let done_count = ref 0 and failed = ref 0 and timeout = ref 0 in
  List.iter
    (fun (req, ticket) ->
      match Server.await ticket with
      | Server.Done { payload; _ } ->
          incr done_count;
          (* the shipped text must satisfy the independent checker *)
          (match Validate.check_source payload.Server.p_text with
          | Ok [] -> ()
          | Ok issues ->
              Alcotest.failf "%s: validator rejected shipped text: %s"
                req.Server.req_name
                (String.concat "; " (List.map Validate.issue_to_string issues))
          | Error m ->
              Alcotest.failf "%s: shipped text does not reparse: %s"
                req.Server.req_name m);
          (* and run byte-identically to the serial original *)
          let serial =
            (Interp.Exec.run ~cfg:cedar
               (Fortran.Parser.parse_program req.Server.req_source))
              .Interp.Exec.output
          in
          let restructured =
            (Interp.Exec.run ~cfg:cedar
               (Fortran.Parser.parse_program payload.Server.p_text))
              .Interp.Exec.output
          in
          Alcotest.(check string)
            (req.Server.req_name ^ " output equivalent")
            serial restructured
      | Server.Failed _ -> incr failed
      | Server.Timeout -> incr timeout
      | Server.Cancelled -> incr failed)
    jobs;
  let stats = Server.shutdown server in
  Alcotest.(check int) "every job resolved"
    (List.length corpus)
    (!done_count + !failed + !timeout);
  Alcotest.(check bool)
    (Printf.sprintf "most jobs completed (%d/%d)" !done_count
       (List.length corpus))
    true
    (!done_count >= List.length corpus / 2);
  Alcotest.(check bool)
    (Printf.sprintf "chaos actually injected (%d)" stats.Stats.faults_injected)
    true
    (stats.Stats.faults_injected > 0);
  Alcotest.(check int) "ledger balances: submitted = resolved"
    stats.Stats.submitted
    (stats.Stats.completed + stats.Stats.failed + stats.Stats.timed_out
   + stats.Stats.cancelled)

let tests =
  [
    Alcotest.test_case "fault: --chaos spec parsing" `Quick test_spec_parsing;
    Alcotest.test_case "fault: schedule is interleaving-independent" `Quick
      test_schedule_deterministic;
    Alcotest.test_case "fault: same seed, same run" `Quick
      test_server_runs_reproducible;
    Alcotest.test_case "replay: seeded traffic is fully deterministic" `Quick
      test_traffic_replay_deterministic;
    Alcotest.test_case "fault: metrics counters match the ledger" `Quick
      test_fault_metrics_track_ledger;
    Alcotest.test_case "survive: raise=1.0 -> passthrough for all" `Quick
      test_raise_always_lands_on_passthrough;
    Alcotest.test_case "survive: kill=1.0 -> pool respawns, no leaks" `Quick
      test_kill_respawns_pool;
    Alcotest.test_case "survive: a wedged job times out once, slot respawns"
      `Quick test_wedge_times_out_and_respawns;
    Alcotest.test_case "pool: one domain per worker, no thread of its own"
      `Quick test_pool_starts_only_its_workers;
    Alcotest.test_case "survive: reject=1.0 -> ladder floor" `Quick
      test_reject_falls_down_ladder;
    Alcotest.test_case "survive: delay=1.0 only slows" `Quick
      test_delay_only_slows;
    Alcotest.test_case "survive: cache corruption detected and dropped" `Quick
      test_cache_corruption_detected;
    Alcotest.test_case "ladder: every rung exercised" `Quick
      test_ladder_exercises_every_rung;
    Alcotest.test_case "ladder: conservative rung drops techniques" `Quick
      test_conservative_rung_drops_techniques;
    Alcotest.test_case "breaker: opens under stealth chaos, recovers" `Quick
      test_breaker_opens_and_recovers;
    Alcotest.test_case "corpus: survives every fault class at 10%" `Quick
      test_corpus_survives_mixed_chaos;
  ]
