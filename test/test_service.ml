(* The restructuring service: bounded queue, content-addressed LRU cache,
   domain pool, timeouts, and traffic generator.

   The multi-domain tests pass ~oversubscribe:true so the pool really
   spawns several domains even on a single-core CI host — the point is
   exercising the concurrent paths, not wall-clock scaling. *)

open Service

(* ------------------------------------------------------------------ *)
(* Bounded queue                                                       *)
(* ------------------------------------------------------------------ *)

let test_queue_fifo () =
  let q = Bounded_queue.create ~capacity:8 in
  List.iter (fun i -> assert (Bounded_queue.push q i)) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "length" 5 (Bounded_queue.length q);
  Alcotest.(check int) "high water" 5 (Bounded_queue.high_water q);
  Alcotest.(check bool) "requeue at the head" true
    (Bounded_queue.try_push_front q 0);
  let popped = List.init 6 (fun _ -> Option.get (Bounded_queue.pop q)) in
  Alcotest.(check (list int)) "fifo order" [ 0; 1; 2; 3; 4; 5 ] popped;
  Bounded_queue.close q;
  Alcotest.(check bool) "push after close" false (Bounded_queue.push q 6);
  Alcotest.(check bool) "requeue after close" false
    (Bounded_queue.try_push_front q 6);
  Alcotest.(check (option int)) "pop after close+drain" None (Bounded_queue.pop q)

let test_queue_close_drains () =
  let q = Bounded_queue.create ~capacity:8 in
  ignore (Bounded_queue.push q 1);
  ignore (Bounded_queue.push q 2);
  Bounded_queue.close q;
  Alcotest.(check (option int)) "drain 1" (Some 1) (Bounded_queue.pop q);
  Alcotest.(check (option int)) "drain 2" (Some 2) (Bounded_queue.pop q);
  Alcotest.(check (option int)) "drained" None (Bounded_queue.pop q)

let test_queue_blocking_handoff () =
  (* producer domain pushes 100 items through a capacity-2 queue while
     the main domain consumes: backpressure blocks the producer, the
     consumer blocks on empty, and order survives *)
  let q = Bounded_queue.create ~capacity:2 in
  let producer =
    Domain.spawn (fun () ->
        for i = 0 to 99 do
          ignore (Bounded_queue.push q i)
        done;
        Bounded_queue.close q)
  in
  let received = ref [] in
  let rec drain () =
    match Bounded_queue.pop q with
    | Some x ->
        received := x :: !received;
        drain ()
    | None -> ()
  in
  drain ();
  Domain.join producer;
  Alcotest.(check (list int)) "all items in order" (List.init 100 Fun.id)
    (List.rev !received);
  Alcotest.(check bool) "capacity respected"
    true
    (Bounded_queue.high_water q <= 2)

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

let test_cache_hit_miss () =
  let c = Cache.create ~capacity:4 in
  let k = Cache.digest "some content" in
  Alcotest.(check (option string)) "cold miss" None (Cache.find c k);
  Cache.add c k "value";
  Alcotest.(check (option string)) "hit" (Some "value") (Cache.find c k);
  let s = Cache.stats c in
  Alcotest.(check int) "hits" 1 s.Cache.hits;
  Alcotest.(check int) "misses" 1 s.Cache.misses;
  Alcotest.(check int) "entries" 1 s.Cache.entries;
  Alcotest.(check (float 1e-9)) "hit rate" 0.5 (Cache.hit_rate s)

let test_cache_lru_eviction () =
  let c = Cache.create ~capacity:2 in
  Cache.add c "k1" 1;
  Cache.add c "k2" 2;
  (* touch k1 so k2 becomes the LRU entry *)
  ignore (Cache.find c "k1");
  Cache.add c "k3" 3;
  Alcotest.(check (option int)) "k2 evicted" None (Cache.find c "k2");
  Alcotest.(check (option int)) "k1 survives" (Some 1) (Cache.find c "k1");
  Alcotest.(check (option int)) "k3 resident" (Some 3) (Cache.find c "k3");
  let s = Cache.stats c in
  Alcotest.(check int) "one eviction" 1 s.Cache.evictions;
  Alcotest.(check int) "two resident" 2 s.Cache.entries

let test_cache_overwrite_no_evict () =
  let c = Cache.create ~capacity:2 in
  Cache.add c "k1" 1;
  Cache.add c "k1" 10;
  Cache.add c "k2" 2;
  Alcotest.(check (option int)) "overwritten" (Some 10) (Cache.find c "k1");
  Alcotest.(check int) "no eviction" 0 (Cache.stats c).Cache.evictions

let test_cache_disabled () =
  let c = Cache.create ~capacity:0 in
  Cache.add c "k" 1;
  Alcotest.(check (option int)) "nothing stored" None (Cache.find c "k")

(* live heap after a full collection, in words *)
let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* hits on a resident set below capacity never evict, so the recency
   bookkeeping they leave behind must not accumulate: a long-running
   cedard serves hits forever *)
let test_cache_recency_bounded () =
  let c = Cache.create ~capacity:256 in
  let keys = Array.init 128 (fun i -> Cache.digest (string_of_int i)) in
  Array.iteri (fun i k -> Cache.add c k i) keys;
  let before = live_words () in
  for i = 1 to 1_000_000 do
    ignore (Cache.find c keys.(i land 127))
  done;
  let grown = live_words () - before in
  Alcotest.(check bool)
    (Printf.sprintf "live heap flat across 1M hits (grew %d words)" grown)
    true (grown < 1 lsl 17);
  Alcotest.(check int) "all resident" 128 (Cache.stats c).Cache.entries

(* the bounded bookkeeping keeps the LRU order: after many hits on k1,
   one on k2, the next insert still evicts the untouched k3 *)
let test_cache_lru_order_after_many_hits () =
  let c = Cache.create ~capacity:3 in
  List.iter (fun (k, v) -> Cache.add c k v) [ ("k1", 1); ("k2", 2); ("k3", 3) ];
  for _ = 1 to 100 do
    ignore (Cache.find c "k1")
  done;
  ignore (Cache.find c "k2");
  Cache.add c "k4" 4;
  Alcotest.(check (option int)) "k3 evicted" None (Cache.find c "k3");
  List.iter
    (fun (k, v) -> Alcotest.(check (option int)) (k ^ " resident") (Some v) (Cache.find c k))
    [ ("k1", 1); ("k2", 2); ("k4", 4) ]

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_percentiles () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "p50" 50.0 (Stats.percentile 50.0 xs);
  Alcotest.(check (float 1e-9)) "p95" 95.0 (Stats.percentile 95.0 xs);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Stats.percentile 100.0 xs);
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Stats.percentile 50.0 []);
  Alcotest.(check (float 1e-9)) "singleton" 7.0 (Stats.percentile 95.0 [ 7.0 ])

(* ------------------------------------------------------------------ *)
(* Reservoir sample                                                    *)
(* ------------------------------------------------------------------ *)

let test_reservoir_basics () =
  let r = Reservoir.create ~capacity:4 () in
  Alcotest.(check int) "empty count" 0 (Reservoir.count r);
  Alcotest.(check (float 1e-9)) "empty max" 0.0 (Reservoir.max_value r);
  List.iter (Reservoir.add r) [ 3.0; 1.0; 2.0 ];
  Alcotest.(check int) "filling keeps all" 3 (List.length (Reservoir.sample r));
  List.iter (Reservoir.add r) [ 9.0; 4.0; 5.0; 6.0 ];
  Alcotest.(check int) "exact count" 7 (Reservoir.count r);
  Alcotest.(check (float 1e-9)) "exact max survives sampling" 9.0
    (Reservoir.max_value r);
  Alcotest.(check int) "sample bounded" 4 (List.length (Reservoir.sample r));
  Alcotest.check_raises "capacity < 1"
    (Invalid_argument "Reservoir.create: capacity < 1") (fun () ->
      ignore (Reservoir.create ~capacity:0 ()))

let test_reservoir_percentile_accuracy () =
  (* the regression the reservoir replaces the unbounded latency list
     with: p50/p95 estimated from a 1024-slot sample of 10_000 skewed
     observations must stay within a few percent of the exact values *)
  let rng = Random.State.make [| 2024 |] in
  let values =
    List.init 10_000 (fun _ ->
        (* long-tailed, like service latencies *)
        let u = Random.State.float rng 1.0 in
        1.0 +. (100.0 *. u *. u *. u))
  in
  let r = Reservoir.create ~capacity:1024 () in
  List.iter (Reservoir.add r) values;
  let exact p = Stats.percentile p values in
  let sampled p = Stats.percentile p (Reservoir.sample r) in
  let rel_err p = abs_float (sampled p -. exact p) /. exact p in
  Alcotest.(check bool)
    (Printf.sprintf "p50 within 10%% (err %.3f)" (rel_err 50.0))
    true
    (rel_err 50.0 < 0.10);
  Alcotest.(check bool)
    (Printf.sprintf "p95 within 10%% (err %.3f)" (rel_err 95.0))
    true
    (rel_err 95.0 < 0.10);
  Alcotest.(check int) "exact count kept" 10_000 (Reservoir.count r);
  Alcotest.(check (float 1e-9)) "exact max kept"
    (List.fold_left Float.max 0.0 values)
    (Reservoir.max_value r)

(* ------------------------------------------------------------------ *)
(* Fuel counter                                                        *)
(* ------------------------------------------------------------------ *)

(* a single loop nest with enough statements that the dependence test's
   pairwise reference scan runs tens of thousands of iterations — the
   between-nest interrupt poll alone would fire at most a couple of
   times over this program *)
let huge_nest_source n =
  let body =
    List.init n (fun i ->
        Printf.sprintf "      A(I) = A(I) + B(I) * %d.0" (i + 1))
  in
  String.concat "\n"
    ([ "      PROGRAM HUGE"; "      DIMENSION A(100), B(100)";
       "      DO 10 I = 1, 100" ]
    @ body
    @ [ "   10 CONTINUE"; "      END" ])
  ^ "\n"

let test_fuel_polls_inside_dependence_analysis () =
  let prog = Fortran.Parser.parse_program (huge_nest_source 100) in
  let opts = Restructurer.Options.advanced Machine.Config.cedar_config1 in
  let polls = ref 0 in
  (* demand several polls before aborting: only the fuel ticks inside
     the pairwise dependence scan can get the count that high within a
     single nest *)
  let interrupt () =
    incr polls;
    !polls >= 4
  in
  (match Restructurer.Driver.restructure ~interrupt opts prog with
  | _ -> Alcotest.fail "expected Interrupted mid-nest"
  | exception Restructurer.Driver.Interrupted -> ());
  Alcotest.(check bool)
    (Printf.sprintf "fuel fired repeatedly inside one nest (%d polls)" !polls)
    true (!polls >= 4)

exception Stop_interp

let test_fuel_polls_inside_interpreter () =
  let src =
    String.concat "\n"
      [
        "      PROGRAM SPIN";
        "      S = 0.0";
        "      DO 10 I = 1, 100000";
        "      S = S + 1.0";
        "   10 CONTINUE";
        "      PRINT *, S";
        "      END";
      ]
    ^ "\n"
  in
  let prog = Fortran.Parser.parse_program src in
  let ticks = ref 0 in
  let hook () =
    incr ticks;
    if !ticks > 3 then raise Stop_interp
  in
  (match
     Fortran.Fuel.with_hook hook (fun () ->
         Interp.Exec.run ~cfg:Machine.Config.cedar_config1 prog)
   with
  | _ -> Alcotest.fail "expected the fuel hook to abort the run"
  | exception Stop_interp -> ());
  Alcotest.(check bool) "hook ran from the serial-loop hot path" true
    (!ticks > 3)

(* ------------------------------------------------------------------ *)
(* Server                                                              *)
(* ------------------------------------------------------------------ *)

(* an injector whose only effect is slowing jobs down — the lever that
   makes "stuck in the queue" scenarios deterministic *)
let slow_fault ms = Fault.create ~delay_ms:ms [ (Fault.Exec_delay, 1.0) ]

let direct_text req =
  let prog = Fortran.Parser.parse_program req.Server.req_source in
  let r = Restructurer.Driver.restructure req.Server.req_options prog in
  Fortran.Printer.program_to_string r.Restructurer.Driver.program

let payload_exn name = function
  | Server.Done { payload; cached } -> (payload, cached)
  | Server.Failed m -> Alcotest.failf "%s failed: %s" name m
  | Server.Timeout -> Alcotest.failf "%s timed out" name
  | Server.Cancelled -> Alcotest.failf "%s cancelled" name

let test_server_matches_direct () =
  (* results through the pool must be byte-identical to a direct
     single-threaded Driver.restructure of the same request *)
  let server =
    Server.create ~workers:4 ~oversubscribe:true ~cache_capacity:64 ()
  in
  let reqs =
    List.init 12 (fun i -> Traffic.nth_request ~seed:7 ~size_jitter:3 ~batch:2 i)
  in
  let tickets = List.map (fun r -> (r, Server.submit server r)) reqs in
  List.iter
    (fun (req, ticket) ->
      let payload, _ = payload_exn req.Server.req_name (Server.await ticket) in
      Alcotest.(check string)
        (req.Server.req_name ^ " byte-identical")
        (direct_text req) payload.Server.p_text)
    tickets;
  let stats = Server.shutdown server in
  Alcotest.(check int) "all completed" 12 stats.Stats.completed;
  Alcotest.(check int) "no failures" 0 stats.Stats.failed

let test_server_cache_short_circuit () =
  let server = Server.create ~workers:2 ~cache_capacity:16 () in
  let req = Traffic.nth_request ~seed:3 ~size_jitter:0 ~batch:1 0 in
  let p1, cached1 = payload_exn "first" (Server.run server req) in
  let p2, cached2 = payload_exn "second" (Server.run server req) in
  Alcotest.(check bool) "first is fresh" false cached1;
  Alcotest.(check bool) "second from cache" true cached2;
  Alcotest.(check string) "identical text" p1.Server.p_text p2.Server.p_text;
  let stats = Server.shutdown server in
  Alcotest.(check int) "one cache hit counted" 1 stats.Stats.cache.Cache.hits;
  (* one lookup per job: the miss is probed once, by its worker *)
  Alcotest.(check int) "one cache miss counted" 1
    stats.Stats.cache.Cache.misses;
  Alcotest.(check bool) "hit rate positive" true (stats.Stats.cache_hit_rate > 0.0)

let test_instance_counts_sum_to_registry () =
  (* two servers in one process: each Stats.t counts only its own jobs,
     and each registry total advances by the sum of the two *)
  let views =
    [
      ("service_jobs_submitted_total", fun (s : Stats.t) -> s.Stats.submitted);
      ("service_jobs_completed_total", fun s -> s.Stats.completed);
      ("service_cache_hits_total", fun s -> s.Stats.cache.Cache.hits);
      ("service_cache_misses_total", fun s -> s.Stats.cache.Cache.misses);
      ("memo_hits_total", fun s -> s.Stats.memo_hits);
      ("memo_misses_total", fun s -> s.Stats.memo_misses);
    ]
  in
  let total name =
    match Obs.Metrics.find Obs.Metrics.global name with
    | `Counter n -> n
    | _ -> Alcotest.failf "%s is not a registered counter" name
  in
  let before = List.map (fun (name, _) -> total name) views in
  let a = Server.create ~workers:1 ~cache_capacity:16 () in
  let b = Server.create ~workers:1 ~cache_capacity:16 () in
  (* [jobs] fresh requests, then [repeats] more cycling through them *)
  let drive server ~jobs ~repeats =
    let req i = Traffic.nth_request ~seed:9 ~size_jitter:0 ~batch:1 i in
    for i = 0 to jobs - 1 do
      ignore (payload_exn "fresh" (Server.run server (req i)))
    done;
    for i = 0 to repeats - 1 do
      ignore (payload_exn "repeat" (Server.run server (req (i mod jobs))))
    done
  in
  drive a ~jobs:3 ~repeats:1;
  drive b ~jobs:1 ~repeats:2;
  let sa = Server.shutdown a and sb = Server.shutdown b in
  Alcotest.(check (list int)) "a: submitted, completed, hits, misses"
    [ 4; 4; 1; 3 ]
    [ sa.Stats.submitted; sa.Stats.completed; sa.Stats.cache.Cache.hits;
      sa.Stats.cache.Cache.misses ];
  Alcotest.(check (list int)) "b: submitted, completed, hits, misses"
    [ 3; 3; 2; 1 ]
    [ sb.Stats.submitted; sb.Stats.completed; sb.Stats.cache.Cache.hits;
      sb.Stats.cache.Cache.misses ];
  Alcotest.(check bool) "b's memo is its own: it misses a's nests" true
    (sb.Stats.memo_misses > 0);
  List.iter2
    (fun (name, view) t0 ->
      Alcotest.(check int) (name ^ " = a + b") (view sa + view sb)
        (total name - t0))
    views before

(* the outcome a ticket holds right now, without waiting for one *)
let resolved_now ticket =
  let seen = ref None in
  Server.on_resolve ticket (fun o -> seen := Some o);
  !seen

let test_busy_hit_keeps_fifo () =
  (* a hit must not overtake an earlier job: behind a slow miss on the
     one worker, a resident key queues and resolves after the miss *)
  let server =
    Server.create ~workers:1 ~cache_capacity:16 ~fault:(slow_fault 30.0) ()
  in
  let resident = Traffic.nth_request ~seed:4 ~size_jitter:0 ~batch:1 0 in
  let miss = Traffic.nth_request ~seed:4 ~size_jitter:0 ~batch:1 1 in
  ignore (payload_exn "fill" (Server.run server resident));
  let order = ref [] and order_mu = Mutex.create () in
  let note name _ = Mutex.protect order_mu (fun () -> order := name :: !order) in
  let t_miss = Server.submit server miss in
  Server.on_resolve t_miss (note "miss");
  let t_hit =
    match Server.try_submit server resident with
    | Some t -> t
    | None -> Alcotest.fail "try_submit shed with room in the queue"
  in
  Alcotest.(check bool) "hit unresolved while the miss runs" true
    (resolved_now t_hit = None);
  Server.on_resolve t_hit (note "hit");
  ignore (payload_exn "miss" (Server.await t_miss));
  let _, cached = payload_exn "hit" (Server.await t_hit) in
  Alcotest.(check bool) "hit served from the cache" true cached;
  (* [await] may return before the resolving worker has run the
     watchers, so wait (bounded) until both have recorded *)
  let recorded () = Mutex.protect order_mu (fun () -> List.rev !order) in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while List.length (recorded ()) < 2 && Unix.gettimeofday () < deadline do
    Thread.delay 0.001
  done;
  Alcotest.(check (list string)) "resolution order" [ "miss"; "hit" ]
    (recorded ());
  ignore (Server.shutdown server)

let test_server_parse_error_fails () =
  let server = Server.create ~workers:1 ~cache_capacity:4 () in
  let req =
    {
      Server.req_name = "garbage";
      req_source = "      this is not fortran\n";
      req_options = Restructurer.Options.auto_1991 Machine.Config.cedar_config1;
    }
  in
  (match Server.run server req with
  | Server.Failed _ -> ()
  | _ -> Alcotest.fail "expected Failed");
  let stats = Server.shutdown server in
  Alcotest.(check int) "failure counted" 1 stats.Stats.failed

(* A lexical error, or an integer that does not fit, is a front-end
   error like any syntax error: answered after one attempt, no retry. *)
let test_front_end_errors_fail_once () =
  let server = Server.create ~workers:1 ~cache_capacity:4 () in
  let opts = Restructurer.Options.auto_1991 Machine.Config.cedar_config1 in
  let failed name source =
    match
      Server.run server
        { Server.req_name = name; req_source = source; req_options = opts }
    with
    | Server.Failed m -> m
    | _ -> Alcotest.failf "%s: expected Failed" name
  in
  let starts ~prefix m =
    Alcotest.(check bool) (Printf.sprintf "%S starts with %S" m prefix) true
      (String.starts_with ~prefix m)
  in
  starts ~prefix:"parse error, line 2: unexpected character @"
    (failed "stray @" "      program p\n      x = 1 @ 2\n      end\n");
  starts ~prefix:"parse error, line 2: integer literal"
    (failed "long int"
       "      program p\n      x = 123456789012345678901234567890\n      end\n");
  starts ~prefix:"parse error, line 3: statement label"
    (failed "long label"
       "      program p\n      x = 1\n 12345678901234567890123 continue\n      end\n");
  let stats = Server.shutdown server in
  Alcotest.(check int) "three failures" 3 stats.Stats.failed;
  Alcotest.(check int) "no retries" 0 stats.Stats.retries

(* A client's parse errors say nothing about the restructurer: five in a
   row leave the breaker closed, and the next good job runs at Full. *)
let test_parse_errors_leave_breaker_closed () =
  let server = Server.create ~workers:1 ~cache_capacity:4 () in
  let opts = Restructurer.Options.auto_1991 Machine.Config.cedar_config1 in
  for i = 1 to 5 do
    match
      Server.run server
        {
          Server.req_name = Printf.sprintf "bad %d" i;
          req_source = "      program p\n      x = = 2\n      end\n";
          req_options = opts;
        }
    with
    | Server.Failed _ -> ()
    | _ -> Alcotest.fail "expected Failed"
  done;
  let req = Traffic.nth_request ~seed:5 ~size_jitter:0 ~batch:1 0 in
  let payload, _ = payload_exn "good" (Server.run server req) in
  Alcotest.(check bool) "served at Full" true (payload.Server.p_rung = Server.Full);
  let stats = Server.shutdown server in
  Alcotest.(check int) "breaker never opened" 0 stats.Stats.breaker_opened;
  Alcotest.(check int) "nothing degraded" 0 stats.Stats.degraded;
  Alcotest.(check string) "breaker closed" "closed" stats.Stats.breaker_state

let test_server_expired_job_cancelled () =
  (* a deadline far in the past: the job expires in the queue and must
     come back Cancelled without running; the server stays usable *)
  let server = Server.create ~workers:1 ~cache_capacity:4 ~timeout_ms:1e-6 () in
  let req = Traffic.nth_request ~seed:1 ~size_jitter:0 ~batch:1 0 in
  (match Server.run server req with
  | Server.Cancelled -> ()
  | Server.Timeout -> () (* raced past the queue check, then expired *)
  | o ->
      Alcotest.failf "expected Cancelled/Timeout, got %s"
        (match o with
        | Server.Done _ -> "Done"
        | Server.Failed m -> "Failed " ^ m
        | _ -> "?"));
  let stats = Server.shutdown server in
  Alcotest.(check int) "nothing completed" 0 stats.Stats.completed;
  Alcotest.(check int) "expiry counted" 1
    (stats.Stats.cancelled + stats.Stats.timed_out)

let test_driver_interrupt () =
  (* the hook the worker deadline rides on: an always-true interrupt
     aborts restructuring instead of running to completion *)
  let src = (Workloads.Linalg.find "CG").Workloads.Workload.source 16 in
  let prog = Fortran.Parser.parse_program src in
  let opts = Restructurer.Options.advanced Machine.Config.cedar_config1 in
  match
    Restructurer.Driver.restructure ~interrupt:(fun () -> true) opts prog
  with
  | _ -> Alcotest.fail "expected Interrupted"
  | exception Restructurer.Driver.Interrupted -> ()

let test_memo_poison_caught_by_validator () =
  (* Cross-job memo poisoning, the memo mirror of the cache-checksum
     chaos tests.  The [memo-corrupt] site poisons nest entries as they
     are stored (self-consistently: the checksum is computed after the
     flip, so the memo's own integrity check cannot see it).  The
     defense is the validator gate that stays live on every memo hit: a
     later job served the poisoned nest has it re-verified, caught, and
     demoted back to serial — the unsafe statements never reach the
     emitted text, and the demotion is re-derived on every hit, never
     cached into the memo. *)
  let carried_src ~index ~a ~b =
    (* a(i) = a(i-1) + ... carries a distance-1 flow dependence: the
       nest must stay a sequential DO, which is exactly what the poison
       flips to a CDOALL *)
    Printf.sprintf
      {|      program p
      real %s(100), %s(100)
      do 10 %s = 2, 100
        %s(%s) = %s(%s-1) + %s(%s) * %s(%s)
        %s(%s) = %s(%s) + %s(%s)
 10   continue
      end
|}
      a b index a index a index b index b index b index b index a index
  in
  let mk_opts validate =
    let advanced = Restructurer.Options.advanced Machine.Config.cedar_config1 in
    {
      advanced with
      Restructurer.Options.validate;
      (* no doacross: the carried dependence pins the nest to a plain
         DO, the shape the poison corrupts *)
      techniques =
        {
          advanced.Restructurer.Options.techniques with
          Restructurer.Options.doacross = false;
        };
    }
  in
  let run_pair validate =
    (* fresh server (fresh memo) per scenario: job 1 stores the
       poisoned nest, job 2 — an alpha-renamed twin, so the result
       cache misses but the memo hits — is served the poison *)
    let opts = mk_opts validate in
    let req name src =
      { Server.req_name = name; req_source = src; req_options = opts }
    in
    let fault = Fault.create [ (Fault.Memo_corrupt, 1.0) ] in
    let server = Server.create ~workers:1 ~cache_capacity:16 ~fault () in
    let p1, _ =
      payload_exn "storer"
        (Server.run server
           (req "storer" (carried_src ~index:"i1" ~a:"aa" ~b:"bb")))
    in
    Alcotest.(check bool) "storing job unharmed: full rung" true
      (p1.Server.p_rung = Server.Full);
    let renamed = carried_src ~index:"j1" ~a:"cc" ~b:"dd" in
    let p2, cached2 =
      payload_exn "victim" (Server.run server (req "victim" renamed))
    in
    Alcotest.(check bool) "victim not served from the result cache" false
      cached2;
    let direct =
      let prog = Fortran.Parser.parse_program renamed in
      let r = Restructurer.Driver.restructure opts prog in
      Fortran.Printer.program_to_string r.Restructurer.Driver.program
    in
    let stats = Server.shutdown server in
    Alcotest.(check bool) "memo was actually consulted" true
      (stats.Stats.memo_hits >= 1);
    Alcotest.(check bool) "chaos site actually fired" true
      (stats.Stats.faults_injected >= 1);
    (p2, direct)
  in
  (* validator on: the poisoned replay is caught nest-side — the victim
     's text is byte-identical to an unpoisoned direct run, and the
     demotion shows up in its decision notes *)
  let p2, direct = run_pair true in
  Alcotest.(check string) "validator gate heals the victim's text" direct
    p2.Server.p_text;
  Alcotest.(check bool) "the gate records the demotion" true
    (List.exists
       (fun (r : Restructurer.Driver.loop_report) ->
         r.Restructurer.Driver.r_decision = "demoted (validator)")
       p2.Server.p_reports);
  Alcotest.(check bool) "victim still served at full rung (healed)" true
    (p2.Server.p_rung = Server.Full);
  (* validator off: nothing stands between the poisoned nest and the
     emitted text — the victim's output silently diverges.  This is the
     negative control proving the gate above is the defense, not an
     accidental memo miss. *)
  let p2_off, direct_off = run_pair false in
  Alcotest.(check bool) "without the gate the poison reaches the output"
    true
    (p2_off.Server.p_text <> direct_off);
  Alcotest.(check bool) "no demotion note without the gate" false
    (List.exists
       (fun (r : Restructurer.Driver.loop_report) ->
         r.Restructurer.Driver.r_decision = "demoted (validator)")
       p2_off.Server.p_reports)

let test_traffic_deterministic () =
  let a = Traffic.nth_request ~seed:11 ~size_jitter:4 ~batch:3 5 in
  let b = Traffic.nth_request ~seed:11 ~size_jitter:4 ~batch:3 5 in
  Alcotest.(check string) "same name" a.Server.req_name b.Server.req_name;
  Alcotest.(check string) "same source" a.Server.req_source b.Server.req_source;
  Alcotest.(check bool) "same options" true
    (Restructurer.Options.equal_techniques
       a.Server.req_options.Restructurer.Options.techniques
       b.Server.req_options.Restructurer.Options.techniques);
  Alcotest.(check string) "same cache key" (Server.cache_key a)
    (Server.cache_key b);
  let c = Traffic.nth_request ~seed:12 ~size_jitter:4 ~batch:3 5 in
  Alcotest.(check bool) "different seed, different key" true
    (Server.cache_key a <> Server.cache_key c);
  (* a request rebuilt from its own Submit frame keys the same *)
  let frame =
    Net.Wire.encode ~id:1
      (Net.Wire.Submit
         {
           Net.Wire.sub_name = a.Server.req_name;
           sub_source = a.Server.req_source;
           sub_options = a.Server.req_options;
           sub_trace = 0;
         })
  in
  (match Net.Wire.decode frame with
  | Ok (_, Net.Wire.Submit s) ->
      Alcotest.(check string) "key survives the wire" (Server.cache_key a)
        (Server.cache_key
           {
             Server.req_name = s.Net.Wire.sub_name;
             req_source = s.Net.Wire.sub_source;
             req_options = s.Net.Wire.sub_options;
           })
  | _ -> Alcotest.fail "submit frame did not decode");
  let edited = Bytes.of_string a.Server.req_source in
  Bytes.set edited 0 (if Bytes.get edited 0 = 'C' then 'c' else 'C');
  Alcotest.(check bool) "one-byte source edit, different key" true
    (Server.cache_key a
    <> Server.cache_key { a with Server.req_source = Bytes.to_string edited });
  let opts = a.Server.req_options in
  Alcotest.(check bool) "one options field, different key" true
    (Server.cache_key a
    <> Server.cache_key
         {
           a with
           Server.req_options =
             { opts with Restructurer.Options.strip = opts.strip + 1 };
         })

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_target_cache_isolation () =
  (* the same source under both codegen targets must produce two cache
     entries and target-correct text — the target is part of the key *)
  let server = Server.create ~workers:2 ~cache_capacity:16 () in
  let base = Traffic.nth_request ~seed:3 ~size_jitter:0 ~batch:1 0 in
  let with_target t =
    {
      base with
      Server.req_options =
        { base.Server.req_options with Restructurer.Options.target = t };
    }
  in
  let ced = with_target Codegen.Target.Cedar
  and omp = with_target Codegen.Target.Openmp in
  Alcotest.(check bool) "distinct cache keys" true
    (Server.cache_key ced <> Server.cache_key omp);
  let p_ced, c1 = payload_exn "cedar" (Server.run server ced) in
  let p_omp, c2 = payload_exn "openmp" (Server.run server omp) in
  Alcotest.(check bool) "cedar fresh" false c1;
  Alcotest.(check bool) "openmp fresh despite identical source" false c2;
  Alcotest.(check bool) "cedar text has no directives" false
    (contains ~sub:"!$omp" p_ced.Server.p_text);
  Alcotest.(check bool) "openmp text has directives" true
    (contains ~sub:"!$omp parallel do" p_omp.Server.p_text);
  (* replays of both targets now hit their own entries *)
  let _, hit1 = payload_exn "cedar again" (Server.run server ced) in
  let _, hit2 = payload_exn "openmp again" (Server.run server omp) in
  Alcotest.(check bool) "cedar replay cached" true hit1;
  Alcotest.(check bool) "openmp replay cached" true hit2;
  ignore (Server.shutdown server)

let test_traffic_closed_loop () =
  let server =
    Server.create ~workers:3 ~oversubscribe:true ~cache_capacity:32 ()
  in
  let cfg =
    {
      Traffic.requests = 30;
      clients = 4;
      seed = 5;
      size_jitter = 2;
      batch = 1;
      validate = false;
      target = Codegen.Target.Cedar;
    }
  in
  let s = Traffic.run server cfg in
  Alcotest.(check int) "all resolved" 30
    (s.Traffic.s_fresh + s.Traffic.s_cached + s.Traffic.s_failed
   + s.Traffic.s_timeout + s.Traffic.s_cancelled);
  Alcotest.(check int) "no failures" 0 s.Traffic.s_failed;
  Alcotest.(check int) "no timeouts" 0 s.Traffic.s_timeout;
  let stats = Server.shutdown server in
  Alcotest.(check int) "completed all" 30 stats.Stats.completed;
  Alcotest.(check bool) "queue bounded by clients" true
    (stats.Stats.queue_high_water <= 4);
  Alcotest.(check bool) "p95 >= p50" true
    (stats.Stats.p95_latency_ms >= stats.Stats.p50_latency_ms)

(* ------------------------------------------------------------------ *)
(* Cold paths: closing, expiring, racing, shutting down                *)
(* ------------------------------------------------------------------ *)

let test_submit_after_shutdown_cancelled () =
  let server = Server.create ~workers:1 ~cache_capacity:4 () in
  ignore (Server.shutdown server);
  let req = Traffic.nth_request ~seed:1 ~size_jitter:0 ~batch:1 0 in
  match Server.run server req with
  | Server.Cancelled -> ()
  | _ -> Alcotest.fail "submit on a closed server must resolve Cancelled"

let test_submit_racing_shutdown () =
  (* submitters blocked on a full queue while the server shuts down:
     every ticket must still resolve (Cancelled or otherwise), nothing
     may hang *)
  let server =
    Server.create ~workers:1 ~queue_capacity:1 ~cache_capacity:4
      ~fault:(slow_fault 30.0) ()
  in
  let outcomes = Array.make 6 None in
  let submitter =
    Domain.spawn (fun () ->
        for i = 0 to 5 do
          let req = Traffic.nth_request ~seed:31 ~size_jitter:0 ~batch:1 i in
          outcomes.(i) <- Some (Server.run server req)
        done)
  in
  Unix.sleepf 0.05;
  ignore (Server.shutdown server);
  Domain.join submitter;
  Array.iteri
    (fun i o ->
      Alcotest.(check bool)
        (Printf.sprintf "ticket %d resolved" i)
        true (o <> None))
    outcomes

let test_expire_while_queued () =
  (* one slow job occupies the single worker; the job queued behind it
     outlives its own deadline without ever starting -> Cancelled *)
  let server =
    Server.create ~workers:1 ~cache_capacity:4 ~timeout_ms:40.0
      ~fault:(slow_fault 120.0) ()
  in
  let blocker =
    Server.submit server (Traffic.nth_request ~seed:8 ~size_jitter:0 ~batch:1 0)
  in
  let stuck =
    Server.submit server (Traffic.nth_request ~seed:8 ~size_jitter:0 ~batch:1 1)
  in
  (match Server.await stuck with
  | Server.Cancelled -> ()
  | o ->
      Alcotest.failf "expected Cancelled for the queued job, got %s"
        (match o with
        | Server.Done _ -> "Done"
        | Server.Failed m -> "Failed " ^ m
        | Server.Timeout -> "Timeout"
        | Server.Cancelled -> "Cancelled"));
  ignore (Server.await blocker);
  let stats = Server.shutdown server in
  Alcotest.(check bool) "cancellation counted" true (stats.Stats.cancelled >= 1)

let test_duplicate_submission_races_cache_fill () =
  (* the same request in flight twice at once: both must resolve Done
     with byte-identical text whether or not the second one caught the
     first one's cache fill; afterwards the entry is resident *)
  let server =
    Server.create ~workers:2 ~oversubscribe:true ~cache_capacity:16 ()
  in
  let req = Traffic.nth_request ~seed:21 ~size_jitter:0 ~batch:1 0 in
  let t1 = Server.submit server req in
  let t2 = Server.submit server req in
  let p1, _ = payload_exn "dup 1" (Server.await t1) in
  let p2, _ = payload_exn "dup 2" (Server.await t2) in
  Alcotest.(check string) "identical text" p1.Server.p_text p2.Server.p_text;
  let p3, cached3 = payload_exn "replay" (Server.run server req) in
  Alcotest.(check bool) "entry resident afterwards" true cached3;
  Alcotest.(check string) "replay identical" p1.Server.p_text p3.Server.p_text;
  ignore (Server.shutdown server)

let test_shutdown_with_full_queue () =
  (* shutdown while the queue is full of unstarted slow jobs: close
     rejects new work but drains what was accepted, so every ticket
     resolves Done and none hangs or leaks *)
  let server =
    Server.create ~workers:1 ~queue_capacity:8 ~cache_capacity:16
      ~fault:(slow_fault 10.0) ()
  in
  let tickets =
    List.init 6 (fun i ->
        Server.submit server (Traffic.nth_request ~seed:17 ~size_jitter:0 ~batch:1 i))
  in
  let stats = Server.shutdown server in
  List.iteri
    (fun i t ->
      match Server.await t with
      | Server.Done _ -> ()
      | _ -> Alcotest.failf "queued job %d did not complete at shutdown" i)
    tickets;
  Alcotest.(check int) "all completed" 6 stats.Stats.completed

let tests =
  [
    Alcotest.test_case "queue: fifo + high water + close" `Quick test_queue_fifo;
    Alcotest.test_case "queue: close drains" `Quick test_queue_close_drains;
    Alcotest.test_case "queue: blocking handoff across domains" `Quick
      test_queue_blocking_handoff;
    Alcotest.test_case "cache: hit/miss counters" `Quick test_cache_hit_miss;
    Alcotest.test_case "cache: LRU eviction order" `Quick test_cache_lru_eviction;
    Alcotest.test_case "cache: overwrite does not evict" `Quick
      test_cache_overwrite_no_evict;
    Alcotest.test_case "cache: capacity 0 disables" `Quick test_cache_disabled;
    Alcotest.test_case "cache: recency bookkeeping bounded under hits" `Quick
      test_cache_recency_bounded;
    Alcotest.test_case "cache: LRU order kept across many hits" `Quick
      test_cache_lru_order_after_many_hits;
    Alcotest.test_case "stats: nearest-rank percentiles" `Quick test_percentiles;
    Alcotest.test_case "reservoir: exact count/max, bounded sample" `Quick
      test_reservoir_basics;
    Alcotest.test_case "reservoir: p50/p95 within tolerance of exact" `Quick
      test_reservoir_percentile_accuracy;
    Alcotest.test_case "fuel: polls inside the dependence pair scan" `Quick
      test_fuel_polls_inside_dependence_analysis;
    Alcotest.test_case "fuel: polls inside the interpreter serial loop" `Quick
      test_fuel_polls_inside_interpreter;
    Alcotest.test_case "server: pool results byte-identical to direct" `Quick
      test_server_matches_direct;
    Alcotest.test_case "server: cache short-circuits identical request" `Quick
      test_server_cache_short_circuit;
    Alcotest.test_case "server: a hit behind a queued job keeps FIFO order"
      `Quick test_busy_hit_keeps_fifo;
    Alcotest.test_case "server: parse error -> Failed" `Quick
      test_server_parse_error_fails;
    Alcotest.test_case "server: a lexical error fails once, no retry" `Quick
      test_front_end_errors_fail_once;
    Alcotest.test_case "server: parse errors leave the breaker closed" `Quick
      test_parse_errors_leave_breaker_closed;
    Alcotest.test_case "server: expired job -> Cancelled" `Quick
      test_server_expired_job_cancelled;
    Alcotest.test_case "driver: interrupt hook aborts" `Quick
      test_driver_interrupt;
    Alcotest.test_case "server: memo poison caught by the validator gate"
      `Quick test_memo_poison_caught_by_validator;
    Alcotest.test_case "traffic: deterministic request sequence" `Quick
      test_traffic_deterministic;
    Alcotest.test_case "server: codegen targets get separate cache entries"
      `Quick test_target_cache_isolation;
    Alcotest.test_case "traffic: closed loop drains cleanly" `Quick
      test_traffic_closed_loop;
    Alcotest.test_case "cold: submit after shutdown -> Cancelled" `Quick
      test_submit_after_shutdown_cancelled;
    Alcotest.test_case "cold: submits racing shutdown all resolve" `Quick
      test_submit_racing_shutdown;
    Alcotest.test_case "cold: ticket expires while queued" `Quick
      test_expire_while_queued;
    Alcotest.test_case "cold: duplicate submission races cache fill" `Quick
      test_duplicate_submission_races_cache_fill;
    Alcotest.test_case "cold: shutdown drains a full queue" `Quick
      test_shutdown_with_full_queue;
    Alcotest.test_case "server: two servers' counts sum to the registry"
      `Quick test_instance_counts_sum_to_registry;
  ]
