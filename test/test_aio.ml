(* Deterministic scheduler harness for lib/aio.

   The scheduler's readiness loop is pluggable, so these tests drive it
   with a mock source: a virtual clock that jumps to the next timer
   deadline and a script of readiness events — no real sockets, no wall
   time, every run bit-identical.  The last few tests swap in the real
   poll(2) source to exercise the self-pipe wakeup and the C stub
   against an actual pipe. *)

module A = Aio

(* ------------------------------------------------------------------ *)
(* Mock readiness source                                               *)
(* ------------------------------------------------------------------ *)

type mock = {
  mutable clock : float;
  mutable script : A.event list list;
      (* responses for successive waits; once empty, waits advance the
         clock by their timeout and return nothing *)
  mutable wait_log : (int * int) list;  (* (reads, writes) per wait, reversed *)
  reg : (Unix.file_descr, int) Hashtbl.t;
      (* fd -> interest mask, maintained from src_mod transitions exactly
         as a production source would *)
}

let mock () =
  { clock = 0.0; script = []; wait_log = []; reg = Hashtbl.create 8 }

let mock_source m =
  {
    A.src_now = (fun () -> m.clock);
    src_mod =
      (fun fd events ->
        if events = 0 then Hashtbl.remove m.reg fd
        else Hashtbl.replace m.reg fd events);
    src_wait =
      (fun ~timeout_s ->
        let r, w =
          Hashtbl.fold
            (fun _ e (r, w) -> (r + (e land 1), w + ((e lsr 1) land 1)))
            m.reg (0, 0)
        in
        m.wait_log <- (r, w) :: m.wait_log;
        match m.script with
        | evs :: rest ->
            m.script <- rest;
            evs
        | [] -> (
            match timeout_s with
            | Some s ->
                m.clock <- m.clock +. s;
                []
            | None ->
                Alcotest.fail
                  "mock source: infinite wait with nothing scripted \
                   (scheduler would deadlock)"));
    src_wake = (fun () -> ());
    src_close = (fun () -> ());
  }

let run_mock m main =
  let t = A.create ~source:(mock_source m) () in
  A.run t main;
  t

(* a descriptor used only as an interest-table key; the mock never
   polls it, so any open fd works *)
let key_fd = Unix.stdin

(* ------------------------------------------------------------------ *)
(* Spawn / yield / resume ordering                                     *)
(* ------------------------------------------------------------------ *)

let test_spawn_order () =
  let log = ref [] in
  let say s = log := s :: !log in
  ignore
    (run_mock (mock ()) (fun () ->
         say "m1";
         ignore (A.spawn (fun () -> say "a"));
         ignore (A.spawn (fun () -> say "b"));
         say "m2"));
  Alcotest.(check (list string))
    "parent runs to completion before children, children in spawn order"
    [ "m1"; "m2"; "a"; "b" ] (List.rev !log)

let test_yield_round_robin () =
  let log = ref [] in
  ignore
    (run_mock (mock ()) (fun () ->
         let worker name () =
           for i = 1 to 3 do
             log := Printf.sprintf "%s%d" name i :: !log;
             A.yield ()
           done
         in
         ignore (A.spawn (worker "a"));
         ignore (A.spawn (worker "b"))));
  Alcotest.(check (list string))
    "yield interleaves fibers in strict FIFO rotation"
    [ "a1"; "b1"; "a2"; "b2"; "a3"; "b3" ]
    (List.rev !log)

let test_scheduler_drains () =
  let t =
    run_mock (mock ()) (fun () ->
        ignore (A.spawn (fun () -> A.yield ()));
        ignore (A.spawn (fun () -> ())))
  in
  Alcotest.(check int) "no live fibers after run returns" 0 (A.live_fibers t)

(* ------------------------------------------------------------------ *)
(* Timers                                                              *)
(* ------------------------------------------------------------------ *)

let test_timer_expiry_order () =
  let m = mock () in
  let log = ref [] in
  ignore
    (run_mock m (fun () ->
         let napper name d () =
           A.sleep d;
           log := (name, A.now ()) :: !log
         in
         ignore (A.spawn (napper "late" 0.3));
         ignore (A.spawn (napper "early" 0.1));
         ignore (A.spawn (napper "mid" 0.2))));
  Alcotest.(check (list string))
    "timers fire in deadline order, not spawn order"
    [ "early"; "mid"; "late" ]
    (List.rev_map fst !log);
  List.iter
    (fun (name, woke) ->
      let expect =
        match name with "early" -> 0.1 | "mid" -> 0.2 | _ -> 0.3
      in
      Alcotest.(check (float 1e-9))
        (name ^ " woke exactly at its deadline")
        expect woke)
    !log

let test_timer_ties_deterministic () =
  let log = ref [] in
  ignore
    (run_mock (mock ()) (fun () ->
         for i = 1 to 4 do
           ignore
             (A.spawn (fun () ->
                  A.sleep 0.5;
                  log := i :: !log))
         done));
  Alcotest.(check (list int))
    "equal deadlines resolve in insertion order" [ 1; 2; 3; 4 ]
    (List.rev !log)

(* ------------------------------------------------------------------ *)
(* Cancellation                                                        *)
(* ------------------------------------------------------------------ *)

let test_cancel_mid_read () =
  let m = mock () in
  let log = ref [] in
  ignore
    (run_mock m (fun () ->
         let reader =
           A.spawn (fun () ->
               match A.wait_readable key_fd with
               | _ -> log := "woke" :: !log
               | exception A.Cancelled -> log := "cancelled" :: !log)
         in
         ignore
           (A.spawn (fun () ->
                A.sleep 0.1;
                A.cancel reader));
         (* a third fiber forces one more wait after the cancel, so the
            interest table's state at that wait is observable *)
         ignore (A.spawn (fun () -> A.sleep 0.2))));
  Alcotest.(check (list string))
    "cancel delivers Cancelled at the suspension point" [ "cancelled" ]
    !log;
  (* waits, oldest first: first parked the reader's fd; every wait after
     the cancellation must show the interest deregistered *)
  let waits = List.rev m.wait_log in
  Alcotest.(check bool) "reader's fd was being watched" true
    (match waits with (r, _) :: _ -> r = 1 | [] -> false);
  (match List.rev waits with
  | (r, w) :: _ ->
      Alcotest.(check (pair int int))
        "cancelled waiter's interest removed from the poll set" (0, 0) (r, w)
  | [] -> Alcotest.fail "no waits recorded")

let test_cancel_finished_fiber_noop () =
  ignore
    (run_mock (mock ()) (fun () ->
         let f = A.spawn (fun () -> ()) in
         A.yield ();
         (* f already finished *)
         Alcotest.(check bool) "done" true (A.is_done f);
         A.cancel f;
         A.cancel f))

let test_cancel_before_first_step () =
  let log = ref [] in
  ignore
    (run_mock (mock ()) (fun () ->
         let f = A.spawn (fun () -> log := "ran" :: !log) in
         A.cancel f));
  Alcotest.(check (list string))
    "a fiber cancelled before its first step never runs" [] !log

(* ------------------------------------------------------------------ *)
(* Readiness and deadlines                                             *)
(* ------------------------------------------------------------------ *)

let test_scripted_readiness () =
  let m = mock () in
  m.script <- [ [ A.Ev_readable key_fd ] ];
  let got = ref `Deadline in
  ignore
    (run_mock m (fun () ->
         ignore (A.spawn (fun () -> got := A.wait_readable key_fd))));
  Alcotest.(check bool) "scripted event wakes the waiter" true
    (!got = `Ready)

let test_wait_deadline () =
  let m = mock () in
  let got = ref `Ready in
  ignore
    (run_mock m (fun () ->
         ignore
           (A.spawn (fun () ->
                got := A.wait_readable ~deadline:(A.now () +. 0.25) key_fd))));
  Alcotest.(check bool) "deadline expires an unready wait" true
    (!got = `Deadline);
  Alcotest.(check (float 1e-9)) "clock advanced exactly to the deadline" 0.25
    m.clock

let test_readiness_beats_deadline () =
  let m = mock () in
  m.script <- [ [ A.Ev_readable key_fd ] ];
  let got = ref `Deadline in
  ignore
    (run_mock m (fun () ->
         ignore
           (A.spawn (fun () ->
                got := A.wait_readable ~deadline:(A.now () +. 5.0) key_fd))));
  Alcotest.(check bool) "readiness before the deadline wins" true
    (!got = `Ready)

(* ------------------------------------------------------------------ *)
(* Promises                                                            *)
(* ------------------------------------------------------------------ *)

let test_promise_already_fulfilled () =
  let got = ref 0 in
  ignore
    (run_mock (mock ()) (fun () ->
         let p = A.promise () in
         A.fulfil p 41;
         A.fulfil p 99;
         (* first fulfil wins *)
         match A.await p with `Value v -> got := v | `Deadline -> ()));
  Alcotest.(check int) "await returns the first fulfilled value" 41 !got

let test_promise_fulfilled_by_other_fiber () =
  let got = ref 0 in
  ignore
    (run_mock (mock ()) (fun () ->
         let p = A.promise () in
         ignore
           (A.spawn (fun () ->
                A.sleep 0.1;
                A.fulfil p 7));
         ignore
           (A.spawn (fun () ->
                match A.await p with `Value v -> got := v | `Deadline -> ()))));
  Alcotest.(check int) "await suspends until fulfil" 7 !got

let test_promise_deadline () =
  let m = mock () in
  let timed_out = ref false in
  ignore
    (run_mock m (fun () ->
         let p : int A.promise = A.promise () in
         (match A.await ~deadline:(A.now () +. 0.5) p with
         | `Deadline -> timed_out := true
         | `Value _ -> ());
         (* a late fulfil after the deadline must be harmless *)
         A.fulfil p 1));
  Alcotest.(check bool) "await times out" true !timed_out

let test_promise_every_waiter_woken () =
  (* many fibers may park on one promise (the proxy's topology barrier
     parks every relay on one change): one fulfil wakes them all *)
  let woken = ref [] in
  ignore
    (run_mock (mock ()) (fun () ->
         let p = A.promise () in
         let waiter name () =
           match A.await ~deadline:(A.now () +. 1.0) p with
           | `Value v -> woken := (name, v) :: !woken
           | `Deadline -> ()
         in
         ignore (A.spawn (waiter "a"));
         ignore (A.spawn (waiter "b"));
         ignore
           (A.spawn (fun () ->
                A.sleep 0.1;
                A.fulfil p 5))));
  Alcotest.(check (list (pair string int)))
    "fulfil wakes both waiters before their deadlines"
    [ ("a", 5); ("b", 5) ]
    (List.sort compare !woken)

(* ------------------------------------------------------------------ *)
(* Mailboxes                                                           *)
(* ------------------------------------------------------------------ *)

let test_mailbox_fifo_and_close () =
  let got = ref [] in
  ignore
    (run_mock (mock ()) (fun () ->
         let mb = A.Mailbox.create () in
         ignore
           (A.spawn (fun () ->
                let rec loop () =
                  match A.Mailbox.take mb with
                  | Some v ->
                      got := v :: !got;
                      loop ()
                  | None -> got := -1 :: !got
                in
                loop ()));
         ignore
           (A.spawn (fun () ->
                List.iter (fun v -> ignore (A.Mailbox.put mb v)) [ 1; 2; 3 ];
                A.Mailbox.close mb))));
  Alcotest.(check (list int))
    "items in order, then end-of-stream" [ 1; 2; 3; -1 ] (List.rev !got)

let test_mailbox_backpressure () =
  let log = ref [] in
  ignore
    (run_mock (mock ()) (fun () ->
         let mb = A.Mailbox.create ~capacity:1 () in
         ignore
           (A.spawn (fun () ->
                for i = 1 to 3 do
                  ignore (A.Mailbox.put mb i);
                  log := Printf.sprintf "put%d" i :: !log
                done;
                A.Mailbox.close mb));
         ignore
           (A.spawn (fun () ->
                let rec loop () =
                  match A.Mailbox.take mb with
                  | Some v ->
                      log := Printf.sprintf "take%d" v :: !log;
                      loop ()
                  | None -> ()
                in
                loop ()))));
  Alcotest.(check (list string))
    "a full mailbox parks the putter until the taker drains"
    [ "put1"; "take1"; "put2"; "take2"; "put3"; "take3" ]
    (List.rev !log);
  ()

let test_mailbox_put_after_close () =
  let ok = ref true in
  ignore
    (run_mock (mock ()) (fun () ->
         let mb = A.Mailbox.create () in
         A.Mailbox.close mb;
         ok := A.Mailbox.put mb 1));
  Alcotest.(check bool) "put to a closed mailbox returns false" false !ok

(* ------------------------------------------------------------------ *)
(* qcheck: every interleaving runs every fiber exactly once            *)
(* ------------------------------------------------------------------ *)

let prop_interleaving =
  QCheck.Test.make
    ~name:"N fibers x K yields: every fiber completes exactly once"
    ~count:100
    QCheck.(list_of_size Gen.(1 -- 20) (int_bound 25))
    (fun yields ->
      let n = List.length yields in
      let completions = Array.make n 0 in
      let m = mock () in
      let t = A.create ~source:(mock_source m) () in
      A.run t (fun () ->
          List.iteri
            (fun i k ->
              ignore
                (A.spawn (fun () ->
                     for _ = 1 to k do
                       A.yield ()
                     done;
                     (* an occasional timer mixes timer wakeups into the
                        interleaving without breaking determinism *)
                     if k mod 3 = 0 then A.sleep (float_of_int k *. 0.01);
                     completions.(i) <- completions.(i) + 1)))
            yields);
      A.live_fibers t = 0
      && Array.for_all (fun c -> c = 1) completions)

(* ------------------------------------------------------------------ *)
(* Real poll(2) source: self-pipe wake and pipe readiness              *)
(* ------------------------------------------------------------------ *)

let test_poll_source_pipe_readiness () =
  let r, w = Unix.pipe () in
  Unix.set_nonblock r;
  let got = ref "" in
  let t = A.create () in
  A.run t (fun () ->
      ignore
        (A.spawn (fun () ->
             let buf = Bytes.create 16 in
             match A.read r buf 0 16 with
             | `Data n -> got := Bytes.sub_string buf 0 n
             | `Eof | `Deadline -> ()));
      ignore
        (A.spawn (fun () ->
             A.sleep 0.02;
             ignore (Unix.write w (Bytes.of_string "hello") 0 5))));
  Unix.close r;
  Unix.close w;
  Alcotest.(check string) "poll wakes the reader when bytes arrive" "hello"
    !got

let test_poll_source_cross_thread_fulfil () =
  let got = ref 0 in
  let t = A.create () in
  let p = A.promise_on t in
  let th =
    Thread.create
      (fun () ->
        Thread.delay 0.02;
        A.fulfil p 42)
      ()
  in
  A.run t (fun () ->
      match A.await p with `Value v -> got := v | `Deadline -> ());
  Thread.join th;
  Alcotest.(check int) "a foreign thread resumes a fiber via the self-pipe"
    42 !got

let test_poll_source_wall_deadline () =
  let t0 = Unix.gettimeofday () in
  let t = A.create () in
  let outcome = ref `Ready in
  let r, w = Unix.pipe () in
  Unix.set_nonblock r;
  A.run t (fun () ->
      outcome := A.wait_readable ~deadline:(A.now () +. 0.05) r);
  Unix.close r;
  Unix.close w;
  Alcotest.(check bool) "deadline fired" true (!outcome = `Deadline);
  Alcotest.(check bool) "deadline respected wall time" true
    (Unix.gettimeofday () -. t0 >= 0.045)

(* ------------------------------------------------------------------ *)
(* Outside any fiber: the same calls block the thread                  *)
(* ------------------------------------------------------------------ *)

let test_outside_fiber_blocks () =
  let t0 = Unix.gettimeofday () in
  A.sleep 0.02;
  Alcotest.(check bool) "sleep blocks the thread for 20 ms" true
    (Unix.gettimeofday () -. t0 >= 0.0199);
  let r, w = Unix.pipe () in
  Unix.set_nonblock r;
  Fun.protect
    ~finally:(fun () ->
      Unix.close r;
      Unix.close w)
    (fun () ->
      Alcotest.(check bool) "an empty pipe waits out the deadline" true
        (A.wait_readable ~deadline:(A.now () +. 0.02) r = `Deadline);
      ignore (Unix.write_substring w "x" 0 1);
      let buf = Bytes.create 8 in
      Alcotest.(check bool) "read returns the written byte" true
        (A.read ~deadline:(A.now () +. 1.0) r buf 0 8 = `Data 1))

let tests =
  [
    Alcotest.test_case "spawn: parent first, children in order" `Quick
      test_spawn_order;
    Alcotest.test_case "yield: strict FIFO rotation" `Quick
      test_yield_round_robin;
    Alcotest.test_case "run returns with zero live fibers" `Quick
      test_scheduler_drains;
    Alcotest.test_case "timers fire in deadline order" `Quick
      test_timer_expiry_order;
    Alcotest.test_case "timer ties resolve in insertion order" `Quick
      test_timer_ties_deterministic;
    Alcotest.test_case "cancel mid-read wakes with Cancelled" `Quick
      test_cancel_mid_read;
    Alcotest.test_case "cancel on a finished fiber is a no-op" `Quick
      test_cancel_finished_fiber_noop;
    Alcotest.test_case "cancel before first step kills the fiber" `Quick
      test_cancel_before_first_step;
    Alcotest.test_case "scripted readiness wakes the waiter" `Quick
      test_scripted_readiness;
    Alcotest.test_case "wait deadline expires" `Quick test_wait_deadline;
    Alcotest.test_case "readiness beats a later deadline" `Quick
      test_readiness_beats_deadline;
    Alcotest.test_case "promise: fulfilled before await" `Quick
      test_promise_already_fulfilled;
    Alcotest.test_case "promise: fulfilled by another fiber" `Quick
      test_promise_fulfilled_by_other_fiber;
    Alcotest.test_case "promise: await deadline" `Quick test_promise_deadline;
    Alcotest.test_case "promise: every waiter woken" `Quick
      test_promise_every_waiter_woken;
    Alcotest.test_case "mailbox: FIFO then end-of-stream" `Quick
      test_mailbox_fifo_and_close;
    Alcotest.test_case "mailbox: capacity-1 backpressure" `Quick
      test_mailbox_backpressure;
    Alcotest.test_case "mailbox: put after close" `Quick
      test_mailbox_put_after_close;
    QCheck_alcotest.to_alcotest prop_interleaving;
    Alcotest.test_case "poll source: pipe readiness" `Quick
      test_poll_source_pipe_readiness;
    Alcotest.test_case "poll source: cross-thread fulfil" `Quick
      test_poll_source_cross_thread_fulfil;
    Alcotest.test_case "poll source: wall-clock deadline" `Quick
      test_poll_source_wall_deadline;
    Alcotest.test_case "outside a fiber: waits block the thread" `Quick
      test_outside_fiber_blocks;
  ]
