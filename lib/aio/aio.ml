(* Single-domain fiber scheduler.  See aio.mli for the model.

   Discipline that keeps the engine correct:

   - Wakers fire at most once.  Every suspended continuation is held by
     a waker carrying a fired flag; readiness, timer expiry, posting and
     cancellation all race to the same [fire], and the first caller wins
     — the rest see [w_fired] and do nothing.  Losing wakeup conditions
     are deregistered by the waker's cleanup (descriptor interest,
     promise hooks) or skipped lazily when met (timer heap entries,
     mailbox waiter queues).

   - Wakers schedule, never run.  [fire] enqueues the resumption on the
     ready queue; continuations are only continued from the scheduler
     loop, so fiber stacks never nest and a wakeup delivered from inside
     another fiber's step cannot re-enter that fiber.

   - Exactly two thread-safe entry points: [post] and [fulfil].  Both
     funnel through the posted queue (mutex + source wake); everything
     else is single-threaded on the loop and needs no locks. *)

module M = Obs.Metrics

exception Cancelled

(* ------------------------------------------------------------------ *)
(* poll(2) source                                                      *)
(* ------------------------------------------------------------------ *)

type event =
  | Ev_readable of Unix.file_descr
  | Ev_writable of Unix.file_descr

type source = {
  src_now : unit -> float;
  src_mod : Unix.file_descr -> int -> unit;
      (* interest transition: bit 1 read, bit 2 write, 0 = forget *)
  src_wait : timeout_s:float option -> event list;
  src_wake : unit -> unit;
  src_close : unit -> unit;
}

external poll_stub : int array -> int array -> int array -> int -> int -> int
  = "cedar_aio_poll"

external epoll_create_stub : unit -> int = "cedar_aio_epoll_create"

external epoll_ctl_stub : int -> int -> int -> int -> int
  = "cedar_aio_epoll_ctl"

external epoll_wait_stub : int -> int array -> int array -> int -> int -> int
  = "cedar_aio_epoll_wait"

external raise_fd_limit : unit -> int = "cedar_aio_raise_nofile"

(* Unix.file_descr is the raw int on Unix *)
external fd_int : Unix.file_descr -> int = "%identity"
external int_fd : int -> Unix.file_descr = "%identity"

let poll_fd fd dir ~timeout_s =
  let fds = [| fd_int fd |] in
  let evs = [| (match dir with `Read -> 1 | `Write -> 2) |] in
  let revs = [| 0 |] in
  let timeout_ms =
    if timeout_s < 0.0 then -1
    else int_of_float (Float.min (ceil (timeout_s *. 1000.0)) 86_400_000.0)
  in
  poll_stub fds evs revs 1 timeout_ms > 0

(* self-pipe shared by both production sources.  Every wake writes a
   byte, unconditionally: a clear-flag-then-drain coalescing scheme has
   a latching race — a wake landing between the clear and the read has
   its byte eaten by that same drain, leaving the flag claiming a byte
   is pending when the pipe is empty, after which every wake is a no-op
   and cross-thread completions stall until an unrelated event happens
   to wake the loop.  A full pipe is the one safe coalescing signal:
   EAGAIN on write means a wakeup is already unavoidable. *)
let make_wake_pipe () =
  let pipe_r, pipe_w = Unix.pipe () in
  Unix.set_nonblock pipe_r;
  Unix.set_nonblock pipe_w;
  let drain_buf = Bytes.create 256 in
  let drain () =
    let rec go () =
      match Unix.read pipe_r drain_buf 0 (Bytes.length drain_buf) with
      | n when n = Bytes.length drain_buf -> go ()
      | _ -> ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error (_, _, _) -> ()
    in
    go ()
  in
  let wake_buf = Bytes.of_string "x" in
  let wake () =
    try ignore (Unix.write pipe_w wake_buf 0 1) with Unix.Unix_error _ -> ()
  in
  let close () =
    (try Unix.close pipe_r with Unix.Unix_error _ -> ());
    try Unix.close pipe_w with Unix.Unix_error _ -> ()
  in
  (pipe_r, drain, wake, close)

let timeout_ms_of = function
  | None -> -1
  | Some s when s <= 0.0 -> 0
  | Some s -> int_of_float (Float.min (ceil (s *. 1000.0)) 86_400_000.0)

let poll_source () =
  let pipe_r, drain, src_wake, src_close = make_wake_pipe () in
  let pipe_key = fd_int pipe_r in
  (* parallel pollfd arrays maintained incrementally: [slot] maps fd to
     its index, removal swaps the last entry in, so src_mod is O(1) and
     src_wait touches no interest list at all *)
  let cap = ref 64 in
  let n = ref 0 in
  let fds = ref (Array.make !cap 0) in
  let evs = ref (Array.make !cap 0) in
  let revs = ref (Array.make !cap 0) in
  let slot = Hashtbl.create 64 in
  let add fd events =
    if !n = !cap then begin
      let c = !cap * 2 in
      let fds' = Array.make c 0 and evs' = Array.make c 0 in
      Array.blit !fds 0 fds' 0 !n;
      Array.blit !evs 0 evs' 0 !n;
      fds := fds';
      evs := evs';
      revs := Array.make c 0;
      cap := c
    end;
    !fds.(!n) <- fd;
    !evs.(!n) <- events;
    Hashtbl.replace slot fd !n;
    incr n
  in
  let src_mod fd events =
    let fd = fd_int fd in
    match Hashtbl.find_opt slot fd with
    | Some i ->
        if events = 0 then begin
          Hashtbl.remove slot fd;
          let last = !n - 1 in
          if i <> last then begin
            !fds.(i) <- !fds.(last);
            !evs.(i) <- !evs.(last);
            Hashtbl.replace slot !fds.(i) i
          end;
          n := last
        end
        else !evs.(i) <- events
    | None -> if events <> 0 then add fd events
  in
  add pipe_key 1;
  let src_wait ~timeout_s =
    let count = !n in
    let fds = !fds and evs = !evs and revs = !revs in
    let ready = poll_stub fds evs revs count (timeout_ms_of timeout_s) in
    if ready = 0 then []
    else begin
      let out = ref [] in
      for j = count - 1 downto 0 do
        let re = revs.(j) in
        if re <> 0 then
          if fds.(j) = pipe_key then drain ()
          else begin
            if re land 1 <> 0 then out := Ev_readable (int_fd fds.(j)) :: !out;
            if re land 2 <> 0 then out := Ev_writable (int_fd fds.(j)) :: !out
          end
      done;
      !out
    end
  in
  { src_now = Unix.gettimeofday; src_mod; src_wait; src_wake; src_close }

let epoll_source () =
  let ep = epoll_create_stub () in
  if ep < 0 then None
  else begin
    let pipe_r, drain, src_wake, close_pipe = make_wake_pipe () in
    let pipe_key = fd_int pipe_r in
    ignore (epoll_ctl_stub ep 1 pipe_key 1);
    (* [registered] mirrors the kernel set only to pick add vs mod vs
       del; the scheduler already dedups no-op transitions *)
    let registered = Hashtbl.create 64 in
    let src_mod fd events =
      let fd = fd_int fd in
      if events = 0 then begin
        if Hashtbl.mem registered fd then begin
          Hashtbl.remove registered fd;
          ignore (epoll_ctl_stub ep 0 fd 0)
        end
      end
      else if Hashtbl.mem registered fd then begin
        Hashtbl.replace registered fd events;
        if epoll_ctl_stub ep 2 fd events < 0 then
          ignore (epoll_ctl_stub ep 1 fd events)
      end
      else begin
        Hashtbl.add registered fd events;
        if epoll_ctl_stub ep 1 fd events < 0 then
          ignore (epoll_ctl_stub ep 2 fd events)
      end
    in
    (* level-triggered, so ready fds beyond the batch just surface on
       the next wait *)
    let max_ev = 512 in
    let out_fds = Array.make max_ev 0 in
    let out_revs = Array.make max_ev 0 in
    let src_wait ~timeout_s =
      let nready =
        epoll_wait_stub ep out_fds out_revs max_ev (timeout_ms_of timeout_s)
      in
      if nready <= 0 then []
      else begin
        let out = ref [] in
        for j = nready - 1 downto 0 do
          let fd = out_fds.(j) in
          if fd = pipe_key then drain ()
          else begin
            let re = out_revs.(j) in
            if re land 1 <> 0 then out := Ev_readable (int_fd fd) :: !out;
            if re land 2 <> 0 then out := Ev_writable (int_fd fd) :: !out
          end
        done;
        !out
      end
    in
    let src_close () =
      close_pipe ();
      try Unix.close (int_fd ep) with Unix.Unix_error _ -> ()
    in
    Some { src_now = Unix.gettimeofday; src_mod; src_wait; src_wake; src_close }
  end

(* ------------------------------------------------------------------ *)
(* Core types                                                          *)
(* ------------------------------------------------------------------ *)

(* why a suspended fiber was woken; [Suspend] continuations receive it *)
type reason = Wready | Wtimeout | Wcancelled | Wposted

type fiber = {
  f_id : int;
  mutable f_cancelled : bool;
  mutable f_done : bool;
  mutable f_waker : waker option;  (* set while suspended *)
}

and waker = {
  w_fiber : fiber;
  mutable w_fired : bool;
  mutable w_cleanup : unit -> unit;
  mutable w_k : (reason, unit) Effect.Deep.continuation option;
}

type task =
  | T_start of fiber * (unit -> unit)
  | T_resume of waker * reason
  | T_thunk of (unit -> unit)  (* posted from another thread *)

type t = {
  src : source;
  ready : task Queue.t;
  timers : waker Machine.Heap.t;
  reads : (int, waker list ref) Hashtbl.t;
  writes : (int, waker list ref) Hashtbl.t;
  masks : (int, int) Hashtbl.t;  (* last mask pushed to src_mod, per fd *)
  posted : (unit -> unit) Queue.t;
  posted_mu : Mutex.t;
  mutable live : int;
  mutable next_id : int;
  mutable finished : bool;
  mutable started : bool;
}

(* ------------------------------------------------------------------ *)
(* Instruments                                                         *)
(* ------------------------------------------------------------------ *)

let m_fibers_live =
  M.gauge M.global ~help:"fibers currently live across aio schedulers"
    "aio_fibers_live"

let m_wakeups =
  M.counter M.global ~help:"fiber wakeups scheduled (resumptions enqueued)"
    "aio_wakeups_total"

let m_ready_depth =
  M.histogram M.global
    ~help:"ready-queue depth at each scheduler iteration"
    ~buckets:[ 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0; 128.0; 256.0; 1024.0 ]
    "aio_ready_queue_depth"

(* ------------------------------------------------------------------ *)
(* Effects                                                             *)
(* ------------------------------------------------------------------ *)

type _ Effect.t +=
  | Suspend : (t -> waker -> unit) -> reason Effect.t
        (* park this fiber; the argument registers wakeup conditions *)
  | Spawn : (unit -> unit) -> fiber Effect.t
  | Yield : reason Effect.t
  | Self : (t * fiber) Effect.t  (* introspection; continues immediately *)

(* ------------------------------------------------------------------ *)
(* Scheduler internals (loop thread only)                              *)
(* ------------------------------------------------------------------ *)

let fire t w reason =
  if not w.w_fired then begin
    w.w_fired <- true;
    let cleanup = w.w_cleanup in
    w.w_cleanup <- ignore;
    cleanup ();
    w.w_fiber.f_waker <- None;
    M.incr m_wakeups;
    Queue.push (T_resume (w, reason)) t.ready
  end

let new_fiber t =
  let fb =
    { f_id = t.next_id; f_cancelled = false; f_done = false; f_waker = None }
  in
  t.next_id <- t.next_id + 1;
  fb

let spawn_on t body =
  let fb = new_fiber t in
  t.live <- t.live + 1;
  M.add_gauge m_fibers_live 1.0;
  Queue.push (T_start (fb, body)) t.ready;
  fb

let cancel_on t fb =
  if not fb.f_done then begin
    fb.f_cancelled <- true;
    match fb.f_waker with Some w -> fire t w Wcancelled | None -> ()
  end

let fiber_done t fb =
  fb.f_done <- true;
  fb.f_waker <- None;
  t.live <- t.live - 1;
  M.add_gauge m_fibers_live (-1.0)

let add_timer t ~at w = Machine.Heap.push t.timers ~time:at w

(* push the fd's combined interest mask to the source iff it changed;
   every mutation of t.reads/t.writes below is followed by one of these *)
let sync_interest t key =
  let m =
    (if Hashtbl.mem t.reads key then 1 else 0)
    lor if Hashtbl.mem t.writes key then 2 else 0
  in
  let cur =
    match Hashtbl.find_opt t.masks key with Some c -> c | None -> 0
  in
  if m <> cur then begin
    if m = 0 then Hashtbl.remove t.masks key
    else Hashtbl.replace t.masks key m;
    t.src.src_mod (int_fd key) m
  end

let add_interest t tbl fd w =
  let key = fd_int fd in
  (match Hashtbl.find_opt tbl key with
  | Some l -> l := w :: !l
  | None -> Hashtbl.add tbl key (ref [ w ]));
  sync_interest t key

let remove_interest t tbl fd w =
  let key = fd_int fd in
  match Hashtbl.find_opt tbl key with
  | None -> ()
  | Some l ->
      l := List.filter (fun w' -> not (w' == w)) !l;
      if !l = [] then begin
        Hashtbl.remove tbl key;
        sync_interest t key
      end

let fire_fd t tbl fd =
  match Hashtbl.find_opt tbl (fd_int fd) with
  | None -> ()
  | Some l ->
      let waiters = !l in
      Hashtbl.remove tbl (fd_int fd);
      sync_interest t (fd_int fd);
      List.iter (fun w -> fire t w Wready) waiters

let fire_due_timers t now =
  let rec go () =
    match Machine.Heap.peek_time t.timers with
    | Some at when at <= now -> (
        match Machine.Heap.pop t.timers with
        | Some (_, w) ->
            if not w.w_fired then fire t w Wtimeout;
            go ()
        | None -> ())
    | _ -> ()
  in
  go ()

let on_fiber_error = ref (fun exn ->
    Printf.eprintf "aio: fiber died: %s\n%!" (Printexc.to_string exn))

let run_fiber t fb body =
  let open Effect.Deep in
  match_with
    (fun () ->
      if fb.f_cancelled then raise Cancelled;
      body ())
    ()
    {
      retc = (fun () -> fiber_done t fb);
      exnc =
        (fun e ->
          fiber_done t fb;
          match e with Cancelled -> () | e -> !on_fiber_error e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend register ->
              Some
                (fun (k : (a, unit) continuation) ->
                  let w =
                    { w_fiber = fb; w_fired = false; w_cleanup = ignore;
                      w_k = Some k }
                  in
                  fb.f_waker <- Some w;
                  if fb.f_cancelled then fire t w Wcancelled
                  else register t w)
          | Spawn body' ->
              Some (fun (k : (a, unit) continuation) ->
                  continue k (spawn_on t body'))
          | Yield ->
              Some
                (fun (k : (a, unit) continuation) ->
                  let w =
                    { w_fiber = fb; w_fired = false; w_cleanup = ignore;
                      w_k = Some k }
                  in
                  fb.f_waker <- Some w;
                  fire t w (if fb.f_cancelled then Wcancelled else Wposted))
          | Self ->
              Some (fun (k : (a, unit) continuation) -> continue k (t, fb))
          | _ -> None);
    }

let run_task t = function
  | T_start (fb, body) -> run_fiber t fb body
  | T_resume (w, reason) -> (
      match w.w_k with
      | Some k ->
          w.w_k <- None;
          Effect.Deep.continue k reason
      | None -> ())
  | T_thunk f -> f ()

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let create ?source () =
  let src =
    match source with
    | Some s -> s
    | None -> (
        match epoll_source () with Some s -> s | None -> poll_source ())
  in
  {
    src;
    ready = Queue.create ();
    timers = Machine.Heap.create ();
    reads = Hashtbl.create 64;
    writes = Hashtbl.create 16;
    masks = Hashtbl.create 64;
    posted = Queue.create ();
    posted_mu = Mutex.create ();
    live = 0;
    next_id = 0;
    finished = false;
    started = false;
  }

let post t f =
  Mutex.lock t.posted_mu;
  let drop = t.finished in
  if not drop then Queue.push f t.posted;
  Mutex.unlock t.posted_mu;
  if not drop then t.src.src_wake ()

let drain_posted t =
  Mutex.lock t.posted_mu;
  let n = Queue.length t.posted in
  for _ = 1 to n do
    Queue.push (T_thunk (Queue.pop t.posted)) t.ready
  done;
  Mutex.unlock t.posted_mu

let posted_pending t =
  Mutex.lock t.posted_mu;
  let p = not (Queue.is_empty t.posted) in
  Mutex.unlock t.posted_mu;
  p

let run t main =
  if t.started then invalid_arg "Aio.run: scheduler already run";
  t.started <- true;
  ignore (spawn_on t main);
  let rec step () =
    drain_posted t;
    if not (Queue.is_empty t.ready) then begin
      M.observe m_ready_depth (float_of_int (Queue.length t.ready));
      (* run exactly the tasks queued now; tasks they enqueue run in the
         next round, after a fresh look at the posted queue *)
      let n = Queue.length t.ready in
      for _ = 1 to n do
        run_task t (Queue.pop t.ready)
      done;
      step ()
    end
    else if t.live > 0 then begin
      let now = t.src.src_now () in
      fire_due_timers t now;
      if Queue.is_empty t.ready && not (posted_pending t) then begin
        let timeout_s =
          match Machine.Heap.peek_time t.timers with
          | None -> None
          | Some at -> Some (Float.max 0.0 (at -. now))
        in
        let events = t.src.src_wait ~timeout_s in
        List.iter
          (function
            | Ev_readable fd -> fire_fd t t.reads fd
            | Ev_writable fd -> fire_fd t t.writes fd)
          events;
        fire_due_timers t (t.src.src_now ())
      end;
      step ()
    end
  in
  step ();
  Mutex.lock t.posted_mu;
  t.finished <- true;
  Mutex.unlock t.posted_mu;
  t.src.src_close ()

let live_fibers t = t.live

(* ------------------------------------------------------------------ *)
(* Fiber context                                                       *)
(* ------------------------------------------------------------------ *)

let perform = Effect.perform
let spawn body = perform (Spawn body)

let yield () =
  match perform Yield with Wcancelled -> raise Cancelled | _ -> ()

let context () = perform Self
let self () = snd (context ())
let scheduler () = fst (context ())

(* Outside any fiber [perform] raises [Effect.Unhandled] at the call
   site.  The waits below catch it and block the calling thread instead:
   the wall clock, [Unix.sleepf] and poll(2), up to the same absolute
   deadline a fiber would be given. *)
let now () =
  match context () with
  | t, _ -> t.src.src_now ()
  | exception Effect.Unhandled _ -> Unix.gettimeofday ()

let cancel fb =
  let t = scheduler () in
  cancel_on t fb

let is_done fb = fb.f_done

let sleep d =
  match context () with
  | exception Effect.Unhandled _ -> Unix.sleepf (Float.max 0.0 d)
  | t, _ -> (
      let at = t.src.src_now () +. Float.max 0.0 d in
      match perform (Suspend (fun t w -> add_timer t ~at w)) with
      | Wcancelled -> raise Cancelled
      | _ -> ())

(* the thread path of [wait_dir]: poll(2) returns 0 both on timeout and
   when a signal interrupts it, so "no event before the deadline" is
   read off the clock; an early return is a spurious [`Ready] *)
let block_dir dir ?deadline fd =
  let timeout_s =
    match deadline with
    | None -> -1.0
    | Some at -> Float.max 0.0 (at -. Unix.gettimeofday ())
  in
  if poll_fd fd dir ~timeout_s then `Ready
  else
    match deadline with
    | Some at when Unix.gettimeofday () >= at -> `Deadline
    | _ -> `Ready

let wait_dir dir ?deadline fd =
  match
    perform
      (Suspend
         (fun t w ->
           let tbl = match dir with `Read -> t.reads | `Write -> t.writes in
           add_interest t tbl fd w;
           (match deadline with
           | Some at -> add_timer t ~at w
           | None -> ());
           w.w_cleanup <- (fun () -> remove_interest t tbl fd w)))
  with
  | Wready -> `Ready
  | Wtimeout -> `Deadline
  | Wcancelled -> raise Cancelled
  | Wposted -> `Ready (* spurious; callers re-check the descriptor *)
  | exception Effect.Unhandled _ -> block_dir dir ?deadline fd

let wait_readable ?deadline fd = wait_dir `Read ?deadline fd
let wait_writable ?deadline fd = wait_dir `Write ?deadline fd

let rec read ?deadline fd buf off len =
  match Unix.read fd buf off len with
  | 0 -> `Eof
  | n -> `Data n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read ?deadline fd buf off len
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> (
      match wait_readable ?deadline fd with
      | `Ready -> read ?deadline fd buf off len
      | `Deadline -> `Deadline)
  | exception Unix.Unix_error (_, _, _) -> `Eof

let write_all ?deadline fd buf off len =
  let rec go off len =
    if len <= 0 then `Ok
    else
      match Unix.write fd buf off len with
      | n -> go (off + n) (len - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off len
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
        -> (
          match wait_writable ?deadline fd with
          | `Ready -> go off len
          | `Deadline -> `Deadline)
      | exception Unix.Unix_error (_, _, _) -> `Closed
  in
  go off len

let rec accept ?deadline fd =
  match Unix.accept fd with
  | conn, addr -> `Conn (conn, addr)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept ?deadline fd
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED), _, _)
    -> (
      match wait_readable ?deadline fd with
      | `Ready -> accept ?deadline fd
      | `Deadline -> `Deadline)
  | exception Unix.Unix_error (e, _, _) -> `Error e

(* ------------------------------------------------------------------ *)
(* Promises: the cross-thread completion bridge                        *)
(* ------------------------------------------------------------------ *)

type 'a promise = {
  pr_t : t;
  pr_mu : Mutex.t;
  mutable pr_value : 'a option;
  mutable pr_waiters : waker list;  (* every fiber parked in [await] *)
}

let promise_on t =
  { pr_t = t; pr_mu = Mutex.create (); pr_value = None; pr_waiters = [] }

let promise () = promise_on (scheduler ())

let fulfil p v =
  Mutex.lock p.pr_mu;
  let waiters =
    match p.pr_value with
    | Some _ -> [] (* first fulfil won *)
    | None ->
        p.pr_value <- Some v;
        let ws = p.pr_waiters in
        p.pr_waiters <- [];
        ws
  in
  Mutex.unlock p.pr_mu;
  match waiters with
  | [] -> ()
  | ws -> post p.pr_t (fun () -> List.iter (fun w -> fire p.pr_t w Wposted) ws)

let await ?deadline p =
  Mutex.lock p.pr_mu;
  match p.pr_value with
  | Some v ->
      Mutex.unlock p.pr_mu;
      `Value v
  | None -> (
      Mutex.unlock p.pr_mu;
      let reason =
        perform
          (Suspend
             (fun t w ->
               Mutex.lock p.pr_mu;
               match p.pr_value with
               | Some _ ->
                   (* fulfilled between the fast path and here *)
                   Mutex.unlock p.pr_mu;
                   fire t w Wposted
               | None ->
                   p.pr_waiters <- w :: p.pr_waiters;
                   Mutex.unlock p.pr_mu;
                   (match deadline with
                   | Some at -> add_timer t ~at w
                   | None -> ());
                   w.w_cleanup <-
                     (fun () ->
                       Mutex.lock p.pr_mu;
                       p.pr_waiters <-
                         List.filter (fun w' -> w' != w) p.pr_waiters;
                       Mutex.unlock p.pr_mu)))
      in
      match reason with
      | Wtimeout -> `Deadline
      | Wcancelled -> raise Cancelled
      | Wready | Wposted -> (
          Mutex.lock p.pr_mu;
          let v = p.pr_value in
          Mutex.unlock p.pr_mu;
          match v with Some v -> `Value v | None -> assert false))

(* ------------------------------------------------------------------ *)
(* Mailboxes                                                           *)
(* ------------------------------------------------------------------ *)

module Mailbox = struct
  type 'a mb = {
    q : 'a Queue.t;
    cap : int;
    mutable closed : bool;
    mutable hw : int;
    takers : waker Queue.t;
    putters : waker Queue.t;
  }

  let create ?(capacity = max_int) () =
    if capacity < 1 then invalid_arg "Aio.Mailbox.create";
    {
      q = Queue.create ();
      cap = capacity;
      closed = false;
      hw = 0;
      takers = Queue.create ();
      putters = Queue.create ();
    }

  (* fired wakers linger in the waiter queues (their wakeup was won by a
     timer or a cancel); skip them lazily *)
  let rec wake_one t waiters =
    match Queue.take_opt waiters with
    | None -> ()
    | Some w -> if w.w_fired then wake_one t waiters else fire t w Wposted

  let wake_all t waiters =
    while not (Queue.is_empty waiters) do
      wake_one t waiters
    done

  let block_on waiters =
    match perform (Suspend (fun _t w -> Queue.push w waiters)) with
    | Wcancelled -> raise Cancelled
    | _ -> ()

  let put mb v =
    let t = scheduler () in
    let rec go () =
      if mb.closed then false
      else if Queue.length mb.q < mb.cap then begin
        Queue.push v mb.q;
        if Queue.length mb.q > mb.hw then mb.hw <- Queue.length mb.q;
        wake_one t mb.takers;
        true
      end
      else begin
        block_on mb.putters;
        go ()
      end
    in
    go ()

  let take mb =
    let t = scheduler () in
    let rec go () =
      match Queue.take_opt mb.q with
      | Some v ->
          wake_one t mb.putters;
          Some v
      | None ->
          if mb.closed then None
          else begin
            block_on mb.takers;
            go ()
          end
    in
    go ()

  (* non-suspending take: what lets a consumer drain everything already
     queued in one scheduler pass (the writer's cork) without risking a
     park when the mailbox runs dry *)
  let take_opt mb =
    match Queue.take_opt mb.q with
    | Some v ->
        wake_one (scheduler ()) mb.putters;
        Some v
    | None -> None

  let close mb =
    let t = scheduler () in
    if not mb.closed then begin
      mb.closed <- true;
      wake_all t mb.takers;
      wake_all t mb.putters
    end

  let length mb = Queue.length mb.q
  let high_water mb = mb.hw
end
