(* cedarnet TCP front-end.  See server.mli for the contract.

   The front end owns everything that happens per connection; a handler
   decides what each request frame means.  cedard's handler ([create])
   admits submits into a Service.Server; Cluster.Proxy's relays them to
   shards.  Both serve the wire through this file.

   Fiber structure (one Aio scheduler on one event-loop thread):

   - one accept fiber owning the listening socket;
   - the loops other modules start through [spawn] (the proxy's
     membership prober, the metrics endpoint), cancelled with the
     accept fiber;
   - per connection, three fibers: a reader (decodes frames off the
     non-blocking socket through Wire.Stream and hands each request to
     the handler without waiting on earlier replies — pipelining), a
     responder (awaits each deferred request's reply in order and
     enqueues it), and a writer (the single point that touches the
     socket for output, so partial non-blocking writes from different
     producers can never interleave).  Immediate replies and shed
     verdicts go straight from the reader to the writer's queue.

   Work that does not answer at once (a job on the Service.Server
   domain pool, a proxy relay fiber) is started by a [Defer] action,
   which returns a promise the work fulfils; the fulfilment posts the
   responder's wakeup through the scheduler's completion queue.  No OS
   thread ever parks per request.

   Read deadlines are event-loop timers, not SO_RCVTIMEO (which is
   meaningless on a non-blocking descriptor): a connection with no
   partial frame buffered carries no deadline at all — ten thousand
   idle connections cost three suspended fibers and a poll slot each —
   while the moment the first byte of a frame arrives, the reader arms
   one absolute deadline for the whole frame, which is what defeats the
   1-byte-per-second slow-loris sender a per-read socket timeout never
   catches.

   Budget accounting: [inflight] counts deferred requests started and
   not yet replied to, across all connections, CAS-reserved against the
   budget (excess requests shed with the handler's overload reply,
   never queued); the high-water mark proves the bound held.  Both stay
   atomics because the reservation compares and sets them.  [shed] and
   [conns_seen] are children of net_shed_total and net_connections_total
   (Obs.Metrics.child): one increment counts for this server and for the
   process, and stats readers on other threads read them lock-free. *)

module M = Obs.Metrics
module Fault = Service.Fault

type cfg = {
  host : string;
  port : int;
  max_conns : int;
  max_inflight : int;
  max_source_bytes : int;
  read_timeout_s : float;
  write_timeout_s : float;
}

let default_cfg =
  {
    host = "127.0.0.1";
    port = 0;
    max_conns = 64;
    max_inflight = 256;
    max_source_bytes = 8 * 1024 * 1024;
    read_timeout_s = 30.0;
    write_timeout_s = 30.0;
  }

(* a topology change pushed down from the cluster proxy; the handler
   (wired by cedard when it runs as a shard) returns the verdict and the
   epoch-like generation the change produced *)
type cluster_change = [ `Add of string * string * int | `Remove of string ]

type action =
  | Reply of Wire.message
  | Defer of {
      overload : Wire.message;
      trace : int;
      start : unit -> Wire.message Aio.promise option;
    }

type pending = {
  pd_id : int;  (* request id to echo *)
  pd_reply : Wire.message Aio.promise;
  pd_trace : int;
  pd_start : float;
}

(* what the writer fiber is asked to put on the wire *)
type out_item =
  | O_reply of int * Wire.message  (* a frame to encode, with its id *)
  | O_kill of string
      (* chaos: write these raw bytes (possibly a truncated or garbage
         frame), then drop the connection *)

type conn = {
  c_fd : Unix.file_descr;
  c_pending : pending Aio.Mailbox.mb;
  c_out : out_item Aio.Mailbox.mb;
  mutable c_dead : bool;  (* stop writing: write fault or IO error *)
  mutable c_alive : int;  (* reader + responder + writer still running *)
}

type t = {
  cfg : cfg;
  fault : Fault.t;
  handle : Wire.message -> action;
  listen_fd : Unix.file_descr;
  bound_port : int;
  sched : Aio.t;
  stop : bool Atomic.t;
  draining : bool Atomic.t;
  inflight : int Atomic.t;
  inflight_hw : int Atomic.t;
  shed : M.counter;
  conns_seen : M.counter;
  scratch : Bytes.t;
      (* shared read buffer: fibers never suspend between reading into
         it and feeding the stream, so one buffer serves every
         connection — per-conn memory stays flat *)
  mutable conns : conn list;  (* loop thread only *)
  mutable fibers : Aio.fiber list;
      (* loop thread only: the accept fiber and every [spawn]ed one,
         all cancelled when a stop is requested *)
  mutable loop_thread : Thread.t option;
}

(* ------------------------------------------------------------------ *)
(* Registry instruments                                                *)
(* ------------------------------------------------------------------ *)

let m_conns_total =
  M.counter M.global ~help:"connections accepted" "net_connections_total"

let m_conns_active =
  M.gauge M.global ~help:"connections currently served" "net_connections_active"

let m_requests =
  M.counter M.global ~help:"wire requests received" "net_requests_total"

let m_shed =
  M.counter M.global
    ~help:"requests and connections answered Overloaded (load shed)"
    "net_shed_total"

let m_too_large =
  M.counter M.global ~help:"submits rejected by the source-size cap"
    "net_too_large_total"

let m_bad_frames =
  M.counter M.global ~help:"frames that failed to decode" "net_frames_bad_total"

let m_inflight =
  M.gauge M.global ~help:"deferred requests started and not yet replied to"
    "net_requests_inflight"

let m_request_seconds =
  M.histogram M.global ~help:"wire request latency, admit to reply written"
    "net_request_seconds"

let m_flushes =
  M.counter M.global ~help:"batched socket flushes (one write per batch)"
    "net_flushes_total"

let m_flushed_frames =
  M.counter M.global ~help:"reply frames coalesced into batched flushes"
    "net_flushed_frames_total"

let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* Writing (a single writer fiber per connection, so the chaos write
   faults cover every reply and partial writes never interleave)       *)
(* ------------------------------------------------------------------ *)

let kill_conn conn =
  conn.c_dead <- true;
  try Unix.shutdown conn.c_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

let send t conn ~id msg =
  if not conn.c_dead then
    if Fault.fire t.fault Fault.Trunc_write then begin
      (* cut the frame in half and drop the connection: the client must
         fail typed (Truncated/Eof), never hang or crash *)
      let s = Wire.encode ~id msg in
      ignore
        (Aio.Mailbox.put conn.c_out
           (O_kill (String.sub s 0 (String.length s / 2))))
    end
    else if Fault.fire t.fault Fault.Garbage_frame then
      ignore
        (Aio.Mailbox.put conn.c_out
           (O_kill (String.make Wire.header_bytes '\xa5')))
    else ignore (Aio.Mailbox.put conn.c_out (O_reply (id, msg)))

(* forward-declared so the three connection fibers can share it *)
let conn_finished t conn =
  conn.c_alive <- conn.c_alive - 1;
  if conn.c_alive = 0 then begin
    (try Unix.close conn.c_fd with Unix.Unix_error _ -> ());
    M.add_gauge m_conns_active (-1.0);
    t.conns <- List.filter (fun c -> not (c == conn)) t.conns
  end

(* The writer corks: a blocking take yields the first item, then
   everything already queued behind it in the same scheduler pass is
   drained with [take_opt], each reply encoded straight after the one
   before into the connection's one buffer, and the batch goes out in
   ONE write — N pipelined replies cost one syscall, not N.  A batch
   stops taking replies at [Wire.max_batch_bytes], so a pipelined burst
   of multi-MB results still flushes in bounded contiguous memory.  A
   chaos [O_kill] ends the batch: the frames queued before it flush (in
   order, in the same write), its raw bytes go last, and the connection
   drops. *)
let writer t conn =
  let out = Wire.create_buffer () in
  let rec loop () =
    match Aio.Mailbox.take conn.c_out with
    | None -> ()
    | Some first ->
        if conn.c_dead then loop ()
        else begin
          let frames = ref 0 and kill = ref false in
          let add = function
            | O_reply (id, msg) ->
                Wire.append out ~id msg;
                incr frames
            | O_kill s ->
                Wire.append_raw out s;
                kill := true
          in
          add first;
          let rec drain () =
            if (not !kill) && Wire.buffer_length out < Wire.max_batch_bytes
            then
              match Aio.Mailbox.take_opt conn.c_out with
              | None -> ()
              | Some item ->
                  add item;
                  drain ()
          in
          drain ();
          let deadline =
            if t.cfg.write_timeout_s > 0.0 then
              Some (Aio.now () +. t.cfg.write_timeout_s)
            else None
          in
          (* counted before the write so a client that has read the
             whole batch is guaranteed to observe the flush *)
          M.incr m_flushes;
          M.incr ~by:!frames m_flushed_frames;
          let len = Wire.buffer_length out in
          (match
             Aio.write_all ?deadline conn.c_fd (Wire.buffer_bytes out) 0 len
           with
          | `Ok -> M.incr ~by:len Wire.bytes_written
          | `Deadline | `Closed -> kill_conn conn);
          Wire.clear out;
          if !kill then kill_conn conn;
          loop ()
        end
  in
  loop ();
  conn_finished t conn

(* ------------------------------------------------------------------ *)
(* Request dispatch                                                    *)
(* ------------------------------------------------------------------ *)

(* loop thread only *)
let cancel_fibers t = List.iter (Aio.cancel_on t.sched) t.fibers

(* CAS admission against the in-flight budget *)
let rec try_reserve t =
  let cur = Atomic.get t.inflight in
  if cur >= t.cfg.max_inflight then false
  else if Atomic.compare_and_set t.inflight cur (cur + 1) then begin
    let rec bump_hw () =
      let hw = Atomic.get t.inflight_hw in
      if cur + 1 > hw then
        if Atomic.compare_and_set t.inflight_hw hw (cur + 1) then ()
        else bump_hw ()
    in
    bump_hw ();
    M.add_gauge m_inflight 1.0;
    true
  end
  else try_reserve t

let release t =
  Atomic.decr t.inflight;
  M.add_gauge m_inflight (-1.0)

(* a deferred request holds one unit of the budget from here until the
   responder has written its reply; with the budget spent, or when the
   handler's backend cannot take the work, it is shed with the handler's
   own refusal *)
let shed t conn ~id overload =
  M.incr t.shed;
  send t conn ~id overload

let defer t conn ~id ~overload ~trace start =
  if not (try_reserve t) then shed t conn ~id overload
  else
    match start () with
    | None ->
        release t;
        shed t conn ~id overload
    | Some reply ->
        ignore
          (Aio.Mailbox.put conn.c_pending
             { pd_id = id; pd_reply = reply; pd_trace = trace;
               pd_start = now () })

let dispatch t conn ~id msg =
  match msg with
  | Wire.Ping ->
      send t conn ~id Wire.Pong;
      `Continue
  | Wire.Shutdown_req ->
      send t conn ~id Wire.Shutdown_ack;
      Atomic.set t.stop true;
      (* wake the accept fiber so the stop is noticed immediately, and
         stop the spawned loops *)
      cancel_fibers t;
      `Close
  | Wire.Pong | Wire.Result _ | Wire.Stats_text _ | Wire.Metrics_text _
  | Wire.Shutdown_ack | Wire.Cache_ack _ | Wire.Stats_json _
  | Wire.Members_json _ | Wire.Cluster_ack _ ->
      send t conn ~id
        (Wire.Result
           (Wire.R_error
              (Printf.sprintf "unexpected %s frame from a client"
                 (Wire.message_kind_name msg))));
      `Close
  | Wire.Submit _ | Wire.Stats_req | Wire.Metrics_req | Wire.Stats_json_req
  | Wire.Cache_push _ | Wire.Members_req | Wire.Cluster_add _
  | Wire.Cluster_remove _ ->
      (match msg with Wire.Submit _ -> M.incr m_requests | _ -> ());
      (match t.handle msg with
      | Reply m -> send t conn ~id m
      | Defer { overload; trace; start } ->
          defer t conn ~id ~overload ~trace start);
      `Continue

(* ------------------------------------------------------------------ *)
(* Connection fibers                                                   *)
(* ------------------------------------------------------------------ *)

let reader t conn =
  let cap =
    if t.cfg.max_source_bytes > 0 then t.cfg.max_source_bytes + 4096
    else Wire.hard_max_payload
  in
  let stream = Wire.Stream.create ~max_payload:cap () in
  (* one absolute deadline per frame, armed when its first byte arrives
     and dropped when the frame completes: idle connections carry no
     timer at all, and a sender trickling a header one byte a second
     runs out of road [read_timeout_s] after it started *)
  let frame_deadline = ref None in
  let update_deadline () =
    if Wire.Stream.midframe stream then begin
      if !frame_deadline = None && t.cfg.read_timeout_s > 0.0 then
        frame_deadline := Some (Aio.now () +. t.cfg.read_timeout_s)
    end
    else frame_deadline := None
  in
  let rec loop () =
    if conn.c_dead || Atomic.get t.draining then ()
    else
      match Wire.Stream.next stream with
      | `Frame (id, msg) -> (
          update_deadline ();
          match dispatch t conn ~id msg with
          | `Continue -> loop ()
          | `Close -> ())
      | `Oversized (id, got) ->
          (* drained in constant memory: reject typed, keep the stream *)
          update_deadline ();
          M.incr m_requests;
          M.incr m_too_large;
          send t conn ~id (Wire.Result (Wire.R_too_large { limit = cap; got }));
          loop ()
      | `Fail err ->
          (* a frame that does not decode leaves the stream position
             unknowable; answer typed and drop the connection *)
          M.incr m_bad_frames;
          send t conn ~id:0
            (Wire.Result (Wire.R_error (Wire.error_to_string err)))
      | `Need_more -> (
          update_deadline ();
          if Fault.fire t.fault Fault.Read_stall then
            Aio.sleep (Fault.delay_s t.fault);
          match
            Aio.read ?deadline:!frame_deadline conn.c_fd t.scratch 0
              (Bytes.length t.scratch)
          with
          | `Data n ->
              M.incr ~by:n Wire.bytes_read;
              Wire.Stream.feed stream t.scratch 0 n;
              loop ()
          | `Eof -> ()
          | `Deadline ->
              (* the frame deadline expired mid-request: the sender
                 stalled, so the connection is dropped *)
              kill_conn conn)
  in
  (try loop () with _ -> ());
  (* no more requests will be admitted: the responder finishes the
     pending replies, then the writer flushes and the last fiber out
     closes the socket *)
  Aio.Mailbox.close conn.c_pending;
  conn_finished t conn

let responder t conn =
  let rec loop () =
    match Aio.Mailbox.take conn.c_pending with
    | None -> ()
    | Some p ->
        let reply =
          match Aio.await p.pd_reply with
          | `Value m -> m
          | `Deadline -> assert false (* no deadline on reply waits *)
        in
        send t conn ~id:p.pd_id reply;
        release t;
        M.observe m_request_seconds (now () -. p.pd_start);
        if p.pd_trace <> 0 then
          Obs.Trace.with_trace_id p.pd_trace (fun () ->
              Obs.Trace.completed ~start_s:p.pd_start ~stop_s:(now ())
                ~attrs:[ ("request_id", string_of_int p.pd_id) ]
                "net_request");
        loop ()
  in
  (try loop () with _ -> ());
  Aio.Mailbox.close conn.c_out;
  conn_finished t conn

(* ------------------------------------------------------------------ *)
(* Accept fiber                                                        *)
(* ------------------------------------------------------------------ *)

let handle_accept t fd =
  if Atomic.get t.stop then (
    try Unix.close fd with Unix.Unix_error _ -> ())
  else begin
    M.incr t.conns_seen;
    if Fault.fire t.fault Fault.Accept_drop then (
      try Unix.close fd with Unix.Unix_error _ -> ())
    else if List.length t.conns >= t.cfg.max_conns then begin
      (* connection budget exhausted: one explicit Overloaded frame,
         then the door closes — nothing queues.  A small fiber writes
         the verdict so a slow receiver cannot stall the accept loop. *)
      M.incr t.shed;
      Unix.set_nonblock fd;
      ignore
        (Aio.spawn (fun () ->
             let s = Wire.encode ~id:0 (Wire.Result Wire.R_overloaded) in
             let b = Bytes.unsafe_of_string s in
             ignore
               (Aio.write_all
                  ~deadline:(Aio.now () +. 5.0)
                  fd b 0 (Bytes.length b));
             try Unix.close fd with Unix.Unix_error _ -> ()))
    end
    else begin
      Unix.set_nonblock fd;
      (try Unix.setsockopt fd Unix.TCP_NODELAY true
       with Unix.Unix_error _ -> ());
      let conn =
        {
          c_fd = fd;
          c_pending = Aio.Mailbox.create ~capacity:(t.cfg.max_inflight + 4) ();
          c_out = Aio.Mailbox.create ();
          c_dead = false;
          c_alive = 3;
        }
      in
      t.conns <- conn :: t.conns;
      M.add_gauge m_conns_active 1.0;
      ignore (Aio.spawn (fun () -> writer t conn));
      ignore (Aio.spawn (fun () -> responder t conn));
      ignore (Aio.spawn (fun () -> reader t conn))
    end
  end

let accept_loop t =
  try
    let rec loop () =
      if Atomic.get t.stop then ()
      else
        match Aio.accept t.listen_fd with
        | `Conn (fd, _addr) ->
            handle_accept t fd;
            loop ()
        | `Deadline -> loop ()
        | `Error _ -> Atomic.set t.stop true
    in
    loop ()
  with Aio.Cancelled -> ()

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let serve ?(fault = Fault.none) cfg handle =
  (* a peer that disappears mid-write must surface as EPIPE, not kill
     the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port) in
  (try Unix.bind listen_fd addr
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise e);
  Unix.listen listen_fd 256;
  Unix.set_nonblock listen_fd;
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> cfg.port
  in
  let t =
    {
      cfg;
      fault;
      handle;
      listen_fd;
      bound_port;
      sched = Aio.create ();
      stop = Atomic.make false;
      draining = Atomic.make false;
      inflight = Atomic.make 0;
      inflight_hw = Atomic.make 0;
      shed = M.child m_shed;
      conns_seen = M.child m_conns_total;
      scratch = Bytes.create 65536;
      conns = [];
      fibers = [];
      loop_thread = None;
    }
  in
  t.loop_thread <-
    Some
      (Thread.create
         (fun () ->
           Aio.run t.sched (fun () ->
               t.fibers <- Aio.self () :: t.fibers;
               accept_loop t))
         ());
  t

(* ------------------------------------------------------------------ *)
(* cedard's handler: requests answered by a Service.Server             *)
(* ------------------------------------------------------------------ *)

let reply_of_outcome trace (outcome : Service.Server.outcome) =
  match outcome with
  | Service.Server.Done { payload; cached } ->
      Wire.R_done
        {
          r_cached = cached;
          r_rung = payload.Service.Server.p_rung;
          r_text = payload.Service.Server.p_text;
          r_cycles = payload.Service.Server.p_cycles;
          r_global_words = payload.Service.Server.p_global_words;
          r_notes = List.map Wire.note_of_report payload.Service.Server.p_reports;
          r_trace = trace;
        }
  | Service.Server.Failed msg -> Wire.R_failed msg
  | Service.Server.Timeout -> Wire.R_timeout
  | Service.Server.Cancelled -> Wire.R_cancelled

let submit cfg svc (s : Wire.submit) =
  let got = String.length s.Wire.sub_source in
  if cfg.max_source_bytes > 0 && got > cfg.max_source_bytes then begin
    (* request hygiene: typed rejection before the source reaches a
       parser — and before it reaches the service at all *)
    M.incr m_too_large;
    Reply (Wire.Result (Wire.R_too_large { limit = cfg.max_source_bytes; got }))
  end
  else
    let trace =
      if s.Wire.sub_trace <> 0 then s.Wire.sub_trace
      else if Obs.Trace.enabled () then Obs.Trace.fresh_trace_id ()
      else 0
    in
    let request =
      {
        Service.Server.req_name = s.Wire.sub_name;
        req_source = s.Wire.sub_source;
        req_options = s.Wire.sub_options;
      }
    in
    (* the service queue itself may have no room: [None] sheds, never
       blocks.  Otherwise the worker domain that resolves the ticket
       fulfils the reply promise (the completion-queue bridge). *)
    let start () =
      Service.Server.try_submit ~trace svc request
      |> Option.map (fun ticket ->
             let reply = Aio.promise () in
             Service.Server.on_resolve ticket (fun o ->
                 Aio.fulfil reply (Wire.Result (reply_of_outcome trace o)));
             reply)
    in
    Defer { overload = Wire.Result Wire.R_overloaded; trace; start }

(* a topology change pushed down from the proxy: a shard that
   replicates re-aims its successor pushes at the new ring *)
let cluster_ack on_cluster_change change =
  let ok, epoch, msg =
    match on_cluster_change with
    | Some f -> f change
    | None -> (false, 0, "shard runs without a cluster view")
  in
  Reply (Wire.Cluster_ack { ack_ok = ok; ack_epoch = epoch; ack_msg = msg })

let handle_service ?on_cluster_change cfg svc msg =
  match msg with
  | Wire.Submit s -> submit cfg svc s
  | Wire.Stats_req ->
      Reply
        (Wire.Stats_text (Service.Stats.to_string (Service.Server.stats svc)))
  | Wire.Metrics_req -> Reply (Wire.Metrics_text (M.dump M.global))
  | Wire.Stats_json_req ->
      Reply
        (Wire.Stats_json (Service.Stats.to_json (Service.Server.stats svc)))
  | Wire.Cache_push p ->
      (* warm-cache replication from a ring peer: verify + admit, then
         ack with the verdict.  The payload is rebuilt exactly as the
         origin's cache held it; fields that never crossed the wire come
         back empty, same as the reply path. *)
      let payload =
        {
          Service.Server.p_name = p.Wire.cp_name;
          p_text = p.Wire.cp_text;
          p_reports = List.map Wire.report_of_note p.Wire.cp_notes;
          p_cycles = p.Wire.cp_cycles;
          p_global_words = p.Wire.cp_global_words;
          p_rung = Service.Server.Full;
        }
      in
      Reply
        (Wire.Cache_ack
           (Service.Server.admit_replica svc ~key:p.Wire.cp_key
              ~digest:p.Wire.cp_digest payload))
  | Wire.Members_req ->
      (* membership lives in the proxy; a plain shard has no view *)
      Reply (Wire.Result (Wire.R_error "not a cluster proxy: no membership view"))
  | Wire.Cluster_add a ->
      cluster_ack on_cluster_change
        (`Add (a.Wire.ca_id, a.Wire.ca_host, a.Wire.ca_port))
  | Wire.Cluster_remove sid -> cluster_ack on_cluster_change (`Remove sid)
  | _ ->
      (* Ping, Shutdown_req and reply kinds are answered by the front end
         and never reach a handler *)
      Reply (Wire.Result (Wire.R_error "not a request"))

let create ?fault ?on_cluster_change cfg svc =
  serve ?fault cfg (handle_service ?on_cluster_change cfg svc)

let port t = t.bound_port

let request_stop t =
  Atomic.set t.stop true;
  (* cancel the accept fiber and the spawned ones; posting is safe from
     any thread and a no-op once the loop has already finished *)
  Aio.post t.sched (fun () -> cancel_fibers t)

(* the fiber starts on the loop thread; one spawned after the stop
   request is cancelled before its first step *)
let spawn t f =
  Aio.post t.sched (fun () ->
      let fiber = Aio.spawn_on t.sched f in
      t.fibers <- fiber :: t.fibers;
      if Atomic.get t.stop then Aio.cancel_on t.sched fiber)

let stop_requested t = Atomic.get t.stop

let wait_stop t =
  while not (Atomic.get t.stop) do
    Thread.delay 0.05
  done

let drain t =
  if not (Atomic.exchange t.draining true) then begin
    request_stop t;
    (* on the loop thread (so it cannot race handle_accept): stop the
       readers — no new requests — but keep the writers, so in-flight
       requests finish and their replies flush before the loop drains *)
    Aio.post t.sched (fun () ->
        List.iter
          (fun c ->
            try Unix.shutdown c.c_fd Unix.SHUTDOWN_RECEIVE
            with Unix.Unix_error _ -> ())
          t.conns);
    (match t.loop_thread with
    | Some th ->
        Thread.join th;
        t.loop_thread <- None
    | None -> ());
    try Unix.close t.listen_fd with Unix.Unix_error _ -> ()
  end

let connections_seen t = M.counter_value t.conns_seen
let inflight_high_water t = Atomic.get t.inflight_hw
let shed_total t = M.counter_value t.shed
