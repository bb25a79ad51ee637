type cfg = {
  host : string;
  port : int;
  connect_timeout_s : float;
  request_timeout_s : float;
  max_attempts : int;
  backoff_s : float;
  backoff_jitter : float;
  backoff_seed : int;
}

let default_cfg ~port =
  {
    host = "127.0.0.1";
    port;
    connect_timeout_s = 5.0;
    request_timeout_s = 120.0;
    max_attempts = 5;
    backoff_s = 0.1;
    backoff_jitter = 0.5;
    backoff_seed = 0x5eed;
  }

module M = Obs.Metrics

(* one live connection: the non-blocking socket and the decoder holding
   whatever part of the reply stream has arrived *)
type conn = { fd : Unix.file_descr; stream : Wire.Stream.t }

type t = {
  cfg : cfg;
  instance : int;  (* decorrelates jitter streams across clients *)
  buf : Bytes.t;  (* read buffer, fed into the connection's stream *)
  out : Wire.buffer;  (* each request is encoded here *)
  mutable conn : conn option;
  mutable next_id : int;
}

(* ------------------------------------------------------------------ *)
(* Jittered backoff                                                    *)
(* ------------------------------------------------------------------ *)

(* splitmix64 finalizer (same mixer as Service.Fault): one pass is
   enough to turn (seed, instance, attempt) into decorrelated bits *)
let mix64 z =
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 30))
      0xbf58476d1ce4e5b9L
  in
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94d049bb133111ebL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Deterministic jittered exponential backoff.  The naive doubling
   schedule reconnects every waiting client in lockstep after a server
   restart (thundering herd); spreading each step uniformly over
   [base*2^k*(1-j), base*2^k*(1+j)) breaks the synchrony while keeping
   the same expected delay.  Pure so tests can pin the schedule. *)
let backoff_delay cfg ~instance ~attempt =
  let base = cfg.backoff_s *. (2.0 ** float_of_int (max 0 (attempt - 1))) in
  let j = max 0.0 (min 1.0 cfg.backoff_jitter) in
  if j = 0.0 then base
  else
    let bits =
      mix64
        (Int64.of_int (cfg.backoff_seed lxor (instance * 0x1000003) lxor attempt))
    in
    (* 53 uniform bits -> u in [0, 1) *)
    let u =
      Int64.to_float (Int64.shift_right_logical bits 11) /. 9007199254740992.0
    in
    base *. (1.0 -. j +. (2.0 *. j *. u))

let instance_counter = Atomic.make 0

(* ------------------------------------------------------------------ *)
(* Connection establishment                                            *)
(* ------------------------------------------------------------------ *)

(* Non-blocking connect: a down host fails within [connect_timeout_s]
   instead of the kernel's minutes-long default.  The socket stays
   non-blocking, so every later wait goes through Aio. *)
let connect_once cfg =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let fail msg =
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error msg
  in
  match Unix.inet_addr_of_string cfg.host with
  | exception Failure _ -> fail (Printf.sprintf "bad host %S" cfg.host)
  | addr -> (
      Unix.set_nonblock fd;
      let deadline = Aio.now () +. cfg.connect_timeout_s in
      let established =
        match Unix.connect fd (Unix.ADDR_INET (addr, cfg.port)) with
        | () -> Ok ()
        | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) -> (
            match Aio.wait_writable ~deadline fd with
            | exception e ->
                (* cancelled: the fiber dies, the socket must not leak *)
                (try Unix.close fd with Unix.Unix_error _ -> ());
                raise e
            | `Deadline ->
                Error
                  (Printf.sprintf "timed out after %.1fs" cfg.connect_timeout_s)
            | `Ready -> (
                match Unix.getsockopt_error fd with
                | Some e -> Error (Unix.error_message e)
                | None -> Ok ()))
        | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
      in
      match established with
      | Error msg ->
          fail (Printf.sprintf "connect %s:%d: %s" cfg.host cfg.port msg)
      | Ok () ->
          (try Unix.setsockopt fd Unix.TCP_NODELAY true
           with Unix.Unix_error _ -> ());
          Ok { fd; stream = Wire.Stream.create () })

let connect_with_backoff ~instance cfg =
  let rec go attempt =
    match connect_once cfg with
    | Ok c -> Ok c
    | Error msg ->
        if attempt >= cfg.max_attempts then
          Error
            (Printf.sprintf "giving up after %d attempts: %s" cfg.max_attempts
               msg)
        else begin
          Aio.sleep (backoff_delay cfg ~instance ~attempt);
          go (attempt + 1)
        end
  in
  go 1

let connect cfg =
  let instance = Atomic.fetch_and_add instance_counter 1 in
  match connect_with_backoff ~instance cfg with
  | Ok c ->
      Ok
        {
          cfg;
          instance;
          buf = Bytes.create 16384;
          out = Wire.create_buffer ();
          conn = Some c;
          next_id = 1;
        }
  | Error _ as e -> e

let close t =
  match t.conn with
  | None -> ()
  | Some c ->
      t.conn <- None;
      (try Unix.close c.fd with Unix.Unix_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Request/reply                                                       *)
(* ------------------------------------------------------------------ *)

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let current_conn t =
  match t.conn with
  | Some c -> Ok c
  | None -> (
      match connect_with_backoff ~instance:t.instance t.cfg with
      | Ok c ->
          t.conn <- Some c;
          Ok c
      | Error _ as e -> e)

(* One attempt: send the frame, then read until the frame echoing [id]
   (or an unsolicited id-0 reply such as the accept-time Overloaded
   shed) comes off the stream.  One absolute deadline bounds the whole
   round trip, however the reply's bytes trickle in.  [`Retry] means the
   connection is dead and the request may be resent on a fresh one;
   [`Fatal] means retrying cannot help. *)
let attempt t c ~id msg =
  let deadline =
    if t.cfg.request_timeout_s > 0.0 then
      Some (Aio.now () +. t.cfg.request_timeout_s)
    else None
  in
  let timed_out () =
    `Fatal
      (Printf.sprintf "request timed out after %.1fs" t.cfg.request_timeout_s)
  in
  (* emptied before the frame as well as after it: a cancelled fiber
     raises out of the write and skips the clear after it *)
  Wire.clear t.out;
  Wire.append t.out ~id msg;
  let len = Wire.buffer_length t.out in
  let sent = Aio.write_all ?deadline c.fd (Wire.buffer_bytes t.out) 0 len in
  Wire.clear t.out;
  match sent with
  | `Closed -> `Retry "send: connection closed"
  | `Deadline -> timed_out ()
  | `Ok ->
      M.incr ~by:len Wire.bytes_written;
      let rec await () =
        match Wire.Stream.next c.stream with
        | `Frame (rid, reply) when rid = id || rid = 0 -> `Ok reply
        | `Frame _ -> await () (* stale reply from a past id *)
        | `Oversized (_, got) ->
            `Fatal (Printf.sprintf "reply too large: %d bytes" got)
        | `Fail err -> `Retry (Wire.error_to_string err)
        | `Need_more -> (
            match Aio.read ?deadline c.fd t.buf 0 (Bytes.length t.buf) with
            | `Data n ->
                M.incr ~by:n Wire.bytes_read;
                Wire.Stream.feed c.stream t.buf 0 n;
                await ()
            | `Eof ->
                `Retry
                  (if Wire.Stream.midframe c.stream then
                     Wire.error_to_string Wire.Truncated
                   else "connection closed by server")
            | `Deadline -> timed_out ())
      in
      await ()

let request t msg =
  let id = fresh_id t in
  (* a failed attempt closes the connection: it is dead ([`Retry]) or
     mid-conversation ([`Fatal]: half a frame sent, or a reply due) *)
  let run c =
    let r = attempt t c ~id msg in
    (match r with `Ok _ -> () | `Fatal _ | `Retry _ -> close t);
    r
  in
  match current_conn t with
  | Error _ as e -> e
  | Ok c -> (
      match run c with
      | `Ok reply -> Ok reply
      | `Fatal msg -> Error msg
      | `Retry why -> (
          (* reconnect with backoff and resend exactly once: the server
             side is idempotent (content-addressed cache) *)
          match current_conn t with
          | Error msg ->
              Error (Printf.sprintf "%s; reconnect failed: %s" why msg)
          | Ok c -> (
              match run c with
              | `Ok reply -> Ok reply
              | `Fatal msg -> Error msg
              | `Retry msg ->
                  Error (Printf.sprintf "%s; after reconnect: %s" why msg))))

let unexpected what got =
  Error
    (Printf.sprintf "expected %s, got %s frame" what
       (Wire.message_kind_name got))

let ping t =
  let t0 = Unix.gettimeofday () in
  match request t Wire.Ping with
  | Ok Wire.Pong -> Ok (Unix.gettimeofday () -. t0)
  | Ok (Wire.Result (Wire.R_error m)) -> Error m
  | Ok other -> unexpected "Pong" other
  | Error _ as e -> e

let submit ?(trace = 0) t ~name ~options source =
  let msg =
    Wire.Submit
      {
        Wire.sub_name = name;
        sub_source = source;
        sub_options = options;
        sub_trace = trace;
      }
  in
  match request t msg with
  | Ok (Wire.Result reply) -> Ok reply
  | Ok other -> unexpected "Result" other
  | Error _ as e -> e

let metrics t =
  match request t Wire.Metrics_req with
  | Ok (Wire.Metrics_text s) -> Ok s
  | Ok (Wire.Result (Wire.R_error m)) -> Error m
  | Ok other -> unexpected "Metrics_text" other
  | Error _ as e -> e

let members t =
  match request t Wire.Members_req with
  | Ok (Wire.Members_json s) -> Ok s
  | Ok (Wire.Result (Wire.R_error m)) -> Error m
  | Ok other -> unexpected "Members_json" other
  | Error _ as e -> e

let cluster_add t (a : Wire.cluster_add) =
  match request t (Wire.Cluster_add a) with
  | Ok (Wire.Cluster_ack ack) -> Ok ack
  | Ok (Wire.Result (Wire.R_error m)) -> Error m
  | Ok other -> unexpected "Cluster_ack" other
  | Error _ as e -> e

let cluster_remove t shard_id =
  match request t (Wire.Cluster_remove shard_id) with
  | Ok (Wire.Cluster_ack ack) -> Ok ack
  | Ok (Wire.Result (Wire.R_error m)) -> Error m
  | Ok other -> unexpected "Cluster_ack" other
  | Error _ as e -> e

let cache_push t (p : Wire.cache_push) =
  match request t (Wire.Cache_push p) with
  | Ok (Wire.Cache_ack admitted) -> Ok admitted
  | Ok (Wire.Result (Wire.R_error m)) -> Error m
  | Ok other -> unexpected "Cache_ack" other
  | Error _ as e -> e

let shutdown t =
  match request t Wire.Shutdown_req with
  | Ok Wire.Shutdown_ack -> Ok ()
  | Ok (Wire.Result (Wire.R_error m)) -> Error m
  | Ok other -> unexpected "Shutdown_ack" other
  | Error _ as e -> e

(* ------------------------------------------------------------------ *)
(* Closed-loop socket driver                                           *)
(* ------------------------------------------------------------------ *)

type drive_cfg = {
  requests : int;
  conns : int;
  seed : int;
  size_jitter : int;
  batch : int;
  validate : bool;
  target : Codegen.Target.t;
}

let default_drive_cfg =
  { requests = 200; conns = 4; seed = 42; size_jitter = 4; batch = 4;
    validate = false; target = Codegen.Target.Cedar }

type drive_summary = {
  d_requests : int;
  d_done : int;
  d_cached : int;
  d_failed : int;
  d_timeout : int;
  d_cancelled : int;
  d_overloaded : int;
  d_too_large : int;
  d_errors : int;
  d_latencies : float array;
  d_wall_s : float;
}

type acc = {
  mutable a_done : int;
  mutable a_cached : int;
  mutable a_failed : int;
  mutable a_timeout : int;
  mutable a_cancelled : int;
  mutable a_overloaded : int;
  mutable a_too_large : int;
  mutable a_errors : int;
  mutable a_latencies : float list;
}

(* every connection is a fiber on one private scheduler: a client call
   suspends only its own fiber, so the accumulator and the shared
   request counter need no lock *)
let drive cfg dcfg =
  let acc =
    {
      a_done = 0;
      a_cached = 0;
      a_failed = 0;
      a_timeout = 0;
      a_cancelled = 0;
      a_overloaded = 0;
      a_too_large = 0;
      a_errors = 0;
      a_latencies = [];
    }
  in
  let next = ref 0 in
  let take () =
    let i = !next in
    incr next;
    if i < dcfg.requests then Some i else None
  in
  let record reply dt =
    acc.a_latencies <- dt :: acc.a_latencies;
    match reply with
    | Wire.R_done { r_cached; _ } ->
        acc.a_done <- acc.a_done + 1;
        if r_cached then acc.a_cached <- acc.a_cached + 1
    | Wire.R_failed _ -> acc.a_failed <- acc.a_failed + 1
    | Wire.R_timeout -> acc.a_timeout <- acc.a_timeout + 1
    | Wire.R_cancelled -> acc.a_cancelled <- acc.a_cancelled + 1
    | Wire.R_overloaded -> acc.a_overloaded <- acc.a_overloaded + 1
    | Wire.R_too_large _ -> acc.a_too_large <- acc.a_too_large + 1
    | Wire.R_error _ -> acc.a_errors <- acc.a_errors + 1
  in
  let worker () =
    match connect cfg with
    | Error _ ->
        (* count every request this connection would have taken as a
           transport error, so the totals still add up *)
        let rec burn () =
          match take () with
          | Some _ ->
              acc.a_errors <- acc.a_errors + 1;
              burn ()
          | None -> ()
        in
        burn ()
    | Ok client ->
        let rec loop () =
          match take () with
          | None -> ()
          | Some i ->
              let req =
                Service.Traffic.nth_request ~validate:dcfg.validate
                  ~target:dcfg.target
                  ~seed:dcfg.seed ~size_jitter:dcfg.size_jitter
                  ~batch:dcfg.batch i
              in
              let t0 = Unix.gettimeofday () in
              (match
                 submit client ~name:req.Service.Server.req_name
                   ~options:req.Service.Server.req_options
                   req.Service.Server.req_source
               with
              | Ok reply -> record reply (Unix.gettimeofday () -. t0)
              | Error _ -> acc.a_errors <- acc.a_errors + 1);
              loop ()
        in
        loop ();
        close client
  in
  let t0 = Unix.gettimeofday () in
  Aio.run (Aio.create ()) (fun () ->
      for _ = 1 to max 1 dcfg.conns do
        ignore (Aio.spawn worker)
      done);
  let wall = Unix.gettimeofday () -. t0 in
  let lat = Array.of_list acc.a_latencies in
  Array.sort compare lat;
  {
    d_requests = dcfg.requests;
    d_done = acc.a_done;
    d_cached = acc.a_cached;
    d_failed = acc.a_failed;
    d_timeout = acc.a_timeout;
    d_cancelled = acc.a_cancelled;
    d_overloaded = acc.a_overloaded;
    d_too_large = acc.a_too_large;
    d_errors = acc.a_errors;
    d_latencies = lat;
    d_wall_s = wall;
  }

let percentile p sorted =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank =
      int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1
    in
    sorted.(max 0 (min (n - 1) rank))

let drive_summary_to_string s =
  let thr =
    if s.d_wall_s > 0.0 then
      float_of_int (Array.length s.d_latencies) /. s.d_wall_s
    else 0.0
  in
  Printf.sprintf
    "requests=%d done=%d (cached=%d) failed=%d timeout=%d cancelled=%d \
     overloaded=%d too_large=%d transport_errors=%d | wall=%.2fs \
     %.1f req/s | rtt p50=%.1fms p95=%.1fms p99=%.1fms"
    s.d_requests s.d_done s.d_cached s.d_failed s.d_timeout s.d_cancelled
    s.d_overloaded s.d_too_large s.d_errors s.d_wall_s thr
    (1e3 *. percentile 50.0 s.d_latencies)
    (1e3 *. percentile 95.0 s.d_latencies)
    (1e3 *. percentile 99.0 s.d_latencies)
