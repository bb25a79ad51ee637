(** cedarnet client: one TCP connection, request/reply, reconnect with
    exponential backoff.

    The socket is non-blocking and every wait goes through {!Aio}: in a
    fiber a call suspends only that fiber, so one scheduler can hold
    many clients mid-request; on any other thread the same call blocks
    that thread in poll(2) until the same deadline.

    Every call times out rather than hangs: connection establishment is
    bounded by [connect_timeout_s], and each request attempt by one
    absolute deadline, [request_timeout_s] after it starts, which covers
    the whole round trip however the reply's bytes trickle in.  When
    the connection is found dead — send failure, EOF, a frame that does
    not decode — the client reconnects with jittered exponential backoff
    up to [max_attempts] and resends the request once on the fresh
    connection.  Requests are idempotent at the server (the result
    cache is content-addressed), so a resend after an ambiguous failure
    is safe.

    {!drive} is the closed-loop load generator over real sockets: the
    socket-side twin of {!Service.Traffic.run}, drawing the {e same}
    deterministic request sequence ({!Service.Traffic.nth_request}) so
    in-process and over-the-wire runs are comparable A/B. *)

type cfg = {
  host : string;
  port : int;
  connect_timeout_s : float;  (** bound on TCP connection establishment *)
  request_timeout_s : float;
      (** one deadline for each request attempt's whole round trip
          (send and reply); 0 = none *)
  max_attempts : int;  (** connection attempts, first one included *)
  backoff_s : float;  (** base retry delay; doubles per attempt *)
  backoff_jitter : float;
      (** jitter fraction in [0,1]: attempt [k] sleeps uniformly in
          [[backoff_s*2^k*(1-j), backoff_s*2^k*(1+j))].  0 restores the
          old lockstep doubling; the default 0.5 breaks the thundering
          herd of a client fleet reconnecting after a server restart. *)
  backoff_seed : int;  (** jitter stream seed (deterministic per seed) *)
}

val default_cfg : port:int -> cfg
(** 127.0.0.1, 5 s connect, 120 s request, 5 attempts, 100 ms backoff,
    jitter 0.5. *)

val backoff_delay : cfg -> instance:int -> attempt:int -> float
(** The exact delay slept before retrying [attempt] (1-based) on client
    number [instance].  Pure and deterministic — exposed so tests can
    pin the schedule.  Each connected client draws a fresh [instance]
    from a process-wide counter, decorrelating the streams even when
    every client shares one [cfg]. *)

type t

val connect : cfg -> (t, string) result
(** Establish the connection (with retries/backoff per [cfg]). *)

val close : t -> unit
(** Close the socket.  Idempotent; the handle is dead afterwards. *)

val request : t -> Wire.message -> (Wire.message, string) result
(** Send one message and wait for its reply (matched by request id).
    Reconnects and resends once if the connection proves dead.  A
    request that times out drops the connection; the next request
    dials a fresh one. *)

val ping : t -> (float, string) result
(** Round-trip a {!Wire.Ping}; returns the RTT in seconds. *)

val submit :
  ?trace:int ->
  t ->
  name:string ->
  options:Restructurer.Options.t ->
  string ->
  (Wire.reply, string) result
(** Submit source text for restructuring.  [Ok] carries the server's
    typed reply — including [R_overloaded] and [R_too_large]; [Error]
    means the request could not be completed at all. *)

(** The typed queries below fold a typed [R_error] refusal into
    [Error], like a transport failure; a caller that must tell the two
    apart matches the reply of {!request} itself. *)

val metrics : t -> (string, string) result
(** Fetch the server's metrics dump: a cedard's registry, or a proxy's
    merged with its live shards' ({!Service.Stats.render} turns either
    into the stats view). *)

val members : t -> (string, string) result
(** Fetch cluster membership as JSON.  Only a proxy answers this; a
    plain shard replies with a typed error. *)

val cluster_add : t -> Wire.cluster_add -> (Wire.cluster_ack, string) result
(** Ask a proxy to add a shard to the member set.  The ack carries the
    resulting ring epoch; [ack_ok = false] means the set was left
    unchanged and [ack_msg] says why. *)

val cluster_remove : t -> string -> (Wire.cluster_ack, string) result
(** Ask a proxy to remove a shard from the member set. *)

val cache_push : t -> Wire.cache_push -> (bool, string) result
(** Offer a completed full-rung cache entry to the peer (warm-cache
    replication).  [Ok true] iff the peer verified the checksum and
    admitted it. *)

val shutdown : t -> (unit, string) result
(** Ask the server to shut down; [Ok] once the ack frame arrives. *)

(* ------------------------------------------------------------------ *)
(* Closed-loop socket driver                                           *)
(* ------------------------------------------------------------------ *)

type drive_cfg = {
  requests : int;  (** total jobs to issue *)
  conns : int;  (** concurrent connections, one outstanding job each *)
  seed : int;
  size_jitter : int;
  batch : int;
  validate : bool;
  target : Codegen.Target.t;  (** codegen target on every request *)
}

val default_drive_cfg : drive_cfg
(** 200 requests, 4 connections, seed 42, jitter 4, batch 4, Cedar. *)

type drive_summary = {
  d_requests : int;
  d_done : int;  (** [R_done] replies *)
  d_cached : int;  (** subset of [d_done] served from the cache *)
  d_failed : int;
  d_timeout : int;
  d_cancelled : int;
  d_overloaded : int;  (** shed by admission control *)
  d_too_large : int;
  d_errors : int;  (** transport failures (no typed reply at all) *)
  d_latencies : float array;  (** per-request round trip, seconds, sorted *)
  d_wall_s : float;
}

val drive : cfg -> drive_cfg -> drive_summary
(** Run the closed-loop generator: [conns] fibers on one private
    {!Aio} scheduler on the calling thread, each with its own
    connection, racing through the shared request sequence.  Returns
    when every request has a final disposition. *)

val percentile : float -> float array -> float
(** [percentile 95.0 sorted] — nearest-rank percentile of a sorted
    latency array; 0 on empty input. *)

val drive_summary_to_string : drive_summary -> string
