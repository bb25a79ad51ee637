(** The cedarnet TCP front-end: puts a request handler on the network.

    The front end owns everything that happens per connection; a
    handler decides what each request frame means.  {!create} serves
    a {!Service.Server} (cedard); [Cluster.Proxy] serves its relay
    handler through {!serve}, so both speak the wire through one piece
    of code.

    One accept fiber, plus a reader, a responder and a writer fiber per
    connection, all on one {!Aio} scheduler thread.  Other loops that
    only wait on sockets and timers run there too, through {!spawn}.  Requests on one
    connection may be pipelined: the reader hands each request to the
    handler without waiting for earlier replies.  A {!Reply} goes out at
    once; {!Defer}red replies stream back from the responder in request
    order, each echoing its request id.  The writer corks: replies
    queued in one scheduler pass leave in one write.

    {b Admission control.}  Two budgets shed load explicitly instead of
    queuing without bound: at most [max_conns] connections are served at
    once (excess connections receive one [R_overloaded] frame and are
    closed), and at most [max_inflight] deferred requests may be
    outstanding across all connections (excess requests are answered at
    once with the handler's [overload] reply).  A request whose backend
    cannot take it ([start] returns [None]) is also shed.

    {b Deadlines and hygiene.}  [read_timeout_s] bounds how long a
    request may take to arrive once its first byte is seen (a stalled
    sender is dropped; a merely idle connection is not), and
    [write_timeout_s] bounds each reply write.  Submits whose source
    exceeds [max_source_bytes] are rejected with a typed
    [R_too_large] before any parsing — oversized frames are drained in
    constant memory, so the connection survives the rejection.

    {b Observability.}  Every submit carries (or is minted) an
    {!Obs.Trace} id that rides the job end to end and returns in the
    reply; connection/request/shed/bytes/flush counters and the request
    latency histogram land in {!Obs.Metrics.global}.

    {b Chaos.}  An attached {!Service.Fault} injector with network
    sites armed attacks the wire itself: accepted connections dropped,
    reads stalled, replies truncated mid-frame or replaced with
    garbage. *)

type cfg = {
  host : string;  (** bind address, default ["127.0.0.1"] *)
  port : int;  (** 0 = ephemeral (read it back with {!port}) *)
  max_conns : int;  (** accepted-connection budget *)
  max_inflight : int;  (** deferred-request budget, all connections *)
  max_source_bytes : int;  (** submit-source cap; 0 = unlimited *)
  read_timeout_s : float;  (** per-request read deadline; 0 = none *)
  write_timeout_s : float;  (** per-reply write deadline; 0 = none *)
}

val default_cfg : cfg
(** 127.0.0.1:0, 64 connections, 256 in flight, 8 MiB source cap,
    30 s read and write deadlines. *)

type t

(** What a handler makes of one request frame. *)
type action =
  | Reply of Wire.message  (** answer at once, from the reader *)
  | Defer of {
      overload : Wire.message;  (** the refusal sent when shed *)
      trace : int;  (** trace id for the [net_request] span; 0 = none *)
      start : unit -> Wire.message Aio.promise option;
          (** begin the work: hand it to another thread or domain, or
              {!Aio.spawn} it (this runs on the connection's reader
              fiber); the promise carries the reply.  [None] when the
              backend cannot take it. *)
    }
      (** hold one unit of [max_inflight] until the responder has
          written the reply; with the budget spent [start] is not
          called and [overload] is sent *)

val serve : ?fault:Service.Fault.t -> cfg -> (Wire.message -> action) -> t
(** Bind, listen, and start accepting, answering each request frame
    with what the handler makes of it.  The handler runs on the
    event-loop thread, so it must not block.  It never sees [Ping],
    [Shutdown_req] or a reply-kind frame: the front end answers those
    itself.
    @raise Unix.Unix_error when the address cannot be bound. *)

(** A topology change pushed down from the cluster proxy over the wire:
    [`Add (id, host, port)] or [`Remove id]. *)
type cluster_change = [ `Add of string * string * int | `Remove of string ]

val create :
  ?fault:Service.Fault.t ->
  ?on_cluster_change:(cluster_change -> bool * int * string) ->
  cfg ->
  Service.Server.t ->
  t
(** {!serve} with cedard's handler: submits enter the service pool
    (size cap, queue admission, trace ids), stats and metrics are
    answered at once, [Cache_push] frames are verified and admitted.
    The service pool is {e not} owned: shutting it down is the caller's
    job (after {!drain}).

    [on_cluster_change] handles {!Wire.Cluster_add} / [Cluster_remove]
    frames (a replicating shard re-aims its successor pushes at the new
    ring); it returns [(ok, epoch, message)], echoed back as a
    {!Wire.Cluster_ack}.  Without it those frames are acked
    [ack_ok = false].
    @raise Unix.Unix_error when the address cannot be bound. *)

val port : t -> int
(** The actually-bound port (resolves [port = 0]). *)

val request_stop : t -> unit
(** Ask the server to stop — callable from a signal handler (it only
    sets an atomic flag).  {!wait_stop} returns shortly after. *)

val stop_requested : t -> bool

val spawn : t -> (unit -> unit) -> unit
(** Start [f] as a fiber on the server's event loop; callable from any
    thread.  A stop request ({!request_stop} or a
    {!Wire.Shutdown_req} frame) cancels it together with the accept
    fiber: {!Aio.Cancelled} is raised at its next suspension point, and
    {!drain} waits until it has finished.  A fiber spawned after the
    stop request is cancelled before its first step. *)

val wait_stop : t -> unit
(** Block until {!request_stop} is called (signal path) or a
    {!Wire.Shutdown_req} frame arrives (wire path). *)

val drain : t -> unit
(** Graceful drain: stop accepting, shut the read side of every
    connection (no new requests), let every deferred request finish and
    its reply flush, then join the event-loop thread.  Idempotent.  The
    caller then shuts down whatever backs the handler (for {!create},
    {!Service.Server.shutdown}, which flushes stats). *)

val connections_seen : t -> int
(** Connections accepted: this server's share of [net_connections_total]. *)

val inflight_high_water : t -> int
(** Most deferred requests ever outstanding at once — proves the
    in-flight budget held under overload. *)

val shed_total : t -> int
(** Connections refused by the connection budget plus requests refused
    by the in-flight budget or by their backend: this server's share of
    [net_shed_total]. *)
