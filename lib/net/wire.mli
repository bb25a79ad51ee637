(** cedarnet wire protocol: versioned, length-prefixed binary frames.

    Every frame is a fixed 20-byte header followed by a payload:

    {v
    offset  size  field
    0       4     magic "CDRN"
    4       1     protocol version ({!version})
    5       1     message kind
    6       2     flags (reserved, 0) — big-endian
    8       8     request id          — big-endian
    16      4     payload length      — big-endian
    20      n     payload
    v}

    Request ids are chosen by the requester and echoed verbatim on the
    reply, so a pipelined connection can match responses to requests.
    All multi-byte integers are big-endian; OCaml ints ride as 8-byte
    two's-complement fields, floats as IEEE-754 bits, strings as a
    4-byte length followed by the bytes.

    The decoder is total: any byte string either decodes to a frame or
    to a typed {!error} — it never raises.  A {!Submit} carries the full
    {!Restructurer.Options.t} (technique set, machine configuration,
    limits) field by field, so a restructure requested over the wire is
    byte-identical to one run in process; its codegen target
    ({!Codegen.Target.code}) is the byte after its trace id.

    The kinds are 1–14 and 17–21; kinds 15, 16 and 22–24 are retired
    and decode as {!Bad_kind}. *)

val magic : string
(** ["CDRN"], the 4 frame magic bytes. *)

val version : int
(** The protocol version (5), stamped on every frame.  A header with
    any other version byte is a {!Bad_version}: a fleet runs one build. *)

val header_bytes : int
(** Fixed header size: 20. *)

val hard_max_payload : int
(** Absolute payload-length ceiling (64 MiB); a header announcing more
    is a {!Length_overflow} and the stream cannot be resynchronized. *)

type error =
  | Bad_magic  (** first 4 bytes are not {!magic} *)
  | Bad_version of int  (** well-formed frame, unknown version *)
  | Bad_kind of int  (** well-formed frame, unknown message kind *)
  | Truncated  (** ran out of bytes mid-header or mid-payload *)
  | Length_overflow of int  (** announced payload exceeds {!hard_max_payload} *)
  | Malformed of string  (** payload bytes do not decode as the kind *)

val error_to_string : error -> string

(** One restructured loop's verdict, riding the reply so the client
    sees what the restructurer decided without reparsing anything. *)
type note = {
  n_unit : string;  (** program unit name *)
  n_index : string;  (** loop index variable *)
  n_depth : int;
  n_decision : string;  (** e.g. "parallelized", "serial (blocked)" *)
  n_techniques : string list;  (** techniques that contributed *)
}

type submit = {
  sub_name : string;  (** label for reporting *)
  sub_source : string;  (** fortran77 source text *)
  sub_options : Restructurer.Options.t;
  sub_trace : int;  (** caller's {!Obs.Trace} id; 0 = let the server mint *)
}

(** Warm-cache replication: a completed full-rung cache entry pushed
    from the shard that computed it to its ring successor, so a shard
    death loses at most one replica's worth of warm cache.  Only
    full-rung results are ever cached, so the rung is implicit. *)
type cache_push = {
  cp_key : string;  (** content address minted on the origin shard *)
  cp_digest : string;  (** digest of [cp_text] at fill time; the
                           receiver re-digests and rejects a mismatch *)
  cp_name : string;
  cp_text : string;
  cp_cycles : float option;
  cp_global_words : float option;
  cp_notes : note list;
}

(** Dynamic membership: an operator-initiated change to a running
    proxy's member set. *)
type cluster_add = {
  ca_id : string;  (** shard id to join the ring under *)
  ca_host : string;
  ca_port : int;
}

(** Reply to a {!Cluster_add} / [Cluster_remove]: whether the change
    was applied, and the ring epoch it produced (the epoch in force at
    rejection time when [ack_ok] is false). *)
type cluster_ack = { ack_ok : bool; ack_epoch : int; ack_msg : string }

(** Reply to a {!Submit} (and the body of every error reply). *)
type reply =
  | R_done of {
      r_cached : bool;
      r_rung : Service.Server.rung;  (** degradation rung that produced it *)
      r_text : string;  (** the restructured Cedar Fortran *)
      r_cycles : float option;
      r_global_words : float option;
      r_notes : note list;
      r_trace : int;  (** the job's end-to-end trace id; 0 = untraced *)
    }
  | R_failed of string
  | R_timeout
  | R_cancelled
  | R_overloaded
      (** shed: the connection or in-flight budget was exhausted; retry
          later against a less busy server *)
  | R_too_large of { limit : int; got : int }
      (** request hygiene: the submitted source exceeded the server's
          cap and was rejected before parsing *)
  | R_error of string  (** protocol-level failure (bad frame, bad kind) *)

type message =
  | Ping
  | Pong
  | Submit of submit
  | Result of reply
  | Stats_req
  | Stats_text of string  (** human-readable {!Service.Stats} summary *)
  | Metrics_req
  | Metrics_text of string  (** Prometheus text dump *)
  | Shutdown_req
  | Shutdown_ack
  | Cache_push of cache_push
  | Cache_ack of bool  (** [true] iff the receiver admitted the entry *)
  | Stats_json_req
  | Stats_json of string  (** machine-readable {!Service.Stats} *)
  | Members_req
  | Members_json of string
      (** cluster membership as JSON: ring epoch, vnode count, each
          shard's address, state and failure count (proxy only) *)
  | Cluster_add of cluster_add
  | Cluster_remove of string  (** shard id to take out of the ring *)
  | Cluster_ack of cluster_ack

val message_kind_name : message -> string

val note_of_report : Restructurer.Driver.loop_report -> note
(** The wire-visible subset of a driver loop report. *)

val report_of_note : note -> Restructurer.Driver.loop_report
(** Rebuild a loop report from a wire note; the fields that never
    crossed the wire (mode, blockers, version count) come back empty. *)

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

type buffer
(** A growable byte buffer that frames are appended to; its bytes are
    [0, buffer_length).  A connection keeps one and reuses it for every
    frame it sends, so a warm reply or request costs no frame-sized
    allocation. *)

val max_batch_bytes : int
(** 256 KiB.  [Net.Server]'s writer stops adding frames to a corked
    batch at this size.  A {!buffer} (or a {!Stream}) that grew past it
    returns to its 4 KiB base once it is empty, so a connection that
    once carried a large frame does not keep its storage while idle. *)

val create_buffer : unit -> buffer
(** An empty buffer with 4 KiB of storage. *)

val append : buffer -> id:int -> message -> unit
(** The one encoder: append the complete frame for [message] in a single
    pass — header, then payload, growing the buffer when a field does
    not fit — and fill in the length field last. *)

val append_raw : buffer -> string -> unit
(** Append arbitrary bytes (chaos injection: a truncated or garbage
    frame after a batch). *)

val buffer_bytes : buffer -> Bytes.t
(** The storage holding the bytes [0, buffer_length b); valid until
    the next append or {!clear}. *)

val buffer_length : buffer -> int

val clear : buffer -> unit
(** Empty the buffer.  Storage that grew past {!max_batch_bytes} goes
    back to the 4 KiB base. *)

val encode : id:int -> message -> string
(** The complete frame for [message]: {!append} into a fresh buffer,
    copied out. *)

val decode : string -> (int * message, error) result
(** Decode one complete frame; the [int] is the request id.  Total:
    never raises.  Trailing bytes beyond the announced payload length
    are a {!Malformed} error. *)

(* ------------------------------------------------------------------ *)
(* Stream IO                                                           *)
(* ------------------------------------------------------------------ *)

(** Incremental frame decoder for non-blocking readers: the one way
    frames come off a socket, on both sides of a connection.

    It never touches a descriptor: the reader reads whatever bytes are
    ready and [feed]s them in, [next] yields complete frames, and
    {!Stream.midframe} tells the reader whether the peer is mid-frame —
    the condition under which a server arms a per-frame read deadline.
    A quiet connection with no partial frame needs no deadline at all,
    which is what lets thousands of idle connections cost nothing.

    Decode failures are sticky: once a frame fails to parse the stream
    position is unknowable and every subsequent [next] returns the same
    [`Fail]. *)
module Stream : sig
  type t

  val create : ?max_payload:int -> unit -> t
  (** [max_payload] is the soft cap (default {!hard_max_payload}): a
      larger announced payload is consumed in constant memory and
      reported [`Oversized] with the stream still synchronized. *)

  val feed : t -> bytes -> int -> int -> unit
  (** [feed t buf off len] appends bytes as they arrive off the wire.
      The stream keeps them in a {!buffer}, which returns to its 4 KiB
      base once every fed byte has been consumed, if it grew past
      {!max_batch_bytes}. *)

  val next :
    t ->
    [ `Frame of int * message
    | `Oversized of int * int
    | `Need_more
    | `Fail of error ]
  (** The next complete frame, if the fed bytes contain one.
      [`Oversized (id, announced)]: the payload exceeded the cap and was
      drained in constant memory, so the stream stays synchronized and
      the caller can send a typed rejection. *)

  val midframe : t -> bool
  (** At least one byte of an incomplete frame is buffered. *)

  val buffered : t -> int
  (** Bytes fed and not yet consumed. *)
end

val bytes_read : Obs.Metrics.counter
(** [net_bytes_read_total]: bytes read off cedarnet sockets, counted by
    servers and clients alike. *)

val bytes_written : Obs.Metrics.counter
(** [net_bytes_written_total]: bytes written to cedarnet sockets. *)

val write_frame : Unix.file_descr -> id:int -> message -> unit
(** Write one frame, looping over partial writes.
    @raise Unix.Unix_error when the peer is gone. *)

val write_raw : Unix.file_descr -> string -> unit
(** Write arbitrary bytes (chaos injection: truncated or garbage
    frames).  @raise Unix.Unix_error *)
