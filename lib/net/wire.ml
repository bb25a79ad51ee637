(* cedarnet wire protocol.  See wire.mli for the frame layout.

   The decoder is written against adversarial input: every read goes
   through a bounds-checked cursor, every enum byte is validated, and
   the only way out of a bad payload is the typed [error] — a garbage
   frame must never raise out of [decode] or [Stream.next]. *)

let magic = "CDRN"
let version = 5
let header_bytes = 20
let hard_max_payload = 1 lsl 26 (* 64 MiB *)

type error =
  | Bad_magic
  | Bad_version of int
  | Bad_kind of int
  | Truncated
  | Length_overflow of int
  | Malformed of string

let error_to_string = function
  | Bad_magic -> "bad magic (not a cedarnet frame)"
  | Bad_version v -> Printf.sprintf "unsupported protocol version %d" v
  | Bad_kind k -> Printf.sprintf "unknown message kind %d" k
  | Truncated -> "truncated frame"
  | Length_overflow n ->
      Printf.sprintf "announced payload of %d bytes exceeds the %d-byte limit"
        n hard_max_payload
  | Malformed what -> Printf.sprintf "malformed payload: %s" what

type note = {
  n_unit : string;
  n_index : string;
  n_depth : int;
  n_decision : string;
  n_techniques : string list;
}

type submit = {
  sub_name : string;
  sub_source : string;
  sub_options : Restructurer.Options.t;
  sub_trace : int;
}

(* Warm-cache replication: a shard pushes a completed full-rung cache
   entry to its ring successor.  The rung is implicit — only full-rung
   results are ever cached, so only they replicate. *)
type cache_push = {
  cp_key : string;  (* content address minted on the origin shard *)
  cp_digest : string;  (* digest of [cp_text] at fill time *)
  cp_name : string;
  cp_text : string;
  cp_cycles : float option;
  cp_global_words : float option;
  cp_notes : note list;
}

(* Dynamic membership: an operator adds or removes a shard from a
   running proxy's member set.  The ack echoes the ring epoch the change
   produced, so a caller can assert convergence. *)
type cluster_add = { ca_id : string; ca_host : string; ca_port : int }
type cluster_ack = { ack_ok : bool; ack_epoch : int; ack_msg : string }

type reply =
  | R_done of {
      r_cached : bool;
      r_rung : Service.Server.rung;
      r_text : string;
      r_cycles : float option;
      r_global_words : float option;
      r_notes : note list;
      r_trace : int;
    }
  | R_failed of string
  | R_timeout
  | R_cancelled
  | R_overloaded
  | R_too_large of { limit : int; got : int }
  | R_error of string

type message =
  | Ping
  | Pong
  | Submit of submit
  | Result of reply
  | Metrics_req
  | Metrics_text of string
  | Shutdown_req
  | Shutdown_ack
  | Cache_push of cache_push
  | Cache_ack of bool
  | Members_req
  | Members_json of string
  | Cluster_add of cluster_add
  | Cluster_remove of string
  | Cluster_ack of cluster_ack

let kind_code = function
  | Ping -> 1
  | Pong -> 2
  | Submit _ -> 3
  | Result _ -> 4
  | Metrics_req -> 7
  | Metrics_text _ -> 8
  | Shutdown_req -> 9
  | Shutdown_ack -> 10
  | Cache_push _ -> 11
  | Cache_ack _ -> 12
  | Members_req -> 17
  | Members_json _ -> 18
  | Cluster_add _ -> 19
  | Cluster_remove _ -> 20
  | Cluster_ack _ -> 21

let message_kind_name = function
  | Ping -> "ping"
  | Pong -> "pong"
  | Submit _ -> "submit"
  | Result _ -> "result"
  | Metrics_req -> "metrics-req"
  | Metrics_text _ -> "metrics"
  | Shutdown_req -> "shutdown-req"
  | Shutdown_ack -> "shutdown-ack"
  | Cache_push _ -> "cache-push"
  | Cache_ack _ -> "cache-ack"
  | Members_req -> "members-req"
  | Members_json _ -> "members-json"
  | Cluster_add _ -> "cluster-add"
  | Cluster_remove _ -> "cluster-remove"
  | Cluster_ack _ -> "cluster-ack"

(* conversions between the wire [note] and the driver's loop report,
   shared by every front-end that carries reports across the wire *)
let note_of_report (r : Restructurer.Driver.loop_report) =
  {
    n_unit = r.Restructurer.Driver.r_unit;
    n_index = r.Restructurer.Driver.r_index;
    n_depth = r.Restructurer.Driver.r_depth;
    n_decision = r.Restructurer.Driver.r_decision;
    n_techniques = r.Restructurer.Driver.r_techniques;
  }

(* the note carries the report's wire-visible subset; the fields that
   never crossed the wire (mode, blockers, version count) come back
   empty, exactly as the original reply path forgets them *)
let report_of_note (n : note) : Restructurer.Driver.loop_report =
  {
    Restructurer.Driver.r_unit = n.n_unit;
    r_index = n.n_index;
    r_depth = n.n_depth;
    r_decision = n.n_decision;
    r_mode = None;
    r_techniques = n.n_techniques;
    r_blockers = [];
    r_versions = 0;
  }

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

(* A frame is written once, in order, into a buffer its caller owns and
   reuses: header, then payload, growing the storage when a field does
   not fit, and the length field filled in last.  [Stream] keeps its
   bytes in one too. *)
type buffer = { mutable buf : Bytes.t; mutable pos : int }

(* the server writer's cap on one corked batch, and the capacity past
   which a buffer gives its storage back once it is empty *)
let max_batch_bytes = 256 * 1024
let base_bytes = 4096
let create_buffer () = { buf = Bytes.create base_bytes; pos = 0 }
let buffer_bytes b = b.buf
let buffer_length b = b.pos

let clear b =
  b.pos <- 0;
  if Bytes.length b.buf > max_batch_bytes then b.buf <- Bytes.create base_bytes

(* room for [n] more bytes, doubling the capacity until they fit *)
let reserve b n =
  if b.pos + n > Bytes.length b.buf then begin
    let cap = ref (Bytes.length b.buf) in
    while b.pos + n > !cap do
      cap := !cap * 2
    done;
    let buf = Bytes.create !cap in
    Bytes.blit b.buf 0 buf 0 b.pos;
    b.buf <- buf
  end

let put_u8 b v =
  reserve b 1;
  Bytes.set_uint8 b.buf b.pos (v land 0xff);
  b.pos <- b.pos + 1

let put_bool b v = put_u8 b (if v then 1 else 0)

let put_u16 b v =
  reserve b 2;
  Bytes.set_uint16_be b.buf b.pos v;
  b.pos <- b.pos + 2

let put_i32 b v =
  reserve b 4;
  Bytes.set_int32_be b.buf b.pos (Int32.of_int v);
  b.pos <- b.pos + 4

let put_int b v =
  reserve b 8;
  Bytes.set_int64_be b.buf b.pos (Int64.of_int v);
  b.pos <- b.pos + 8

let put_f64 b v =
  reserve b 8;
  Bytes.set_int64_be b.buf b.pos (Int64.bits_of_float v);
  b.pos <- b.pos + 8

let put_raw b s =
  let n = String.length s in
  reserve b n;
  Bytes.blit_string s 0 b.buf b.pos n;
  b.pos <- b.pos + n

let put_string b s =
  put_i32 b (String.length s);
  put_raw b s

let put_opt_f64 b = function
  | None -> put_u8 b 0
  | Some v ->
      put_u8 b 1;
      put_f64 b v

(* [List.iter (put b)] would allocate a closure per list *)
let rec put_each put b = function
  | [] -> ()
  | x :: rest ->
      put b x;
      put_each put b rest

(* a count, then each element *)
let put_list put b l =
  put_int b (List.length l);
  put_each put b l

(* the 18 technique flags, in declaration order of Options.techniques —
   the wire bit position is the list position *)
let technique_getters =
  [
    (fun (t : Restructurer.Options.techniques) -> t.scalar_privatization);
    (fun t -> t.scalar_expansion);
    (fun t -> t.simple_induction);
    (fun t -> t.simple_reduction);
    (fun t -> t.doacross);
    (fun t -> t.stripmining);
    (fun t -> t.if_to_where);
    (fun t -> t.inline_expansion);
    (fun t -> t.loop_interchange);
    (fun t -> t.recurrence_substitution);
    (fun t -> t.array_privatization);
    (fun t -> t.generalized_reduction);
    (fun t -> t.giv_substitution);
    (fun t -> t.runtime_dep_test);
    (fun t -> t.critical_sections);
    (fun t -> t.interprocedural);
    (fun t -> t.loop_fusion);
    (fun t -> t.loop_distribution);
  ]

let techniques_mask (t : Restructurer.Options.techniques) =
  let rec go acc bit = function
    | [] -> acc
    | get :: rest ->
        go (if get t then acc lor (1 lsl bit) else acc) (bit + 1) rest
  in
  go 0 0 technique_getters

let techniques_of_mask m : Restructurer.Options.techniques =
  let bit i = m land (1 lsl i) <> 0 in
  {
    scalar_privatization = bit 0;
    scalar_expansion = bit 1;
    simple_induction = bit 2;
    simple_reduction = bit 3;
    doacross = bit 4;
    stripmining = bit 5;
    if_to_where = bit 6;
    inline_expansion = bit 7;
    loop_interchange = bit 8;
    recurrence_substitution = bit 9;
    array_privatization = bit 10;
    generalized_reduction = bit 11;
    giv_substitution = bit 12;
    runtime_dep_test = bit 13;
    critical_sections = bit 14;
    interprocedural = bit 15;
    loop_fusion = bit 16;
    loop_distribution = bit 17;
  }

let put_machine b (m : Machine.Config.t) =
  put_string b m.name;
  put_int b m.clusters;
  put_int b m.ces_per_cluster;
  put_f64 b m.cache_hit;
  put_f64 b m.cluster_scalar;
  put_f64 b m.global_scalar;
  put_f64 b m.cluster_vector;
  put_f64 b m.global_vector;
  put_f64 b m.global_vector_prefetched;
  put_f64 b m.vector_startup;
  put_int b m.prefetch_depth;
  put_bool b m.prefetch;
  put_int b m.cache_bytes;
  put_f64 b m.cdo_startup;
  put_f64 b m.cdo_dispatch;
  put_f64 b m.sdo_startup;
  put_f64 b m.sdo_dispatch;
  put_f64 b m.await_cost;
  put_f64 b m.lock_cost;
  put_f64 b m.task_start_ctsk;
  put_f64 b m.task_start_mtsk;
  put_f64 b m.scalar_op;
  put_f64 b m.vector_op;
  put_f64 b m.intrinsic_op;
  put_int b m.cluster_mem_bytes;
  put_int b m.global_mem_bytes;
  put_int b m.page_bytes;
  put_f64 b m.page_fault_cycles;
  put_f64 b m.global_bw;
  put_f64 b m.cluster_bw

let put_options b (o : Restructurer.Options.t) =
  put_int b (techniques_mask o.techniques);
  put_machine b o.machine;
  put_int b o.max_versions;
  put_int b o.strip;
  put_int b o.inline_limits.Transform.Inline.max_depth;
  put_int b o.inline_limits.Transform.Inline.max_stmts;
  put_u8 b
    (match o.placement_default with
    | Transform.Globalize.Default_global -> 0
    | Transform.Globalize.Default_cluster -> 1);
  put_int b o.assumed_trip;
  put_bool b o.validate

let rung_code = function
  | Service.Server.Full -> 0
  | Service.Server.Conservative -> 1
  | Service.Server.Passthrough -> 2

let put_note b n =
  put_string b n.n_unit;
  put_string b n.n_index;
  put_int b n.n_depth;
  put_string b n.n_decision;
  put_list put_string b n.n_techniques

let put_reply b = function
  | R_done d ->
      put_u8 b 0;
      put_bool b d.r_cached;
      put_u8 b (rung_code d.r_rung);
      put_string b d.r_text;
      put_opt_f64 b d.r_cycles;
      put_opt_f64 b d.r_global_words;
      put_list put_note b d.r_notes;
      put_int b d.r_trace
  | R_failed msg ->
      put_u8 b 1;
      put_string b msg
  | R_timeout -> put_u8 b 2
  | R_cancelled -> put_u8 b 3
  | R_overloaded -> put_u8 b 4
  | R_too_large { limit; got } ->
      put_u8 b 5;
      put_int b limit;
      put_int b got
  | R_error msg ->
      put_u8 b 6;
      put_string b msg

let put_payload b = function
  | Ping | Pong | Metrics_req | Shutdown_req | Shutdown_ack | Members_req -> ()
  | Metrics_text s | Members_json s -> put_raw b s
  | Submit s ->
      put_string b s.sub_name;
      put_string b s.sub_source;
      put_options b s.sub_options;
      put_int b s.sub_trace;
      put_u8 b (Codegen.Target.code s.sub_options.Restructurer.Options.target)
  | Result r -> put_reply b r
  | Cache_push p ->
      put_string b p.cp_key;
      put_string b p.cp_digest;
      put_string b p.cp_name;
      put_string b p.cp_text;
      put_opt_f64 b p.cp_cycles;
      put_opt_f64 b p.cp_global_words;
      put_list put_note b p.cp_notes
  | Cache_ack admitted -> put_bool b admitted
  | Cluster_add a ->
      put_string b a.ca_id;
      put_string b a.ca_host;
      put_int b a.ca_port
  | Cluster_remove id -> put_string b id
  | Cluster_ack a ->
      put_bool b a.ack_ok;
      put_int b a.ack_epoch;
      put_string b a.ack_msg

(* the length field goes out as 0 and is filled in once the payload's
   end is known *)
let append b ~id msg =
  let start = b.pos in
  put_raw b magic;
  put_u8 b version;
  put_u8 b (kind_code msg);
  put_u16 b 0;
  put_int b id;
  put_i32 b 0;
  put_payload b msg;
  Bytes.set_int32_be b.buf (start + 16)
    (Int32.of_int (b.pos - start - header_bytes))

let append_raw = put_raw

let encode ~id msg =
  let b = create_buffer () in
  append b ~id msg;
  Bytes.sub_string b.buf 0 b.pos

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

exception Err of error

(* The cursor reads straight out of a caller-owned byte window, so the
   incremental decoder parses payloads in place from the connection
   buffer — the payload as a whole is never copied; only the field
   strings a message actually carries are extracted.  The cursor never
   writes to [src]. *)
type cursor = { src : Bytes.t; mutable pos : int; limit : int }

let need c n =
  if n < 0 || c.pos + n > c.limit then raise (Err Truncated)

let get_u8 c =
  need c 1;
  let v = Char.code (Bytes.get c.src c.pos) in
  c.pos <- c.pos + 1;
  v

let get_bool c =
  match get_u8 c with
  | 0 -> false
  | 1 -> true
  | v -> raise (Err (Malformed (Printf.sprintf "bool byte %d" v)))

let get_int c =
  need c 8;
  let v = Int64.to_int (Bytes.get_int64_be c.src c.pos) in
  c.pos <- c.pos + 8;
  v

let get_f64 c =
  need c 8;
  let v = Int64.float_of_bits (Bytes.get_int64_be c.src c.pos) in
  c.pos <- c.pos + 8;
  v

let get_string c =
  need c 4;
  let n = Int32.to_int (Bytes.get_int32_be c.src c.pos) in
  c.pos <- c.pos + 4;
  if n < 0 then raise (Err (Malformed "negative string length"));
  need c n;
  let s = Bytes.sub_string c.src c.pos n in
  c.pos <- c.pos + n;
  s

let get_opt_f64 c =
  match get_u8 c with
  | 0 -> None
  | 1 -> Some (get_f64 c)
  | v -> raise (Err (Malformed (Printf.sprintf "option byte %d" v)))

let get_count c what =
  let n = get_int c in
  (* each element consumes at least one byte; anything bigger than the
     remaining payload is a lie, not a huge list *)
  if n < 0 || n > c.limit - c.pos then
    raise (Err (Malformed (Printf.sprintf "implausible %s count %d" what n)));
  n

let get_machine c : Machine.Config.t =
  let name = get_string c in
  let clusters = get_int c in
  let ces_per_cluster = get_int c in
  let cache_hit = get_f64 c in
  let cluster_scalar = get_f64 c in
  let global_scalar = get_f64 c in
  let cluster_vector = get_f64 c in
  let global_vector = get_f64 c in
  let global_vector_prefetched = get_f64 c in
  let vector_startup = get_f64 c in
  let prefetch_depth = get_int c in
  let prefetch = get_bool c in
  let cache_bytes = get_int c in
  let cdo_startup = get_f64 c in
  let cdo_dispatch = get_f64 c in
  let sdo_startup = get_f64 c in
  let sdo_dispatch = get_f64 c in
  let await_cost = get_f64 c in
  let lock_cost = get_f64 c in
  let task_start_ctsk = get_f64 c in
  let task_start_mtsk = get_f64 c in
  let scalar_op = get_f64 c in
  let vector_op = get_f64 c in
  let intrinsic_op = get_f64 c in
  let cluster_mem_bytes = get_int c in
  let global_mem_bytes = get_int c in
  let page_bytes = get_int c in
  let page_fault_cycles = get_f64 c in
  let global_bw = get_f64 c in
  let cluster_bw = get_f64 c in
  {
    Machine.Config.name;
    clusters;
    ces_per_cluster;
    cache_hit;
    cluster_scalar;
    global_scalar;
    cluster_vector;
    global_vector;
    global_vector_prefetched;
    vector_startup;
    prefetch_depth;
    prefetch;
    cache_bytes;
    cdo_startup;
    cdo_dispatch;
    sdo_startup;
    sdo_dispatch;
    await_cost;
    lock_cost;
    task_start_ctsk;
    task_start_mtsk;
    scalar_op;
    vector_op;
    intrinsic_op;
    cluster_mem_bytes;
    global_mem_bytes;
    page_bytes;
    page_fault_cycles;
    global_bw;
    cluster_bw;
  }

let get_options c : Restructurer.Options.t =
  let techniques = techniques_of_mask (get_int c) in
  let machine = get_machine c in
  let max_versions = get_int c in
  let strip = get_int c in
  let max_depth = get_int c in
  let max_stmts = get_int c in
  let placement_default =
    match get_u8 c with
    | 0 -> Transform.Globalize.Default_global
    | 1 -> Transform.Globalize.Default_cluster
    | v -> raise (Err (Malformed (Printf.sprintf "placement byte %d" v)))
  in
  let assumed_trip = get_int c in
  let validate = get_bool c in
  {
    Restructurer.Options.techniques;
    machine;
    max_versions;
    strip;
    inline_limits = { Transform.Inline.max_depth; max_stmts };
    placement_default;
    assumed_trip;
    validate;
    (* the options block has no target field: the Submit's target byte
       follows its trace id, and [get_submit] sets it *)
    target = Codegen.Target.Cedar;
  }

let get_note c =
  let n_unit = get_string c in
  let n_index = get_string c in
  let n_depth = get_int c in
  let n_decision = get_string c in
  let k = get_count c "technique" in
  let n_techniques = List.init k (fun _ -> get_string c) in
  { n_unit; n_index; n_depth; n_decision; n_techniques }

let get_reply c =
  match get_u8 c with
  | 0 ->
      let r_cached = get_bool c in
      let r_rung =
        match get_u8 c with
        | 0 -> Service.Server.Full
        | 1 -> Service.Server.Conservative
        | 2 -> Service.Server.Passthrough
        | v -> raise (Err (Malformed (Printf.sprintf "rung byte %d" v)))
      in
      let r_text = get_string c in
      let r_cycles = get_opt_f64 c in
      let r_global_words = get_opt_f64 c in
      let k = get_count c "note" in
      let r_notes = List.init k (fun _ -> get_note c) in
      let r_trace = get_int c in
      R_done
        { r_cached; r_rung; r_text; r_cycles; r_global_words; r_notes; r_trace }
  | 1 -> R_failed (get_string c)
  | 2 -> R_timeout
  | 3 -> R_cancelled
  | 4 -> R_overloaded
  | 5 ->
      let limit = get_int c in
      let got = get_int c in
      R_too_large { limit; got }
  | 6 -> R_error (get_string c)
  | v -> raise (Err (Malformed (Printf.sprintf "reply tag %d" v)))

let get_submit c =
  let sub_name = get_string c in
  let sub_source = get_string c in
  let options = get_options c in
  let sub_trace = get_int c in
  let target =
    match Codegen.Target.of_code (get_u8 c) with
    | Some t -> t
    | None -> raise (Err (Malformed "unknown codegen target"))
  in
  {
    sub_name;
    sub_source;
    sub_options = { options with Restructurer.Options.target };
    sub_trace;
  }

let get_cache_push c =
  let cp_key = get_string c in
  let cp_digest = get_string c in
  let cp_name = get_string c in
  let cp_text = get_string c in
  let cp_cycles = get_opt_f64 c in
  let cp_global_words = get_opt_f64 c in
  let k = get_count c "note" in
  let cp_notes = List.init k (fun _ -> get_note c) in
  { cp_key; cp_digest; cp_name; cp_text; cp_cycles; cp_global_words; cp_notes }

(* decode a payload in place from the window [pos, pos + len) of [src]:
   the zero-copy entry point shared by the incremental stream decoder
   (which hands its connection buffer straight in) and [decode].  The
   window is only read, never aliased past the call — every string that
   survives is a fresh extraction. *)
let decode_payload_at kind src ~pos ~len =
  let c = { src; pos; limit = pos + len } in
  let empty msg =
    if len <> 0 then raise (Err (Malformed "nonempty payload"));
    msg
  in
  (* the whole payload is the message text *)
  let text () =
    c.pos <- c.limit;
    Bytes.sub_string src pos len
  in
  let msg =
    match kind with
    | 1 -> empty Ping
    | 2 -> empty Pong
    | 3 -> Submit (get_submit c)
    | 4 -> Result (get_reply c)
    | 7 -> empty Metrics_req
    | 8 -> Metrics_text (text ())
    | 9 -> empty Shutdown_req
    | 10 -> empty Shutdown_ack
    | 11 -> Cache_push (get_cache_push c)
    | 12 -> Cache_ack (get_bool c)
    | 17 -> empty Members_req
    | 18 -> Members_json (text ())
    | 19 ->
        let ca_id = get_string c in
        let ca_host = get_string c in
        let ca_port = get_int c in
        Cluster_add { ca_id; ca_host; ca_port }
    | 20 -> Cluster_remove (get_string c)
    | 21 ->
        let ack_ok = get_bool c in
        let ack_epoch = get_int c in
        let ack_msg = get_string c in
        Cluster_ack { ack_ok; ack_epoch; ack_msg }
    | k -> raise (Err (Bad_kind k))
  in
  if c.pos <> c.limit then raise (Err (Malformed "trailing payload bytes"));
  msg

type header = { h_kind : int; h_id : int; h_len : int }

let magic_at src pos =
  Bytes.get src pos = magic.[0]
  && Bytes.get src (pos + 1) = magic.[1]
  && Bytes.get src (pos + 2) = magic.[2]
  && Bytes.get src (pos + 3) = magic.[3]

let decode_header_at src ~pos ~len =
  if len < header_bytes then Error Truncated
  else if not (magic_at src pos) then Error Bad_magic
  else
    let v = Char.code (Bytes.get src (pos + 4)) in
    if v <> version then Error (Bad_version v)
    else
      let kind = Char.code (Bytes.get src (pos + 5)) in
      let id = Int64.to_int (Bytes.get_int64_be src (pos + 8)) in
      let plen = Int32.to_int (Bytes.get_int32_be src (pos + 16)) in
      if plen < 0 || plen > hard_max_payload then Error (Length_overflow plen)
      else Ok { h_kind = kind; h_id = id; h_len = plen }

(* [Bytes.unsafe_of_string] below is sound: the cursor and the header
   reader only ever read from [src] *)
let decode_header s =
  decode_header_at (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

let decode s =
  match decode_header s with
  | Error e -> Error e
  | Ok h ->
      if String.length s < header_bytes + h.h_len then Error Truncated
      else if String.length s > header_bytes + h.h_len then
        Error (Malformed "trailing bytes after frame")
      else begin
        match
          decode_payload_at h.h_kind (Bytes.unsafe_of_string s)
            ~pos:header_bytes ~len:h.h_len
        with
        | msg -> Ok (h.h_id, msg)
        | exception Err e -> Error e
      end

let bytes_read =
  Obs.Metrics.counter Obs.Metrics.global ~help:"cedarnet bytes read"
    "net_bytes_read_total"

let bytes_written =
  Obs.Metrics.counter Obs.Metrics.global ~help:"cedarnet bytes written"
    "net_bytes_written_total"

(* ------------------------------------------------------------------ *)
(* Incremental stream decoder                                          *)
(* ------------------------------------------------------------------ *)

(* A resumable frame decoder for non-blocking readers: bytes go in via
   [feed] as they arrive, frames come out via [next].  It never touches
   a descriptor, so "the sender stalled" is not its concern — the
   caller observes [midframe] and arms a deadline on its own reads.
   Oversized payloads are consumed into the void in constant memory, so
   the stream stays synchronized across a typed rejection. *)
module Stream = struct
  type state =
    | S_header
    | S_payload of header
    | S_drain of { d_id : int; d_len : int; mutable d_left : int }
    | S_fail of error  (* sticky: an undecodable stream cannot resync *)

  type t = {
    st_max : int;
    st_in : buffer;  (* the window [st_pos, st_in.pos) is unconsumed *)
    mutable st_pos : int;
    mutable st_state : state;
  }

  let create ?(max_payload = hard_max_payload) () =
    {
      st_max = max_payload;
      st_in = create_buffer ();
      st_pos = 0;
      st_state = S_header;
    }

  let buffered st = st.st_in.pos - st.st_pos

  let feed st src off len =
    if off < 0 || len < 0 || off + len > Bytes.length src then
      invalid_arg "Wire.Stream.feed";
    let b = st.st_in in
    if b.pos + len > Bytes.length b.buf && st.st_pos > 0 then begin
      (* compact before growing *)
      Bytes.blit b.buf st.st_pos b.buf 0 (b.pos - st.st_pos);
      b.pos <- b.pos - st.st_pos;
      st.st_pos <- 0
    end;
    reserve b len;
    Bytes.blit src off b.buf b.pos len;
    b.pos <- b.pos + len

  (* an emptied window starts over at offset 0, in storage no larger
     than [max_batch_bytes] *)
  let consume st n =
    st.st_pos <- st.st_pos + n;
    if st.st_pos = st.st_in.pos then begin
      st.st_pos <- 0;
      clear st.st_in
    end

  (* headers and payloads decode in place at the window offset — the
     warm path never materializes a payload-sized copy; only the field
     strings the message carries are extracted *)
  let rec next st =
    match st.st_state with
    | S_fail e -> `Fail e
    | S_drain d ->
        let take = min (buffered st) d.d_left in
        consume st take;
        d.d_left <- d.d_left - take;
        if d.d_left = 0 then begin
          st.st_state <- S_header;
          `Oversized (d.d_id, d.d_len)
        end
        else `Need_more
    | S_header ->
        if buffered st < header_bytes then `Need_more
        else begin
          match
            decode_header_at st.st_in.buf ~pos:st.st_pos ~len:(buffered st)
          with
          | Error e ->
              st.st_state <- S_fail e;
              `Fail e
          | Ok h ->
              consume st header_bytes;
              if h.h_len > st.st_max then begin
                st.st_state <-
                  S_drain { d_id = h.h_id; d_len = h.h_len; d_left = h.h_len };
                next st
              end
              else begin
                st.st_state <- S_payload h;
                next st
              end
        end
    | S_payload h ->
        if buffered st < h.h_len then `Need_more
        else begin
          match
            decode_payload_at h.h_kind st.st_in.buf ~pos:st.st_pos ~len:h.h_len
          with
          | msg ->
              consume st h.h_len;
              st.st_state <- S_header;
              `Frame (h.h_id, msg)
          | exception Err e ->
              st.st_state <- S_fail e;
              `Fail e
        end

  (* at least one byte of an incomplete frame is pending: the peer
     started a request and has not finished it.  This is the predicate
     the event loop turns into a per-frame deadline. *)
  let midframe st =
    match st.st_state with
    | S_payload _ | S_drain _ -> true
    | S_header -> buffered st > 0
    | S_fail _ -> false
end

let write_raw fd s =
  (* sound: Unix.write only reads the buffer *)
  let b = Bytes.unsafe_of_string s in
  let rec go off len =
    if len > 0 then begin
      match Unix.write fd b off len with
      | n ->
          Obs.Metrics.incr ~by:n bytes_written;
          go (off + n) (len - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off len
    end
  in
  go 0 (Bytes.length b)

let write_frame fd ~id msg = write_raw fd (encode ~id msg)
