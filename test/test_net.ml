(* cedarnet: wire-codec roundtrip and adversarial-decoder properties,
   then the TCP front-end end to end over real sockets — byte-identical
   output vs the in-process driver, trace propagation, request hygiene,
   admission control under a burst, graceful drain.

   All servers bind 127.0.0.1 port 0 (ephemeral), so tests never collide
   with each other or anything on the host. *)

module W = Net.Wire
module G = QCheck.Gen

let cedar = Machine.Config.cedar_config1

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let gen_techniques =
  (* one bit per field, in declaration order — any mapping works, the
     property only needs the record to survive the wire *)
  G.map
    (fun mask ->
      let b i = mask land (1 lsl i) <> 0 in
      {
        Restructurer.Options.scalar_privatization = b 0;
        scalar_expansion = b 1;
        simple_induction = b 2;
        simple_reduction = b 3;
        doacross = b 4;
        stripmining = b 5;
        if_to_where = b 6;
        inline_expansion = b 7;
        loop_interchange = b 8;
        recurrence_substitution = b 9;
        array_privatization = b 10;
        generalized_reduction = b 11;
        giv_substitution = b 12;
        runtime_dep_test = b 13;
        critical_sections = b 14;
        interprocedural = b 15;
        loop_fusion = b 16;
        loop_distribution = b 17;
      })
    (G.int_bound ((1 lsl 18) - 1))

let gen_options =
  let open G in
  let* techniques = gen_techniques in
  let* machine =
    oneofl [ Machine.Config.cedar_config1; Machine.Config.cedar_config2 ]
  in
  let* max_versions = int_bound 100 in
  let* strip = int_range 1 64 in
  let* max_depth = int_bound 5 in
  let* max_stmts = int_bound 200 in
  let* placement_default =
    oneofl
      [ Transform.Globalize.Default_global; Transform.Globalize.Default_cluster ]
  in
  let* assumed_trip = int_range 1 10_000 in
  let* validate = bool in
  let* target = oneofl Codegen.Target.all in
  return
    {
      Restructurer.Options.techniques;
      machine;
      max_versions;
      strip;
      inline_limits = { Transform.Inline.max_depth; max_stmts };
      placement_default;
      assumed_trip;
      validate;
      target;
    }

let gen_string = G.(string_size ~gen:char (int_bound 200))

let gen_submit =
  let open G in
  let* sub_name = gen_string in
  let* sub_source = string_size ~gen:char (int_bound 5000) in
  let* sub_options = gen_options in
  let* sub_trace = int_bound 1_000_000 in
  return (W.Submit { W.sub_name; sub_source; sub_options; sub_trace })

let gen_note =
  let open G in
  let* n_unit = gen_string in
  let* n_index = gen_string in
  let* n_depth = int_bound 9 in
  let* n_decision = gen_string in
  let* n_techniques = list_size (int_bound 5) gen_string in
  return { W.n_unit; n_index; n_depth; n_decision; n_techniques }

(* floats minted from ints so structural equality is exact (no NaN) *)
let gen_opt_float =
  G.(
    oneof
      [ return None; map (fun n -> Some (float_of_int n /. 16.0)) int ])

let gen_reply =
  let open G in
  frequency
    [
      ( 4,
        let* r_cached = bool in
        let* r_rung =
          oneofl
            [
              Service.Server.Full;
              Service.Server.Conservative;
              Service.Server.Passthrough;
            ]
        in
        let* r_text = string_size ~gen:char (int_bound 5000) in
        let* r_cycles = gen_opt_float in
        let* r_global_words = gen_opt_float in
        let* r_notes = list_size (int_bound 6) gen_note in
        let* r_trace = int_bound 1_000_000 in
        return
          (W.R_done
             {
               r_cached;
               r_rung;
               r_text;
               r_cycles;
               r_global_words;
               r_notes;
               r_trace;
             }) );
      (1, map (fun m -> W.R_failed m) gen_string);
      (1, return W.R_timeout);
      (1, return W.R_cancelled);
      (1, return W.R_overloaded);
      ( 1,
        let* limit = int_bound 1_000_000 in
        let* got = int_bound 10_000_000 in
        return (W.R_too_large { limit; got }) );
      (1, map (fun m -> W.R_error m) gen_string);
    ]

let gen_cache_push =
  let open G in
  let* cp_key = gen_string in
  let* cp_digest = gen_string in
  let* cp_name = gen_string in
  let* cp_text = string_size ~gen:char (int_bound 5000) in
  let* cp_cycles = gen_opt_float in
  let* cp_global_words = gen_opt_float in
  let* cp_notes = list_size (int_bound 6) gen_note in
  return
    (W.Cache_push
       {
         W.cp_key;
         cp_digest;
         cp_name;
         cp_text;
         cp_cycles;
         cp_global_words;
         cp_notes;
       })

(* every one of the wire's 15 kinds *)
let gen_message =
  let open G in
  frequency
    [
      (1, return W.Ping);
      (1, return W.Pong);
      (4, gen_submit);
      (4, map (fun r -> W.Result r) gen_reply);
      (1, return W.Metrics_req);
      (1, map (fun s -> W.Metrics_text s) gen_string);
      (1, return W.Shutdown_req);
      (1, return W.Shutdown_ack);
      (2, gen_cache_push);
      (1, map (fun b -> W.Cache_ack b) bool);
      (1, return W.Members_req);
      (1, map (fun s -> W.Members_json s) gen_string);
      ( 1,
        let* ca_id = gen_string in
        let* ca_host = gen_string in
        let* ca_port = int_bound 65535 in
        return (W.Cluster_add { W.ca_id; ca_host; ca_port }) );
      (1, map (fun id -> W.Cluster_remove id) gen_string);
      ( 1,
        let* ack_ok = bool in
        let* ack_epoch = int_bound 1000 in
        let* ack_msg = gen_string in
        return (W.Cluster_ack { W.ack_ok; ack_epoch; ack_msg }) );
    ]

let arbitrary_frame =
  QCheck.make
    G.(pair (int_bound max_int) gen_message)
    ~print:(fun (id, m) ->
      Printf.sprintf "id=%d kind=%s" id (W.message_kind_name m))

let prop_roundtrip =
  QCheck.Test.make ~name:"wire: decode (encode m) = m" ~count:500
    ~long_factor:20 arbitrary_frame (fun (id, msg) ->
      match W.decode (W.encode ~id msg) with
      | Ok (id', msg') -> id' = id && msg' = msg
      | Error e -> QCheck.Test.fail_reportf "decode: %s" (W.error_to_string e))

let prop_decoder_total =
  QCheck.Test.make ~name:"wire: decoder never raises on arbitrary bytes"
    ~count:2000 ~long_factor:20
    (QCheck.make G.(string_size ~gen:char (int_bound 256)))
    (fun junk ->
      match W.decode junk with
      | Ok _ | Error _ -> true
      | exception e ->
          QCheck.Test.fail_reportf "decoder raised %s" (Printexc.to_string e))

let prop_corrupt_payload =
  (* flip one payload byte of a valid frame: decode must return, not
     raise — and if it still decodes, the header must be intact *)
  QCheck.Test.make ~name:"wire: one-byte payload corruption fails typed"
    ~count:300 ~long_factor:20
    (QCheck.make
       G.(triple (int_bound 1000) gen_message (int_bound 10_000)))
    (fun (id, msg, at) ->
      let frame = Bytes.of_string (W.encode ~id msg) in
      if Bytes.length frame <= W.header_bytes then true
      else begin
        let pos =
          W.header_bytes + (at mod (Bytes.length frame - W.header_bytes))
        in
        Bytes.set frame pos
          (Char.chr (Char.code (Bytes.get frame pos) lxor 0x40));
        match W.decode (Bytes.to_string frame) with
        | Ok (id', _) -> id' = id
        | Error _ -> true
        | exception e ->
            QCheck.Test.fail_reportf "decoder raised %s"
              (Printexc.to_string e)
      end)

(* the zero-copy path: frames decoded in place from the stream buffer *)
let prop_stream_roundtrip =
  QCheck.Test.make ~name:"wire: stream decode (encode m) = m (zero-copy)"
    ~count:500 ~long_factor:20 arbitrary_frame (fun (id, msg) ->
      let st = W.Stream.create () in
      let s = W.encode ~id msg in
      W.Stream.feed st (Bytes.unsafe_of_string s) 0 (String.length s);
      match W.Stream.next st with
      | `Frame (id', msg') ->
          id' = id && msg' = msg && W.Stream.buffered st = 0
      | `Need_more -> QCheck.Test.fail_report "Need_more on a whole frame"
      | `Oversized _ -> QCheck.Test.fail_report "Oversized"
      | `Fail e -> QCheck.Test.fail_reportf "stream: %s" (W.error_to_string e))

let prop_stream_corruption_total =
  (* flip one byte anywhere in a valid frame — header or payload — and
     the stream decoder must return a typed verdict, never raise *)
  QCheck.Test.make ~name:"wire: stream survives one-byte corruption"
    ~count:500 ~long_factor:20
    (QCheck.make
       G.(triple (int_bound 1000) gen_message (int_bound 100_000)))
    (fun (id, msg, at) ->
      let frame = Bytes.of_string (W.encode ~id msg) in
      let pos = at mod Bytes.length frame in
      Bytes.set frame pos (Char.chr (Char.code (Bytes.get frame pos) lxor 0x40));
      let st = W.Stream.create () in
      W.Stream.feed st frame 0 (Bytes.length frame);
      (* a corrupt length byte can leave the stream mid-frame or mid-
         drain; pump until it wants more bytes or fails sticky *)
      let rec pump budget =
        if budget = 0 then
          QCheck.Test.fail_report "stream did not quiesce"
        else
          match W.Stream.next st with
          | `Need_more | `Fail _ -> true
          | `Frame _ | `Oversized _ -> pump (budget - 1)
          | exception e ->
              QCheck.Test.fail_reportf "stream raised %s"
                (Printexc.to_string e)
      in
      pump 8)

(* the one encoder, [append], into buffers the caller keeps *)
let contents b = Bytes.sub_string (W.buffer_bytes b) 0 (W.buffer_length b)

let prop_append_is_encode =
  QCheck.Test.make ~name:"wire: append m = encode m" ~count:500
    ~long_factor:20 arbitrary_frame (fun (id, msg) ->
      let b = W.create_buffer () in
      W.append b ~id msg;
      contents b = W.encode ~id msg)

let prop_appended_frames_stream_in_order =
  QCheck.Test.make ~name:"wire: frames appended back to back stream in order"
    ~count:200 ~long_factor:20
    (QCheck.make
       G.(list_size (int_range 1 8) (pair (int_bound max_int) gen_message))
       ~print:(fun fs ->
         String.concat " "
           (List.map
              (fun (id, m) -> Printf.sprintf "%d:%s" id (W.message_kind_name m))
              fs)))
    (fun frames ->
      let b = W.create_buffer () in
      List.iter (fun (id, msg) -> W.append b ~id msg) frames;
      let st = W.Stream.create () in
      W.Stream.feed st (W.buffer_bytes b) 0 (W.buffer_length b);
      List.for_all
        (fun (id, msg) ->
          match W.Stream.next st with
          | `Frame (id', msg') -> id' = id && msg' = msg
          | _ -> false)
        frames
      && W.Stream.next st = `Need_more
      && W.Stream.buffered st = 0)

let prop_reused_buffer_encodes_fresh =
  (* the buffer first holds a larger frame (sometimes past the 256 KiB
     mark, so [clear] swaps its storage), then the frame under test *)
  QCheck.Test.make ~name:"wire: a reused buffer encodes as a fresh one"
    ~count:300 ~long_factor:20
    (QCheck.make
       G.(
         triple (int_bound max_int) gen_message
           (frequency [ (4, int_bound 4096); (1, int_range 200_000 300_000) ]))
       ~print:(fun (id, m, extra) ->
         Printf.sprintf "id=%d kind=%s extra=%d" id (W.message_kind_name m)
           extra))
    (fun (id, msg, extra) ->
      let want = W.encode ~id msg in
      let b = W.create_buffer () in
      W.append b ~id:1
        (W.Metrics_text (String.make (String.length want + extra) '\xa5'));
      W.clear b;
      W.append b ~id msg;
      contents b = want)

(* ------------------------------------------------------------------ *)
(* Adversarial decoder unit tests                                      *)
(* ------------------------------------------------------------------ *)

let check_err name expected got =
  match got with
  | Error e ->
      Alcotest.(check string) name expected (W.error_to_string e)
  | Ok _ -> Alcotest.failf "%s: decoded successfully" name

let test_decoder_adversarial () =
  let ping = W.encode ~id:7 W.Ping in
  (* empty and short inputs *)
  (match W.decode "" with
  | Error W.Truncated -> ()
  | _ -> Alcotest.fail "empty: expected Truncated");
  (match W.decode (String.sub ping 0 (W.header_bytes - 1)) with
  | Error W.Truncated -> ()
  | _ -> Alcotest.fail "short header: expected Truncated");
  (* bad magic *)
  let bad_magic = "XDRN" ^ String.sub ping 4 (String.length ping - 4) in
  (match W.decode bad_magic with
  | Error W.Bad_magic -> ()
  | _ -> Alcotest.fail "bad magic: expected Bad_magic");
  let with_byte at v =
    let b = Bytes.of_string ping in
    Bytes.set b at (Char.chr v);
    W.decode (Bytes.to_string b)
  in
  (* every version byte but the one version fails at the header *)
  Alcotest.(check int) "the protocol version" 5 W.version;
  for v = 0 to 255 do
    match with_byte 4 v with
    | Ok (7, W.Ping) when v = W.version -> ()
    | Error (W.Bad_version v') when v' = v && v <> W.version -> ()
    | _ -> Alcotest.failf "version byte %d" v
  done;
  (* unknown kinds, the retired kind numbers among them *)
  List.iter
    (fun k ->
      match with_byte 5 k with
      | Error (W.Bad_kind k') when k' = k -> ()
      | _ -> Alcotest.failf "kind %d: expected Bad_kind %d" k k)
    [ 5; 6; 13; 14; 15; 16; 22; 23; 24; 99 ];
  (* truncated payload *)
  let submit =
    W.encode ~id:1
      (W.Submit
         {
           W.sub_name = "t";
           sub_source = "      END\n";
           sub_options = Restructurer.Options.auto_1991 cedar;
           sub_trace = 0;
         })
  in
  (match W.decode (String.sub submit 0 (String.length submit - 3)) with
  | Error W.Truncated -> ()
  | _ -> Alcotest.fail "cut frame: expected Truncated");
  (* length overflow: announce 0xFFFFFFFF payload bytes *)
  let overflow = Bytes.of_string ping in
  for i = 16 to 19 do
    Bytes.set overflow i '\xff'
  done;
  (match W.decode (Bytes.to_string overflow) with
  | Error (W.Length_overflow _) -> ()
  | _ -> Alcotest.fail "huge length: expected Length_overflow");
  (* trailing bytes beyond the announced payload *)
  check_err "trailing bytes"
    (match W.decode (ping ^ "x") with
    | Error e -> W.error_to_string e
    | Ok _ -> Alcotest.fail "trailing bytes: decoded successfully")
    (W.decode (ping ^ "x"))

let test_submit_target_bytes () =
  (* one Submit layout for every target: kind 3, version 5, and the
     target byte right after the trace id, the payload's last byte *)
  let mk target =
    W.Submit
      {
        W.sub_name = "t";
        sub_source = "      end\n";
        sub_options =
          { (Restructurer.Options.auto_1991 cedar) with
            Restructurer.Options.target };
        sub_trace = 0;
      }
  in
  let ced = W.encode ~id:7 (mk Codegen.Target.Cedar) in
  let omp = W.encode ~id:7 (mk Codegen.Target.Openmp) in
  let last s = Char.code s.[String.length s - 1] in
  Alcotest.(check int) "cedar submit is version 5" 5 (Char.code ced.[4]);
  Alcotest.(check int) "cedar submit is kind 3" 3 (Char.code ced.[5]);
  Alcotest.(check int) "openmp submit is version 5" 5 (Char.code omp.[4]);
  Alcotest.(check int) "openmp submit is kind 3" 3 (Char.code omp.[5]);
  Alcotest.(check int) "cedar target byte" 0 (last ced);
  Alcotest.(check int) "openmp target byte" 1 (last omp);
  (* the two frames differ in the target byte alone *)
  let n = String.length ced in
  Alcotest.(check int) "same length" n (String.length omp);
  Alcotest.(check string) "same bytes before the target byte"
    (String.sub ced 0 (n - 1)) (String.sub omp 0 (n - 1));
  List.iter
    (fun (frame, target) ->
      match W.decode frame with
      | Ok (7, W.Submit s) ->
          Alcotest.(check bool)
            (Codegen.Target.to_string target ^ " survives the roundtrip")
            true
            (s.W.sub_options.Restructurer.Options.target = target)
      | Ok _ -> Alcotest.fail "submit decoded to the wrong frame"
      | Error e -> Alcotest.failf "submit: %s" (W.error_to_string e))
    [ (ced, Codegen.Target.Cedar); (omp, Codegen.Target.Openmp) ];
  (* an unknown target byte is a typed decode error, not a crash *)
  let bad = Bytes.of_string omp in
  Bytes.set bad (Bytes.length bad - 1) (Char.chr 9);
  (match W.decode (Bytes.to_string bad) with
  | Error (W.Malformed _) -> ()
  | Ok _ -> Alcotest.fail "target byte 9 decoded"
  | Error e -> Alcotest.failf "target byte 9: %s" (W.error_to_string e));
  (* a frame stamped with another version dies in the header, before
     payload parsing *)
  let other = Bytes.of_string omp in
  Bytes.set other 4 (Char.chr 4);
  match W.decode (Bytes.to_string other) with
  | Error (W.Bad_version 4) -> ()
  | _ -> Alcotest.fail "version 4: expected Bad_version 4"

let test_roundtrip_huge_payload () =
  (* multi-MB frame regression: a 3 MiB source survives the codec *)
  let source = String.init (3 * 1024 * 1024) (fun i -> Char.chr (i land 0x7f)) in
  let msg =
    W.Submit
      {
        W.sub_name = "huge";
        sub_source = source;
        sub_options = Restructurer.Options.advanced cedar;
        sub_trace = 0xBEEF;
      }
  in
  match W.decode (W.encode ~id:42 msg) with
  | Ok (42, W.Submit s) ->
      Alcotest.(check int) "source length" (String.length source)
        (String.length s.W.sub_source);
      Alcotest.(check bool) "source intact" true (s.W.sub_source = source)
  | Ok _ -> Alcotest.fail "decoded to the wrong frame"
  | Error e -> Alcotest.failf "decode: %s" (W.error_to_string e)

let test_roundtrip_empty_options () =
  (* all-false techniques, minimal fields — the all-zeros mask *)
  let opts =
    {
      (Restructurer.Options.auto_1991 cedar) with
      Restructurer.Options.techniques =
        {
          Restructurer.Options.scalar_privatization = false;
          scalar_expansion = false;
          simple_induction = false;
          simple_reduction = false;
          doacross = false;
          stripmining = false;
          if_to_where = false;
          inline_expansion = false;
          loop_interchange = false;
          recurrence_substitution = false;
          array_privatization = false;
          generalized_reduction = false;
          giv_substitution = false;
          runtime_dep_test = false;
          critical_sections = false;
          interprocedural = false;
          loop_fusion = false;
          loop_distribution = false;
        };
    }
  in
  let msg =
    W.Submit
      { W.sub_name = ""; sub_source = ""; sub_options = opts; sub_trace = 0 }
  in
  match W.decode (W.encode ~id:0 msg) with
  | Ok (0, msg') -> Alcotest.(check bool) "equal" true (msg = msg')
  | Ok _ -> Alcotest.fail "wrong id"
  | Error e -> Alcotest.failf "decode: %s" (W.error_to_string e)

(* One message of every kind (a Submit for each target, every reply),
   with the MD5 of its frame: any change to a byte on the wire shows up
   here. *)
let pinned_frames =
  let note depth techniques =
    {
      W.n_unit = "cg";
      n_index = "i";
      n_depth = depth;
      n_decision = "parallelized";
      n_techniques = techniques;
    }
  in
  let notes = [ note 0 []; note 1 [ "scalar privatization"; "stripmining" ] ] in
  let submit target =
    W.Submit
      {
        W.sub_name = "saxpy";
        sub_source = "      X = 1.0\n      END\n";
        sub_options =
          {
            (Restructurer.Options.advanced cedar) with
            Restructurer.Options.target;
          };
        sub_trace = 0xC0FFEE;
      }
  in
  [
    ("ping", W.Ping, "7ffff1db1dfcf52d793099c4aac1f49a");
    ("pong", W.Pong, "3f02a7333a9089ba557ae45331c0733d");
    ( "submit cedar",
      submit Codegen.Target.Cedar,
      "5580914ec9542cfcdea179586f2e9709" );
    ( "submit openmp",
      submit Codegen.Target.Openmp,
      "45fb0f7c57cd2ff81dfd2e245fdec8ff" );
    ( "done with notes",
      W.Result
        (W.R_done
           {
             r_cached = true;
             r_rung = Service.Server.Conservative;
             r_text = "      CDOALL 10 I = 1, N\n";
             r_cycles = Some 1234.5;
             r_global_words = None;
             r_notes = notes;
             r_trace = 99;
           }),
      "5e07bb386c9903dc90a2d9952f94bb1f" );
    ( "failed",
      W.Result (W.R_failed "parse error, line 3"),
      "a7ee62941528ddf0e886dd105152a2df" );
    ("timeout", W.Result W.R_timeout, "8896b4d2c6147303c6398cea7206b1fc");
    ("cancelled", W.Result W.R_cancelled, "6a35fa6a507b45bd55f4951e7954bc40");
    ("overloaded", W.Result W.R_overloaded, "e79a7e38e15f4aa2ecbc3255a75711a3");
    ( "too large",
      W.Result (W.R_too_large { limit = 4096; got = 5000 }),
      "769ecd3ff1c7e3108a715d036fc2d690" );
    ( "error",
      W.Result (W.R_error "unexpected pong frame"),
      "d53e01c46d5d3abda0789810537251c1" );
    ("metrics req", W.Metrics_req, "c5653523cacfeba5b31961018fc81688");
    ( "metrics text",
      W.Metrics_text "net_requests_total 3\n",
      "6905e153b417a424fac30e05156f9ccb" );
    ("shutdown req", W.Shutdown_req, "d963817f8581fbf15b863c96cc02215e");
    ("shutdown ack", W.Shutdown_ack, "24bb3470e56505f7c754b3f2250fb012");
    ( "cache push",
      W.Cache_push
        {
          W.cp_key = "k";
          cp_digest = "d";
          cp_name = "saxpy";
          cp_text = "      END\n";
          cp_cycles = None;
          cp_global_words = Some 8.0;
          cp_notes = notes;
        },
      "e122310a396d71f622280cf4cc21efb2" );
    ("cache ack", W.Cache_ack true, "bf7fb2d2bac89295570650ae74ecf0fb");
    ("members req", W.Members_req, "852732842f31279f73518622d5736a25");
    ("members json", W.Members_json "[]", "37df260b57a8ce085b90196738e9ec19");
    ( "cluster add",
      W.Cluster_add { W.ca_id = "s2"; ca_host = "127.0.0.1"; ca_port = 7551 },
      "aa6a0594e0b85f447413694b007c9433" );
    ( "cluster remove",
      W.Cluster_remove "s2",
      "8a3bb9d33be388b7bd9923eca13d1dd5" );
    ( "cluster ack",
      W.Cluster_ack
        { W.ack_ok = false; ack_epoch = 4; ack_msg = "unknown shard" },
      "b06cdb99f01c00364020ccc02bc85143" );
  ]

let test_frames_pinned () =
  List.iter
    (fun (label, msg, want) ->
      Alcotest.(check string) label want
        (Digest.to_hex (Digest.string (W.encode ~id:7 msg))))
    pinned_frames

(* the pins again through [append]: one buffer reused for every frame,
   then all 22 frames back to back, each at its own offset *)
let test_append_pinned () =
  let b = W.create_buffer () in
  List.iter
    (fun (label, msg, want) ->
      W.clear b;
      W.append b ~id:7 msg;
      Alcotest.(check string) label want
        (Digest.to_hex (Digest.string (contents b))))
    pinned_frames;
  W.clear b;
  let ends =
    List.map
      (fun (_, msg, _) ->
        W.append b ~id:7 msg;
        W.buffer_length b)
      pinned_frames
  in
  ignore
    (List.fold_left2
       (fun start (label, _, want) stop ->
         let frame = String.sub (contents b) start (stop - start) in
         Alcotest.(check string) (label ^ ", back to back") want
           (Digest.to_hex (Digest.string frame));
         stop)
       0 pinned_frames ends)

(* ------------------------------------------------------------------ *)
(* Socket helpers                                                      *)
(* ------------------------------------------------------------------ *)

let with_net ?(cfg = Net.Server.default_cfg) ?fault ?(workers = 2) f =
  let svc =
    Service.Server.create ~workers ~cache_capacity:64 ~oversubscribe:true
      ~max_source_bytes:cfg.Net.Server.max_source_bytes ()
  in
  let net = Net.Server.create ?fault cfg svc in
  Fun.protect
    ~finally:(fun () ->
      Net.Server.drain net;
      ignore (Service.Server.shutdown svc))
    (fun () -> f svc net (Net.Server.port net))

(* The front-end contract holds at both front doors: a cedard
   Net.Server, and a one-shard Cluster.Proxy in front of one.  The
   proxy probes rarely so that prober pings stay out of flush counts. *)
type door = Cedard | Proxy

let with_door ?(cfg = Net.Server.default_cfg) door f =
  match door with
  | Cedard -> with_net ~cfg @@ fun _svc _net port -> f port
  | Proxy ->
      with_net @@ fun _svc _net shard_port ->
      let pcfg =
        {
          Cluster.Proxy.default_cfg with
          Cluster.Proxy.max_conns = cfg.Net.Server.max_conns;
          max_inflight = cfg.Net.Server.max_inflight;
          read_timeout_s = cfg.Net.Server.read_timeout_s;
        }
      in
      let proxy =
        Cluster.Proxy.create ~cfg:pcfg ~probe_ms:10_000.0
          [
            { Cluster.Membership.sh_id = "s0"; sh_host = "127.0.0.1";
              sh_port = shard_port };
          ]
      in
      Fun.protect
        ~finally:(fun () -> Cluster.Proxy.drain proxy)
        (fun () -> f (Cluster.Proxy.port proxy))

let connect_raw port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
  fd

(* Read exactly one frame off a blocking socket: the header, then the
   payload it announces, decoded whole.  [`Eof] only when the peer closed
   before the frame's first byte, [`Fail Truncated] when it closed inside
   the frame, [`Timeout] when the socket's SO_RCVTIMEO expired. *)
let read_frame fd =
  let really ~started n =
    let b = Bytes.create n in
    let closed off = if started || off > 0 then `Fail W.Truncated else `Eof in
    let rec go off =
      if off = n then `Ok (Bytes.unsafe_to_string b)
      else
        match Unix.read fd b off (n - off) with
        | 0 -> closed off
        | k -> go (off + k)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            `Timeout
        | exception Unix.Unix_error _ -> closed off
    in
    go 0
  in
  match really ~started:false W.header_bytes with
  | (`Eof | `Fail _ | `Timeout) as r -> r
  | `Ok hdr -> (
      match W.decode hdr with
      | Ok frame -> `Frame frame
      | Error W.Truncated -> (
          (* a valid header announcing a payload: fetch it *)
          let len = Int32.to_int (String.get_int32_be hdr 16) in
          match really ~started:true len with
          | (`Eof | `Fail _ | `Timeout) as r -> r
          | `Ok payload -> (
              match W.decode (hdr ^ payload) with
              | Ok frame -> `Frame frame
              | Error e -> `Fail e))
      | Error e -> `Fail e)

let saxpy_source =
  "      SUBROUTINE SAXPY(N, A, X, Y)\n\
  \      REAL X(N), Y(N), A\n\
  \      DO 10 I = 1, N\n\
  \         Y(I) = Y(I) + A * X(I)\n\
  \   10 CONTINUE\n\
  \      RETURN\n\
  \      END\n"

let submit_msg ?(trace = 0) ?(name = "saxpy") ?(source = saxpy_source) () =
  W.Submit
    {
      W.sub_name = name;
      sub_source = source;
      sub_options = Restructurer.Options.auto_1991 cedar;
      sub_trace = trace;
    }

let read_result fd =
  match read_frame fd with
  | `Frame (id, W.Result r) -> (id, r)
  | `Frame (_, m) ->
      Alcotest.failf "expected Result, got %s" (W.message_kind_name m)
  | `Eof -> Alcotest.fail "expected a frame, got Eof"
  | `Timeout -> Alcotest.fail "expected a frame, got a read timeout"
  | `Fail e -> Alcotest.failf "expected a frame, got %s" (W.error_to_string e)

(* ------------------------------------------------------------------ *)
(* End-to-end over real sockets                                        *)
(* ------------------------------------------------------------------ *)

let test_e2e_byte_identical () =
  (* the acceptance bar: restructuring over the wire is byte-identical
     to calling the driver in process, across the whole corpus *)
  let opts = Restructurer.Options.auto_1991 cedar in
  with_net @@ fun _svc _net port ->
  match Net.Client.connect (Net.Client.default_cfg ~port) with
  | Error msg -> Alcotest.failf "connect: %s" msg
  | Ok client ->
      Fun.protect
        ~finally:(fun () -> Net.Client.close client)
        (fun () ->
          List.iter
            (fun w ->
              let n = w.Workloads.Workload.small_size in
              let source = w.Workloads.Workload.source n in
              let expected =
                Fortran.Printer.program_to_string
                  (Restructurer.Driver.restructure opts
                     (Fortran.Parser.parse_program source))
                    .Restructurer.Driver.program
              in
              match
                Net.Client.submit client ~name:w.Workloads.Workload.name
                  ~options:opts source
              with
              | Ok (W.R_done { r_text; _ }) ->
                  Alcotest.(check bool)
                    (w.Workloads.Workload.name ^ " byte-identical")
                    true (r_text = expected)
              | Ok r ->
                  Alcotest.failf "%s: unexpected reply %s"
                    w.Workloads.Workload.name
                    (match r with
                    | W.R_failed m -> "Failed: " ^ m
                    | W.R_timeout -> "Timeout"
                    | W.R_cancelled -> "Cancelled"
                    | W.R_overloaded -> "Overloaded"
                    | W.R_too_large _ -> "TooLarge"
                    | W.R_error m -> "Error: " ^ m
                    | W.R_done _ -> assert false)
              | Error msg ->
                  Alcotest.failf "%s: %s" w.Workloads.Workload.name msg)
            (Service.Traffic.corpus ()))

let test_trace_propagation () =
  with_net @@ fun _svc _net port ->
  let fd = connect_raw port in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      W.write_frame fd ~id:5 (submit_msg ~trace:0xC0FFEE ());
      match read_result fd with
      | 5, W.R_done { r_trace; _ } ->
          Alcotest.(check int) "trace id rode end-to-end" 0xC0FFEE r_trace
      | _, r ->
          Alcotest.failf "unexpected reply %s"
            (match r with W.R_failed m -> m | _ -> "(not done)"))

let test_pipelining_ids door () =
  (* several requests in flight on one connection: every reply arrives
     and echoes its request id *)
  with_door door @@ fun port ->
  let fd = connect_raw port in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let ids = [ 11; 22; 33; 44 ] in
      List.iter (fun id -> W.write_frame fd ~id (submit_msg ())) ids;
      let got = List.map (fun _ -> fst (read_result fd)) ids in
      Alcotest.(check (list int)) "ids echoed in order" ids got)

let test_split_reads_byte_identical () =
  (* deliver a submit one byte per write: every byte lands in its own
     fiber wakeup on the server (TCP_NODELAY, loopback), exercising the
     resumable in-place decoder across feed boundaries — and the result
     must still be byte-identical to the in-process driver *)
  let opts = Restructurer.Options.auto_1991 cedar in
  let expected =
    Fortran.Printer.program_to_string
      (Restructurer.Driver.restructure opts
         (Fortran.Parser.parse_program saxpy_source))
        .Restructurer.Driver.program
  in
  with_net @@ fun _svc _net port ->
  let fd = connect_raw port in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let frame = W.encode ~id:77 (submit_msg ()) in
      String.iter
        (fun c -> ignore (Unix.write fd (Bytes.make 1 c) 0 1))
        frame;
      (match read_result fd with
      | 77, W.R_done { r_text; _ } ->
          Alcotest.(check bool) "byte-identical over 1-byte reads" true
            (r_text = expected)
      | _, _ -> Alcotest.fail "expected R_done");
      (* two more frames split at a deliberately awkward boundary: the
         cut lands mid-header of the second frame *)
      let two = W.encode ~id:1 (submit_msg ()) ^ W.encode ~id:2 W.Ping in
      let cut = String.length two - (W.header_bytes / 2) in
      ignore (Unix.write_substring fd two 0 cut);
      Thread.delay 0.02;
      ignore (Unix.write_substring fd two cut (String.length two - cut));
      (match read_result fd with
      | 1, W.R_done { r_text; _ } ->
          Alcotest.(check bool) "first of split pair" true (r_text = expected)
      | _, _ -> Alcotest.fail "expected R_done for id 1");
      match read_frame fd with
      | `Frame (2, W.Pong) -> ()
      | _ -> Alcotest.fail "expected Pong for id 2")

let test_reply_batching door () =
  (* N pipelined requests arriving in one TCP segment are answered in a
     handful of corked flushes, not N writes — and the reply bytes are
     identical to N individually encoded frames *)
  let flushes = Obs.Metrics.counter Obs.Metrics.global "net_flushes_total" in
  let n = 32 in
  with_door door @@ fun port ->
  let fd = connect_raw port in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      (* warm the connection so accept-path writes don't skew the count *)
      W.write_frame fd ~id:0 W.Ping;
      (match read_frame fd with
      | `Frame (0, W.Pong) -> ()
      | _ -> Alcotest.fail "warmup ping");
      let before = Obs.Metrics.counter_value flushes in
      let burst =
        String.concat ""
          (List.init n (fun i -> W.encode ~id:(i + 1) W.Ping))
      in
      ignore (Unix.write_substring fd burst 0 (String.length burst));
      let expected =
        String.concat ""
          (List.init n (fun i -> W.encode ~id:(i + 1) W.Pong))
      in
      let got = Bytes.create (String.length expected) in
      let rec fill off =
        if off < Bytes.length got then
          match Unix.read fd got off (Bytes.length got - off) with
          | 0 -> Alcotest.fail "connection closed mid-burst"
          | k -> fill (off + k)
      in
      fill 0;
      Alcotest.(check bool) "replies byte-identical to unbatched encodings"
        true (Bytes.to_string got = expected);
      let used = Obs.Metrics.counter_value flushes - before in
      Alcotest.(check bool)
        (Printf.sprintf "%d pings answered in %d flushes (want < %d)" n used n)
        true
        (used >= 1 && used < n))

let test_too_large_keeps_connection () =
  (* oversized submit: typed rejection, constant-memory drain, and the
     connection survives to serve the next request *)
  let cfg =
    { Net.Server.default_cfg with Net.Server.max_source_bytes = 4096 }
  in
  with_net ~cfg @@ fun _svc _net port ->
  let fd = connect_raw port in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      (* frame-level: 2 MiB source blows the reader's frame cap *)
      let big = String.make (2 * 1024 * 1024) 'x' in
      W.write_frame fd ~id:1 (submit_msg ~source:big ());
      (match read_result fd with
      | 1, W.R_too_large { got; _ } ->
          Alcotest.(check bool) "got >= announced" true
            (got > 2 * 1024 * 1024)
      | _, _ -> Alcotest.fail "expected R_too_large for the huge frame");
      (* service-level: past the frame cap check but over the source cap *)
      let medium = String.make 5000 'y' in
      W.write_frame fd ~id:2 (submit_msg ~source:medium ());
      (match read_result fd with
      | 2, W.R_too_large { limit; got } ->
          Alcotest.(check int) "limit echoed" 4096 limit;
          Alcotest.(check int) "got echoed" 5000 got
      | _, _ -> Alcotest.fail "expected R_too_large for the medium source");
      (* the stream is still synchronized *)
      W.write_frame fd ~id:3 W.Ping;
      match read_frame fd with
      | `Frame (3, W.Pong) -> ()
      | _ -> Alcotest.fail "connection did not survive the rejections")

let test_overload_burst () =
  (* 4x the in-flight budget in one pipelined burst: every request gets
     a reply, the excess is explicitly Overloaded, and the high-water
     mark proves the budget held (bounded memory) *)
  let budget = 2 in
  let cfg =
    { Net.Server.default_cfg with Net.Server.max_inflight = budget }
  in
  with_net ~cfg ~workers:1 @@ fun _svc net port ->
  (* a heavy job keeps the single worker busy while the burst lands *)
  let corpus = Service.Traffic.corpus () in
  let heavy =
    String.concat "\n"
      (List.concat_map
         (fun w ->
           [ w.Workloads.Workload.source w.Workloads.Workload.small_size ])
         corpus)
  in
  let fd = connect_raw port in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let n = 4 * budget in
      for id = 1 to n do
        W.write_frame fd ~id (submit_msg ~name:"burst" ~source:heavy ())
      done;
      let done_ = ref 0 and overloaded = ref 0 in
      for _ = 1 to n do
        match read_result fd with
        | _, W.R_done _ -> incr done_
        | _, W.R_overloaded -> incr overloaded
        | _, r ->
            Alcotest.failf "unexpected reply %s"
              (match r with W.R_failed m -> m | _ -> "(not done)")
      done;
      Alcotest.(check int) "every request answered" n (!done_ + !overloaded);
      Alcotest.(check bool) "excess was shed" true (!overloaded > 0);
      Alcotest.(check bool) "budget held" true
        (Net.Server.inflight_high_water net <= budget);
      Alcotest.(check bool) "shed counted" true
        (Net.Server.shed_total net >= !overloaded))

let test_conn_budget_shed door () =
  let cfg = { Net.Server.default_cfg with Net.Server.max_conns = 1 } in
  with_door ~cfg door @@ fun port ->
  let fd1 = connect_raw port in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd1 with Unix.Unix_error _ -> ())
    (fun () ->
      W.write_frame fd1 ~id:1 W.Ping;
      (match read_frame fd1 with
      | `Frame (1, W.Pong) -> ()
      | _ -> Alcotest.fail "first connection should be served");
      let fd2 = connect_raw port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd2 with Unix.Unix_error _ -> ())
        (fun () ->
          match read_frame fd2 with
          | `Frame (0, W.Result W.R_overloaded) -> ()
          | `Eof -> Alcotest.fail "shed without the explicit frame"
          | _ -> Alcotest.fail "second connection should be shed"))

let test_stalled_sender_dropped () =
  let cfg =
    { Net.Server.default_cfg with Net.Server.read_timeout_s = 0.3 }
  in
  with_net ~cfg @@ fun _svc _net port ->
  let fd = connect_raw port in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      (* half a header, then silence: the deadline must fire and the
         server must drop us *)
      ignore (Unix.write fd (Bytes.of_string "CDRN\001") 0 5);
      let buf = Bytes.create 64 in
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
      match Unix.read fd buf 0 64 with
      | 0 -> ()
      | n -> Alcotest.failf "expected EOF, read %d bytes" n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          Alcotest.fail "server kept a stalled connection open")

let test_garbage_frame_from_client door () =
  with_door door @@ fun port ->
  let fd = connect_raw port in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      W.write_raw fd (String.make 64 'Z');
      match read_frame fd with
      | `Frame (0, W.Result (W.R_error _)) -> ()
      | `Eof -> Alcotest.fail "dropped without the typed error reply"
      | _ -> Alcotest.fail "expected a typed protocol error")

let test_graceful_drain_flushes_replies () =
  (* requests in flight when the drain starts still get their replies *)
  with_net @@ fun svc net port ->
  let fd = connect_raw port in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let ids = [ 1; 2; 3 ] in
      List.iter (fun id -> W.write_frame fd ~id (submit_msg ())) ids;
      (* a drain rejects requests not yet admitted, so wait until all
         three are inside the service before starting it *)
      let deadline = Unix.gettimeofday () +. 10.0 in
      while
        (Service.Server.stats svc).Service.Stats.submitted < 3
        && Unix.gettimeofday () < deadline
      do
        Thread.yield ()
      done;
      Net.Server.drain net;
      let got =
        List.map
          (fun _ ->
            match read_result fd with
            | id, W.R_done _ -> id
            | id, W.R_cancelled -> id (* raced the pool shutdown: still typed *)
            | _, _ -> Alcotest.fail "unexpected reply during drain")
          ids
      in
      Alcotest.(check (list int)) "all replies flushed" ids got;
      (match read_frame fd with
      | `Eof -> ()
      | _ -> Alcotest.fail "expected EOF after the drain");
      (* the service pool survives the net drain; its own shutdown is
         deterministic and idempotent *)
      ignore (Service.Server.shutdown svc);
      ignore (Service.Server.shutdown svc))

let test_stream_decoder () =
  (* the incremental decoder behind the fiber reader: the Stalled fix.
     SO_RCVTIMEO is meaningless on a non-blocking descriptor, so the
     mid-frame stall verdict moved into Stream.midframe + an event-loop
     deadline; this pins the state machine the deadline logic reads. *)
  let feed_str st s =
    W.Stream.feed st (Bytes.unsafe_of_string s) 0 (String.length s)
  in
  (* byte-at-a-time delivery: Need_more at every prefix, one Frame at
     the end, and midframe flips exactly when the first byte lands *)
  let ping = W.encode ~id:9 W.Ping in
  let st = W.Stream.create () in
  Alcotest.(check bool) "fresh stream not midframe" false (W.Stream.midframe st);
  String.iteri
    (fun i c ->
      (match W.Stream.next st with
      | `Need_more -> ()
      | _ -> Alcotest.failf "frame yielded at byte %d" i);
      feed_str st (String.make 1 c);
      Alcotest.(check bool)
        (Printf.sprintf "midframe after byte %d" i)
        true (W.Stream.midframe st || i = String.length ping - 1))
    ping;
  (match W.Stream.next st with
  | `Frame (9, W.Ping) -> ()
  | _ -> Alcotest.fail "expected the Ping frame");
  Alcotest.(check bool) "not midframe after the frame" false
    (W.Stream.midframe st);
  (* two pipelined frames in one feed come out in order *)
  let st = W.Stream.create () in
  feed_str st (W.encode ~id:1 W.Ping ^ W.encode ~id:2 W.Metrics_req);
  (match W.Stream.next st with
  | `Frame (1, W.Ping) -> ()
  | _ -> Alcotest.fail "first pipelined frame");
  (match W.Stream.next st with
  | `Frame (2, W.Metrics_req) -> ()
  | _ -> Alcotest.fail "second pipelined frame");
  (* an over-cap payload drains in constant memory and resynchronizes *)
  let st = W.Stream.create ~max_payload:64 () in
  let big = W.encode ~id:3 (submit_msg ~source:(String.make 4096 'x') ()) in
  feed_str st big;
  feed_str st (W.encode ~id:4 W.Ping);
  (match W.Stream.next st with
  | `Oversized (3, got) ->
      Alcotest.(check bool) "announced length" true (got > 4096)
  | _ -> Alcotest.fail "expected Oversized");
  Alcotest.(check bool) "oversized drain buffers nothing" true
    (W.Stream.buffered st <= W.header_bytes + 64);
  (match W.Stream.next st with
  | `Frame (4, W.Ping) -> ()
  | _ -> Alcotest.fail "stream did not resynchronize after Oversized");
  (* decode failures are sticky *)
  let st = W.Stream.create () in
  feed_str st (String.make 64 'Z');
  (match W.Stream.next st with
  | `Fail W.Bad_magic -> ()
  | _ -> Alcotest.fail "expected Bad_magic");
  feed_str st (W.encode ~id:5 W.Ping);
  (match W.Stream.next st with
  | `Fail W.Bad_magic -> ()
  | _ -> Alcotest.fail "failure must be sticky");
  Alcotest.(check bool) "failed stream not midframe" false
    (W.Stream.midframe st)

let test_slow_loris_deadlined () =
  (* a sender trickling one header byte at a time must be cut off by
     the per-frame deadline — while a well-behaved connection on the
     same server keeps getting served.  The old SO_RCVTIMEO approach
     could never catch this: every single read returned within the
     timeout. *)
  let cfg =
    { Net.Server.default_cfg with Net.Server.read_timeout_s = 0.4 }
  in
  with_net ~cfg @@ fun _svc _net port ->
  let loris = connect_raw port in
  let fast = connect_raw port in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ loris; fast ])
    (fun () ->
      let t0 = Unix.gettimeofday () in
      let header = W.encode ~id:1 W.Ping in
      let cut = ref None in
      (* trickle a byte every 100 ms; each arrival resets nothing — the
         deadline is absolute from the first byte *)
      (try
         String.iteri
           (fun i c ->
             if !cut = None then begin
               ignore (Unix.write loris (Bytes.make 1 c) 0 1);
               (* the fast connection stays live the whole time *)
               if i land 1 = 0 then begin
                 W.write_frame fast ~id:(100 + i) W.Ping;
                 match read_frame fast with
                 | `Frame (_, W.Pong) -> ()
                 | _ -> Alcotest.fail "fast connection starved by the loris"
               end;
               Thread.delay 0.1
             end)
           (header ^ header)
       with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
         cut := Some (Unix.gettimeofday ()));
      (* however the trickle ended, the server must have dropped us *)
      Unix.setsockopt_float loris Unix.SO_RCVTIMEO 5.0;
      let buf = Bytes.create 64 in
      (match Unix.read loris buf 0 64 with
      | 0 -> ()
      | _ -> Alcotest.fail "loris got a reply it never finished asking for"
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          Alcotest.fail "server kept the slow-loris connection open");
      let cut_at =
        match !cut with Some t -> t | None -> Unix.gettimeofday ()
      in
      Alcotest.(check bool) "deadline fired after read_timeout_s" true
        (cut_at -. t0 >= 0.35);
      (* and the polite connection is still fine *)
      W.write_frame fast ~id:999 W.Ping;
      match read_frame fast with
      | `Frame (999, W.Pong) -> ()
      | _ -> Alcotest.fail "fast connection lost after the loris was cut")

let test_idle_flood_byte_identical () =
  (* the fiber economics test: 512 connections sit idle (no deadline,
     no thread, no buffer each) while 16 drivers push the corpus
     through — output stays byte-identical to the in-process driver,
     and the idle connections are all still alive afterwards *)
  let idle_n = 512 and drivers = 16 in
  let cfg = { Net.Server.default_cfg with Net.Server.max_conns = 600 } in
  let opts = Restructurer.Options.auto_1991 cedar in
  with_net ~cfg ~workers:2 @@ fun _svc _net port ->
  let idle = Array.init idle_n (fun _ -> connect_raw port) in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        idle)
    (fun () ->
      let corpus = Service.Traffic.corpus () in
      let expected =
        List.map
          (fun w ->
            let source =
              w.Workloads.Workload.source w.Workloads.Workload.small_size
            in
            ( w.Workloads.Workload.name,
              source,
              Fortran.Printer.program_to_string
                (Restructurer.Driver.restructure opts
                   (Fortran.Parser.parse_program source))
                  .Restructurer.Driver.program ))
          corpus
      in
      let fail_mu = Mutex.create () in
      let failures = ref [] in
      let note_failure msg =
        Mutex.lock fail_mu;
        failures := msg :: !failures;
        Mutex.unlock fail_mu
      in
      let driver i =
        match Net.Client.connect (Net.Client.default_cfg ~port) with
        | Error msg -> note_failure (Printf.sprintf "driver %d connect: %s" i msg)
        | Ok client ->
            Fun.protect
              ~finally:(fun () -> Net.Client.close client)
              (fun () ->
                List.iter
                  (fun (name, source, want) ->
                    match Net.Client.submit client ~name ~options:opts source with
                    | Ok (W.R_done { r_text; _ }) when r_text = want -> ()
                    | Ok (W.R_done _) ->
                        note_failure
                          (Printf.sprintf "driver %d %s: text differs" i name)
                    | Ok r ->
                        note_failure
                          (Printf.sprintf "driver %d %s: %s" i name
                             (match r with
                             | W.R_failed m -> "Failed: " ^ m
                             | W.R_timeout -> "Timeout"
                             | W.R_cancelled -> "Cancelled"
                             | W.R_overloaded -> "Overloaded"
                             | W.R_too_large _ -> "TooLarge"
                             | W.R_error m -> "Error: " ^ m
                             | W.R_done _ -> assert false))
                    | Error msg ->
                        note_failure
                          (Printf.sprintf "driver %d %s: transport %s" i name msg))
                  expected)
      in
      let threads = List.init drivers (fun i -> Thread.create driver i) in
      List.iter Thread.join threads;
      (match !failures with
      | [] -> ()
      | msgs ->
          Alcotest.failf "driver outputs not byte-identical:\n%s"
            (String.concat "\n" msgs));
      (* every idle connection survived the storm: ping a sample *)
      Array.iteri
        (fun i fd ->
          if i mod 64 = 0 then begin
            W.write_frame fd ~id:i W.Ping;
            match read_frame fd with
            | `Frame (id, W.Pong) when id = i -> ()
            | _ -> Alcotest.failf "idle connection %d died" i
          end)
        idle)

(* one scrape: send a request head, read the reply until the server
   closes *)
let http_get port =
  let fd = connect_raw port in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let req = "GET /metrics HTTP/1.0\r\n\r\n" in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let buf = Buffer.create 256 in
      let chunk = Bytes.create 256 in
      let rec slurp () =
        match Unix.read fd chunk 0 256 with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            slurp ()
        | exception Unix.Unix_error _ -> ()
      in
      slurp ();
      Buffer.contents buf)

let test_metrics_http () =
  with_net @@ fun _svc net _port ->
  let port = Net.Metrics_http.start ~port:0 net (fun () -> "cedar_up 1\n") in
  let response = http_get port in
  Alcotest.(check bool) "200 OK" true
    (String.length response >= 15
    && String.sub response 0 15 = "HTTP/1.0 200 OK");
  let has_body =
    let needle = "cedar_up 1" in
    let rec find i =
      i + String.length needle <= String.length response
      && (String.sub response i (String.length needle) = needle
         || find (i + 1))
    in
    find 0
  in
  Alcotest.(check bool) "body served" true has_body

(* each scrape is its own fiber: a connection that never sends its
   request head (held to the 2 s read deadline) delays no other scrape *)
let test_metrics_http_stalled () =
  with_net @@ fun _svc net _port ->
  let port = Net.Metrics_http.start ~port:0 net (fun () -> "cedar_up 1\n") in
  let silent = connect_raw port in
  Fun.protect ~finally:(fun () -> Unix.close silent) @@ fun () ->
  Unix.sleepf 0.05;
  let t0 = Unix.gettimeofday () in
  let response = http_get port in
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "second scrape answered" true
    (String.length response >= 15
    && String.sub response 0 15 = "HTTP/1.0 200 OK");
  if dt >= 0.5 then
    Alcotest.failf "second scrape took %.2f s behind a silent connection" dt

let test_client_connect_fast_fail () =
  (* a dead port fails within the backoff schedule, not a kernel-default
     TCP timeout *)
  let cfg =
    {
      (Net.Client.default_cfg ~port:1) with
      Net.Client.max_attempts = 2;
      backoff_s = 0.01;
      connect_timeout_s = 1.0;
    }
  in
  let t0 = Unix.gettimeofday () in
  match Net.Client.connect cfg with
  | Ok _ -> Alcotest.fail "connected to a dead port?"
  | Error _ ->
      Alcotest.(check bool) "failed quickly" true
        (Unix.gettimeofday () -. t0 < 10.0)

(* a listener that completes TCP handshakes in the kernel backlog but
   never accepts: every request sent to it goes unanswered *)
let with_silent_listener f =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen fd 64;
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, port) -> f port
  | Unix.ADDR_UNIX _ -> assert false

let test_client_fiber_blocks_no_other () =
  (* two client fibers on one scheduler: the one waiting on a silent
     server must not hold up the one talking to a live cedard *)
  with_net @@ fun _svc _net live_port ->
  with_silent_listener @@ fun silent_port ->
  let finished = ref [] in
  let ping name port =
    let cfg =
      {
        (Net.Client.default_cfg ~port) with
        Net.Client.request_timeout_s = 0.5;
        max_attempts = 1;
      }
    in
    match Net.Client.connect cfg with
    | Error msg -> Alcotest.failf "%s: connect: %s" name msg
    | Ok c ->
        ignore (Net.Client.ping c);
        Net.Client.close c;
        finished := name :: !finished
  in
  let t0 = Unix.gettimeofday () in
  Aio.run (Aio.create ()) (fun () ->
      ignore (Aio.spawn (fun () -> ping "silent" silent_port));
      ignore (Aio.spawn (fun () -> ping "live" live_port)));
  Alcotest.(check (list string)) "the live ping finished first"
    [ "silent"; "live" ] !finished;
  Alcotest.(check bool) "the silent ping was cut at its deadline" true
    (Unix.gettimeofday () -. t0 < 2.0)

let test_client_deadline_bounds_trickle () =
  (* a server that answers one byte per 100 ms: every single read comes
     back well inside the timeout, so only a deadline on the whole round
     trip can cut the 2 s reply off *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close lfd) @@ fun () ->
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lfd 1;
  let port =
    match Unix.getsockname lfd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  let trickler =
    Thread.create
      (fun () ->
        (* bounded, so a client that never connects cannot hang the join *)
        if Aio.poll_fd lfd `Read ~timeout_s:5.0 then
          let fd, _ = Unix.accept lfd in
          Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
          match read_frame fd with
          | `Frame (id, W.Ping) -> (
              let pong = W.encode ~id W.Pong in
              try
                String.iter
                  (fun c ->
                    Thread.delay 0.1;
                    ignore (Unix.write fd (Bytes.make 1 c) 0 1))
                  pong
              with Unix.Unix_error _ -> ())
          | _ -> ())
      ()
  in
  let cfg =
    {
      (Net.Client.default_cfg ~port) with
      Net.Client.request_timeout_s = 0.5;
      max_attempts = 1;
    }
  in
  let outcome =
    match Net.Client.connect cfg with
    | Error msg -> Error ("connect: " ^ msg)
    | Ok c ->
        let t0 = Unix.gettimeofday () in
        let r = Net.Client.ping c in
        let dt = Unix.gettimeofday () -. t0 in
        Net.Client.close c;
        Ok (r, dt)
  in
  Thread.join trickler;
  match outcome with
  | Error msg -> Alcotest.fail msg
  | Ok (Ok _, dt) ->
      Alcotest.failf "a reply trickled over %.2fs beat a 0.5 s timeout" dt
  | Ok (Error _, dt) ->
      Alcotest.(check bool)
        (Printf.sprintf "failed after %.2fs, within 1.5 s" dt)
        true (dt < 1.5)

(* a connection that once carried a large frame gives its storage back
   once the frame has gone: the stream and an output buffer alike *)
let test_buffers_shrink () =
  let frame =
    W.encode ~id:1 (submit_msg ~source:(String.make (1 lsl 20) 'x') ())
  in
  let st = W.Stream.create () in
  W.Stream.feed st (Bytes.unsafe_of_string frame) 0 (String.length frame);
  (match W.Stream.next st with
  | `Frame (1, W.Submit _) -> ()
  | _ -> Alcotest.fail "expected the 1 MiB Submit");
  let words = Obj.reachable_words (Obj.repr st) in
  if words >= 1024 then
    Alcotest.failf "a drained stream keeps %d words (want < 1024)" words;
  let b = W.create_buffer () in
  W.append_raw b frame;
  W.clear b;
  let words = Obj.reachable_words (Obj.repr b) in
  if words >= 1024 then
    Alcotest.failf "a cleared buffer keeps %d words (want < 1024)" words;
  (* a frame at the cap keeps its storage: no churn below it *)
  W.append_raw b (String.make W.max_batch_bytes 'y');
  W.clear b;
  Alcotest.(check bool) "storage at the cap is kept" true
    (Obj.reachable_words (Obj.repr b) > W.max_batch_bytes / 8)

(* The warm path's allocation: a cache hit over a socket to an
   in-process Net.Server allocates its request and reply frames in
   buffers each connection reuses, so what goes straight to the major
   heap per hit is the decoded source on the server and the decoded
   text on the client (about 1.2K words for these requests, against
   about 2.8K when each frame was a fresh string). *)
let test_hit_major_budget () =
  let reqs =
    Array.init 16 (fun i ->
        Service.Traffic.nth_request ~seed:7 ~size_jitter:4 ~batch:4 i)
  in
  with_net @@ fun _svc _net port ->
  match Net.Client.connect (Net.Client.default_cfg ~port) with
  | Error msg -> Alcotest.failf "connect: %s" msg
  | Ok client ->
      Fun.protect ~finally:(fun () -> Net.Client.close client) @@ fun () ->
      let hit (r : Service.Server.request) =
        match
          Net.Client.submit client ~name:r.req_name ~options:r.req_options
            r.req_source
        with
        | Ok (W.R_done { r_cached; _ }) -> r_cached
        | Ok _ | Error _ -> Alcotest.failf "%s: not done" r.req_name
      in
      (* fill the cache, then let every buffer grow to its frames *)
      Array.iter (fun r -> ignore (hit r)) reqs;
      Array.iter (fun r -> ignore (hit r)) reqs;
      let n = 500 in
      let g0 = Gc.quick_stat () in
      let misses = ref 0 in
      for i = 0 to n - 1 do
        if not (hit reqs.(i mod Array.length reqs)) then incr misses
      done;
      let g1 = Gc.quick_stat () in
      Alcotest.(check int) "every request a hit" 0 !misses;
      let direct =
        g1.Gc.major_words -. g0.Gc.major_words
        -. (g1.Gc.promoted_words -. g0.Gc.promoted_words)
      in
      let per_hit = direct /. float_of_int n in
      if per_hit > 1600.0 then
        Alcotest.failf "%.0f direct-major words per hit (budget 1600)" per_hit

(* the integer after ["key":] in a rendered view *)
let json_int json key =
  let needle = Printf.sprintf "\"%s\":" key in
  let n = String.length needle in
  let rec find i =
    if i + n > String.length json then Alcotest.failf "no %s in %s" key json
    else if String.sub json i n = needle then i + n
    else find (i + 1)
  in
  let start = find 0 in
  let stop = ref start in
  while !stop < String.length json && json.[!stop] >= '0' && json.[!stop] <= '9' do
    incr stop
  done;
  int_of_string (String.sub json start (!stop - start))

(* every stats view is rendered from the metrics dump: the view's counts
   are that dump's counters, and the text keeps every summary line *)
let test_stats_view_reads_the_dump () =
  with_net @@ fun _svc _net port ->
  match Net.Client.connect (Net.Client.default_cfg ~port) with
  | Error e -> Alcotest.failf "connect: %s" e
  | Ok c ->
      Fun.protect ~finally:(fun () -> Net.Client.close c) @@ fun () ->
      (* a miss, then a hit *)
      for _ = 1 to 2 do
        match
          Net.Client.submit c ~name:"saxpy"
            ~options:(Restructurer.Options.auto_1991 cedar) saxpy_source
        with
        | Ok (W.R_done _) -> ()
        | _ -> Alcotest.fail "saxpy did not complete"
      done;
      let dump =
        match Net.Client.metrics c with
        | Ok d -> d
        | Error e -> Alcotest.failf "metrics: %s" e
      in
      let scraped metric =
        List.find_map
          (fun line ->
            match String.split_on_char ' ' line with
            | [ m; v ] when m = metric -> int_of_string_opt v
            | _ -> None)
          (String.split_on_char '\n' dump)
        |> Option.get
      in
      let json = Service.Stats.render ~json:true dump in
      List.iter
        (fun (field, metric) ->
          Alcotest.(check int) field (scraped metric) (json_int json field))
        [
          ("submitted", "service_jobs_submitted_total");
          ("completed", "service_jobs_completed_total");
          ("cache_hits", "service_cache_hits_total");
          ("cache_misses", "service_cache_misses_total");
        ];
      let lines = String.split_on_char '\n' (Service.Stats.render dump) in
      List.iter
        (fun prefix ->
          Alcotest.(check bool) (prefix ^ "line printed") true
            (List.exists (String.starts_with ~prefix) lines))
        [ "jobs "; "rungs "; "queue "; "cache "; "memo "; "latency ";
          "throughput " ]

let tests =
  [
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_decoder_total;
    QCheck_alcotest.to_alcotest prop_corrupt_payload;
    QCheck_alcotest.to_alcotest prop_stream_roundtrip;
    QCheck_alcotest.to_alcotest prop_stream_corruption_total;
    Alcotest.test_case "decoder: adversarial inputs fail typed" `Quick
      test_decoder_adversarial;
    Alcotest.test_case "codec: one Submit layout, target byte last"
      `Quick test_submit_target_bytes;
    Alcotest.test_case "codec: multi-MB payload roundtrip" `Quick
      test_roundtrip_huge_payload;
    Alcotest.test_case "codec: empty options roundtrip" `Quick
      test_roundtrip_empty_options;
    Alcotest.test_case "e2e: socket output byte-identical to in-process"
      `Slow test_e2e_byte_identical;
    Alcotest.test_case "e2e: trace id propagates end-to-end" `Quick
      test_trace_propagation;
    Alcotest.test_case "e2e: pipelined requests echo their ids" `Quick
      (test_pipelining_ids Cedard);
    Alcotest.test_case "stream: 1-byte split reads stay byte-identical" `Quick
      test_split_reads_byte_identical;
    Alcotest.test_case "writer: pipelined replies cork into few flushes"
      `Quick (test_reply_batching Cedard);
    Alcotest.test_case "hygiene: too-large rejected, connection survives"
      `Quick test_too_large_keeps_connection;
    Alcotest.test_case "overload: 4x burst shed with bounded in-flight"
      `Slow test_overload_burst;
    Alcotest.test_case "overload: connection budget sheds explicitly" `Quick
      (test_conn_budget_shed Cedard);
    Alcotest.test_case "deadline: stalled sender is dropped" `Quick
      test_stalled_sender_dropped;
    Alcotest.test_case "protocol: garbage frame answered typed" `Quick
      (test_garbage_frame_from_client Cedard);
    Alcotest.test_case "drain: in-flight replies flush" `Quick
      test_graceful_drain_flushes_replies;
    Alcotest.test_case "stream: incremental decoder states" `Quick
      test_stream_decoder;
    Alcotest.test_case "deadline: slow-loris sender cut, others served"
      `Slow test_slow_loris_deadlined;
    Alcotest.test_case "scale: 512 idle conns, 16 drivers byte-identical"
      `Slow test_idle_flood_byte_identical;
    Alcotest.test_case "metrics: http endpoint serves the dump" `Quick
      test_metrics_http;
    Alcotest.test_case
      "metrics endpoint: a stalled scrape does not hold up the next" `Quick
      test_metrics_http_stalled;
    Alcotest.test_case "client: dead port fails fast" `Quick
      test_client_connect_fast_fail;
    Alcotest.test_case "client: a fiber waiting on a socket blocks no other"
      `Quick test_client_fiber_blocks_no_other;
    Alcotest.test_case "client: the deadline bounds a trickled reply" `Quick
      test_client_deadline_bounds_trickle;
    (* the same front-end contract at the proxy's front door *)
    Alcotest.test_case "proxy door: pipelined requests echo their ids" `Quick
      (test_pipelining_ids Proxy);
    Alcotest.test_case "proxy door: pipelined replies cork into few flushes"
      `Quick (test_reply_batching Proxy);
    Alcotest.test_case "proxy door: connection budget sheds explicitly"
      `Quick (test_conn_budget_shed Proxy);
    Alcotest.test_case "proxy door: garbage frame answered typed" `Quick
      (test_garbage_frame_from_client Proxy);
    Alcotest.test_case "codec: every frame kind byte-identical" `Quick
      test_frames_pinned;
    QCheck_alcotest.to_alcotest prop_append_is_encode;
    QCheck_alcotest.to_alcotest prop_appended_frames_stream_in_order;
    QCheck_alcotest.to_alcotest prop_reused_buffer_encodes_fresh;
    Alcotest.test_case "codec: append reproduces every pinned frame" `Quick
      test_append_pinned;
    Alcotest.test_case "memory: drained buffers return to their base" `Quick
      test_buffers_shrink;
    Alcotest.test_case "budget: a warm hit's direct-major words" `Quick
      test_hit_major_budget;
    Alcotest.test_case "stats: the view reads the dump's counters" `Quick
      test_stats_view_reads_the_dump;
  ]
