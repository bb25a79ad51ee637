(* cedar-cluster: the consistent-hash ring (determinism, rebalance,
   balance), warm-cache export/admit with checksum verification, the
   seeded reconnect jitter, wire-v2 framing, membership health
   transitions, the connection pool, and the proxy end to end over real
   sockets — byte-identical corpus output, kill-a-shard failover with
   zero lost jobs, and at least one request answered from a replicated
   warm-cache entry on the successor.

   All servers bind 127.0.0.1 port 0 (ephemeral). *)

module W = Net.Wire
module Ring = Cluster.Ring
module G = QCheck.Gen

let cedar = Machine.Config.cedar_config1
let opts = Restructurer.Options.auto_1991 cedar

let contains hay needle =
  let n = String.length needle and l = String.length hay in
  let rec go i = i + n <= l && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Ring                                                                *)
(* ------------------------------------------------------------------ *)

let keys_of n = List.init n (fun i -> Printf.sprintf "key-%04d" i)

let test_ring_deterministic () =
  let ids = [ "alpha"; "beta"; "gamma"; "delta" ] in
  let r1 = Ring.make ~vnodes:64 ids in
  let r2 = Ring.make ~vnodes:64 (List.rev ids) in
  let r3 = Ring.make ~vnodes:64 (ids @ [ "beta"; "alpha" ]) in
  Alcotest.(check (list string)) "members sorted" (List.sort compare ids)
    (Ring.members r1);
  Alcotest.(check (list string)) "duplicates collapse" (Ring.members r1)
    (Ring.members r3);
  List.iter
    (fun k ->
      let o1 = Ring.lookup r1 k and o2 = Ring.lookup r2 k in
      let o3 = Ring.lookup r3 k in
      Alcotest.(check bool) (k ^ " order-independent") true (o1 = o2);
      Alcotest.(check bool) (k ^ " duplicate-independent") true (o1 = o3))
    (keys_of 500)

let test_ring_edges () =
  let empty = Ring.make [] in
  Alcotest.(check int) "empty size" 0 (Ring.size empty);
  Alcotest.(check bool) "empty lookup" true (Ring.lookup empty "k" = None);
  Alcotest.(check (list string)) "empty route" [] (Ring.route empty "k" ~n:3);
  let solo = Ring.make [ "only" ] in
  List.iter
    (fun k ->
      Alcotest.(check bool) "solo owns all" true
        (Ring.lookup solo k = Some "only"))
    (keys_of 50);
  Alcotest.(check bool) "solo has no successor" true
    (Ring.successor solo "only" ~key:"k" = None)

let test_ring_route_distinct () =
  let r = Ring.make ~vnodes:32 [ "a"; "b"; "c"; "d"; "e" ] in
  List.iter
    (fun k ->
      let cands = Ring.route r k ~n:3 in
      Alcotest.(check int) "three candidates" 3 (List.length cands);
      Alcotest.(check int) "distinct" 3
        (List.length (List.sort_uniq compare cands));
      Alcotest.(check bool) "first is the owner" true
        (Some (List.hd cands) = Ring.lookup r k);
      let succ = Ring.successor r (List.hd cands) ~key:k in
      Alcotest.(check bool) "successor is candidate two" true
        (succ = Some (List.nth cands 1)))
    (keys_of 200);
  Alcotest.(check int) "route clamps to size" 5
    (List.length (Ring.route r "x" ~n:99))

let test_ring_successors () =
  (* replica placement: the key's first n distinct shards clockwise,
     never the primary — exactly the failover candidates after the
     owner, so the proxy's retry path walks straight into the replicas *)
  let r = Ring.make ~vnodes:32 [ "a"; "b"; "c"; "d"; "e" ] in
  List.iter
    (fun k ->
      let route = Ring.route r k ~n:5 in
      let owner = List.hd route in
      let succs = Ring.successors r owner ~key:k ~n:3 in
      Alcotest.(check int) "three replica targets" 3 (List.length succs);
      Alcotest.(check int) "targets distinct" 3
        (List.length (List.sort_uniq compare succs));
      Alcotest.(check bool) "never the primary" false (List.mem owner succs);
      Alcotest.(check (list string))
        "replica targets are the failover candidates, in order"
        (List.filteri (fun i _ -> i >= 1 && i <= 3) route)
        succs;
      Alcotest.(check bool) "successor is successors ~n:1" true
        (Ring.successor r owner ~key:k = Some (List.hd succs)))
    (keys_of 200);
  Alcotest.(check int) "clamps to the other members" 4
    (List.length (Ring.successors r "a" ~key:"x" ~n:99));
  let solo = Ring.make [ "only" ] in
  Alcotest.(check (list string)) "solo ring has nowhere to replicate" []
    (Ring.successors solo "only" ~key:"k" ~n:2)

let test_ring_balance () =
  (* deterministic inputs, so this is a regression pin, not a dice
     roll: with 128 vnodes per shard no shard strays past 2x / under
     a third of the fair share *)
  let ids = List.init 8 (fun i -> Printf.sprintf "shard-%d" i) in
  let r = Ring.make ~vnodes:128 ids in
  let counts = Hashtbl.create 8 in
  List.iter
    (fun k ->
      match Ring.lookup r k with
      | Some o ->
          Hashtbl.replace counts o (1 + Option.value ~default:0 (Hashtbl.find_opt counts o))
      | None -> Alcotest.fail "lookup on a populated ring")
    (keys_of 10_000);
  let fair = 10_000 / 8 in
  List.iter
    (fun id ->
      let n = Option.value ~default:0 (Hashtbl.find_opt counts id) in
      Alcotest.(check bool)
        (Printf.sprintf "%s share %d within [fair/3, 2*fair]" id n)
        true
        (n > fair / 3 && n < 2 * fair))
    ids

let test_ring_rebalance_bound () =
  (* one of four shards leaves: the moved keys are exactly the leaver's
     keys — about K/N, pinned here (deterministic) at under 2K/N *)
  let ids = [ "s0"; "s1"; "s2"; "s3" ] in
  let before = Ring.make ~vnodes:64 ids in
  let after = Ring.make ~vnodes:64 [ "s1"; "s2"; "s3" ] in
  let keys = keys_of 2000 in
  let moved =
    List.length
      (List.filter (fun k -> Ring.lookup before k <> Ring.lookup after k) keys)
  in
  let owned_by_leaver =
    List.length
      (List.filter (fun k -> Ring.lookup before k = Some "s0") keys)
  in
  Alcotest.(check int) "moved = keys the leaver owned" owned_by_leaver moved;
  Alcotest.(check bool)
    (Printf.sprintf "moved %d < 2K/N = %d" moved (2 * 2000 / 4))
    true
    (moved < 2 * 2000 / 4)

let prop_ring_rebalance =
  (* the exact consistency invariant behind the K/N claim: when one of
     N shards leaves, a key moves iff the leaver owned it *)
  let gen =
    let open G in
    let* n = int_range 2 8 in
    let* vnodes = int_range 8 96 in
    let* leave = int_bound (n - 1) in
    let* nkeys = int_range 1 150 in
    let* salt = int_bound 1_000_000 in
    return (n, vnodes, leave, nkeys, salt)
  in
  QCheck.Test.make ~name:"ring: a key moves iff its owner left" ~count:200
    ~long_factor:5
    (QCheck.make gen ~print:(fun (n, v, l, k, s) ->
         Printf.sprintf "n=%d vnodes=%d leave=%d keys=%d salt=%d" n v l k s))
    (fun (n, vnodes, leave, nkeys, salt) ->
      let ids = List.init n (Printf.sprintf "node-%d") in
      let leaver = Printf.sprintf "node-%d" leave in
      let before = Ring.make ~vnodes ids in
      let after =
        Ring.make ~vnodes (List.filter (fun id -> id <> leaver) ids)
      in
      List.for_all
        (fun i ->
          let k = Printf.sprintf "k-%d-%d" salt i in
          match (Ring.lookup before k, Ring.lookup after k) with
          | Some o, Some o' ->
              if o = leaver then o' <> leaver (* must move, off the leaver *)
              else o = o' (* must stay put *)
          | _ -> false)
        (List.init nkeys Fun.id))

(* ------------------------------------------------------------------ *)
(* Cache export / replica admission                                    *)
(* ------------------------------------------------------------------ *)

let test_cache_export () =
  let c = Service.Cache.create ~capacity:3 in
  Service.Cache.add c "k1" 1;
  Service.Cache.add c "k2" 2;
  Service.Cache.add c "k3" 3;
  let hits_before = (Service.Cache.stats c).Service.Cache.hits in
  let snap = List.sort compare (Service.Cache.export c) in
  Alcotest.(check (list (pair string int)))
    "full resident snapshot"
    [ ("k1", 1); ("k2", 2); ("k3", 3) ]
    snap;
  Alcotest.(check int) "export counts no hits" hits_before
    (Service.Cache.stats c).Service.Cache.hits;
  (* recency: touch k1, export again, then overflow — the eviction must
     fall on k2 (export must not have refreshed anything) *)
  ignore (Service.Cache.find c "k1");
  ignore (Service.Cache.export c);
  Service.Cache.add c "k4" 4;
  let keys = List.sort compare (List.map fst (Service.Cache.export c)) in
  Alcotest.(check (list string)) "LRU order survived the export"
    [ "k1"; "k3"; "k4" ] keys

let replica_payload ?(rung = Service.Server.Full) text =
  {
    Service.Server.p_name = "replica";
    p_text = text;
    p_reports = [];
    p_cycles = Some 64.0;
    p_global_words = None;
    p_rung = rung;
  }

let with_svc ?(cache_capacity = 8) f =
  let svc =
    Service.Server.create ~workers:1 ~cache_capacity ~oversubscribe:true ()
  in
  Fun.protect ~finally:(fun () -> ignore (Service.Server.shutdown svc)) (fun () -> f svc)

let test_admit_checksum_rejects_corrupt () =
  with_svc @@ fun svc ->
  let text = "      PROGRAM R\n      END\n" in
  let good = Service.Cache.digest text in
  Alcotest.(check bool) "corrupt push rejected" false
    (Service.Server.admit_replica svc ~key:"k-corrupt"
       ~digest:(Service.Cache.digest (text ^ "!"))
       (replica_payload text));
  Alcotest.(check bool) "non-full rung rejected" false
    (Service.Server.admit_replica svc ~key:"k-rung" ~digest:good
       (replica_payload ~rung:Service.Server.Passthrough text));
  Alcotest.(check bool) "clean push admitted" true
    (Service.Server.admit_replica svc ~key:"k-clean" ~digest:good
       (replica_payload text));
  let st = Service.Server.stats svc in
  Alcotest.(check int) "rejections counted" 2
    st.Service.Stats.replica_rejected;
  Alcotest.(check int) "admission counted" 1
    st.Service.Stats.replica_admitted

let test_admit_respects_lru_capacity () =
  with_svc ~cache_capacity:2 @@ fun svc ->
  for i = 1 to 4 do
    let text = Printf.sprintf "      PROGRAM R%d\n      END\n" i in
    Alcotest.(check bool)
      (Printf.sprintf "push %d admitted" i)
      true
      (Service.Server.admit_replica svc
         ~key:(Printf.sprintf "k%d" i)
         ~digest:(Service.Cache.digest text)
         (replica_payload text))
  done;
  let st = Service.Server.stats svc in
  Alcotest.(check int) "resident capped at capacity" 2
    st.Service.Stats.cache.Service.Cache.entries;
  Alcotest.(check int) "overflow evicted, not leaked" 2
    st.Service.Stats.cache.Service.Cache.evictions

let saxpy_source =
  "      SUBROUTINE SAXPY(N, A, X, Y)\n\
  \      REAL X(N), Y(N), A\n\
  \      DO 10 I = 1, N\n\
  \         Y(I) = Y(I) + A * X(I)\n\
  \   10 CONTINUE\n\
  \      RETURN\n\
  \      END\n"

let restructured source =
  Fortran.Printer.program_to_string
    (Restructurer.Driver.restructure opts (Fortran.Parser.parse_program source))
      .Restructurer.Driver.program

let test_replicated_hit_counted () =
  (* admit a replica under a request's real content address, then run
     that request: it must come back cached, byte-identical, and be
     counted as a hit served from a replicated entry *)
  with_svc @@ fun svc ->
  let req =
    { Service.Server.req_name = "saxpy"; req_source = saxpy_source;
      req_options = opts }
  in
  let key = Service.Server.cache_key req in
  let text = restructured saxpy_source in
  Alcotest.(check bool) "replica admitted" true
    (Service.Server.admit_replica svc ~key
       ~digest:(Service.Cache.digest text)
       { (replica_payload text) with Service.Server.p_name = "saxpy" });
  (match Service.Server.run svc req with
  | Service.Server.Done { payload; cached } ->
      Alcotest.(check bool) "served from cache" true cached;
      Alcotest.(check bool) "byte-identical" true
        (payload.Service.Server.p_text = text)
  | _ -> Alcotest.fail "expected Done from the admitted replica");
  let st = Service.Server.stats svc in
  Alcotest.(check int) "replicated hit counted" 1
    st.Service.Stats.replicated_hits

(* ------------------------------------------------------------------ *)
(* Client reconnect jitter                                             *)
(* ------------------------------------------------------------------ *)

let test_backoff_jitter () =
  let cfg =
    {
      (Net.Client.default_cfg ~port:1) with
      Net.Client.backoff_s = 0.1;
      backoff_jitter = 0.5;
      backoff_seed = 42;
    }
  in
  let d = Net.Client.backoff_delay cfg ~instance:0 ~attempt:1 in
  Alcotest.(check bool) "deterministic" true
    (d = Net.Client.backoff_delay cfg ~instance:0 ~attempt:1);
  for attempt = 1 to 5 do
    let base = 0.1 *. (2.0 ** float_of_int (attempt - 1)) in
    let d = Net.Client.backoff_delay cfg ~instance:3 ~attempt in
    Alcotest.(check bool)
      (Printf.sprintf "attempt %d in [%.3f, %.3f)" attempt (0.5 *. base)
         (1.5 *. base))
      true
      (d >= 0.5 *. base && d < 1.5 *. base)
  done;
  (* distinct clients draw distinct schedules from one cfg *)
  Alcotest.(check bool) "instances decorrelated" true
    (Net.Client.backoff_delay cfg ~instance:0 ~attempt:1
    <> Net.Client.backoff_delay cfg ~instance:1 ~attempt:1);
  (* a different seed moves the stream; jitter 0 restores lockstep *)
  Alcotest.(check bool) "seed moves the stream" true
    (Net.Client.backoff_delay
       { cfg with Net.Client.backoff_seed = 43 }
       ~instance:0 ~attempt:1
    <> d);
  let lockstep = { cfg with Net.Client.backoff_jitter = 0.0 } in
  Alcotest.(check (float 0.0)) "jitter 0 is the bare schedule" 0.4
    (Net.Client.backoff_delay lockstep ~instance:9 ~attempt:3)

(* ------------------------------------------------------------------ *)
(* Wire v2                                                             *)
(* ------------------------------------------------------------------ *)

let sample_push =
  {
    W.cp_key = "deadbeef";
    cp_digest = "cafebabe";
    cp_name = "saxpy";
    cp_text = "      END\n";
    cp_cycles = Some 128.5;
    cp_global_words = None;
    cp_notes =
      [
        {
          W.n_unit = "SAXPY";
          n_index = "1";
          n_depth = 1;
          n_decision = "doall";
          n_techniques = [ "privatization"; "reduction" ];
        };
      ];
  }

let test_wire_v2_roundtrip () =
  List.iter
    (fun (id, msg) ->
      match W.decode (W.encode ~id msg) with
      | Ok (id', msg') ->
          Alcotest.(check bool)
            (W.message_kind_name msg ^ " roundtrips")
            true
            (id = id' && msg = msg')
      | Error e ->
          Alcotest.failf "%s: %s" (W.message_kind_name msg)
            (W.error_to_string e))
    [
      (1, W.Cache_push sample_push);
      (2, W.Cache_ack true);
      (3, W.Cache_ack false);
      (4, W.Metrics_req);
      (5, W.Metrics_text "cluster_ring_epoch 1\n");
      (6, W.Members_req);
      (7, W.Members_json "{\"epoch\":1,\"shards\":[]}");
      (8, W.Cluster_add
            { W.ca_id = "s3"; ca_host = "127.0.0.1"; ca_port = 7513 });
      (9, W.Cluster_remove "s3");
      (10, W.Cluster_ack
             { W.ack_ok = true; ack_epoch = 7; ack_msg = "removed s3" });
      (11, W.Cluster_ack
             { W.ack_ok = false; ack_epoch = 1; ack_msg = "" });
    ]

let test_wire_version_stamps () =
  (* every kind, cluster kinds and the original surface alike, is
     stamped the one version, and a frame stamped with an earlier one
     is refused typed *)
  let byte4 msg = Char.code (W.encode ~id:1 msg).[4] in
  List.iter
    (fun msg ->
      Alcotest.(check int)
        (W.message_kind_name msg ^ " is v" ^ string_of_int W.version)
        W.version (byte4 msg))
    [
      W.Ping;
      W.Submit
        { W.sub_name = "x"; sub_source = "      END\n"; sub_options = opts;
          sub_trace = 0 };
      W.Cache_push sample_push;
      W.Metrics_req;
      W.Members_req;
      W.Cluster_add { W.ca_id = "x"; ca_host = "h"; ca_port = 1 };
    ];
  List.iter
    (fun v ->
      let push = Bytes.of_string (W.encode ~id:1 (W.Cache_push sample_push)) in
      Bytes.set push 4 (Char.chr v);
      Alcotest.(check bool)
        (Printf.sprintf "version %d rejected typed" v)
        true
        (match W.decode (Bytes.to_string push) with
        | Error (W.Bad_version v') -> v' = v
        | _ -> false))
    [ 1; 2; 3; 4; 9 ]

(* ------------------------------------------------------------------ *)
(* Membership health                                                   *)
(* ------------------------------------------------------------------ *)

let dead_port () =
  (* bind an ephemeral port, release it: connecting gets a prompt
     refusal, never a routable stranger *)
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  Unix.close fd;
  port

let state_of m id =
  let _, st, _ =
    List.find
      (fun (s, _, _) -> s.Cluster.Membership.sh_id = id)
      (Cluster.Membership.snapshot m)
  in
  st

let test_membership_transitions () =
  with_svc @@ fun svc ->
  let net = Net.Server.create Net.Server.default_cfg svc in
  Fun.protect ~finally:(fun () -> Net.Server.drain net) @@ fun () ->
  let shards =
    [
      { Cluster.Membership.sh_id = "live"; sh_host = "127.0.0.1";
        sh_port = Net.Server.port net };
      { Cluster.Membership.sh_id = "dead"; sh_host = "127.0.0.1";
        sh_port = dead_port () };
    ]
  in
  let m =
    Cluster.Membership.create ~down_after:2 ~timeout_s:1.0 shards
  in
  Cluster.Membership.probe_once m;
  Alcotest.(check bool) "live shard up" true
    (state_of m "live" = Cluster.Membership.Up);
  Alcotest.(check bool) "dead shard suspect after one miss" true
    (state_of m "dead" = Cluster.Membership.Suspect);
  Alcotest.(check (list string)) "suspect still routable" [ "dead"; "live" ]
    (Ring.members (Cluster.Membership.ring m));
  Cluster.Membership.probe_once m;
  Alcotest.(check bool) "dead shard down after two" true
    (state_of m "dead" = Cluster.Membership.Down);
  Alcotest.(check (list string)) "down leaves the ring" [ "live" ]
    (Ring.members (Cluster.Membership.ring m));
  (* the data path can resurrect and demote without a probe *)
  Cluster.Membership.note_success m "dead";
  Alcotest.(check bool) "one success resets to up" true
    (state_of m "dead" = Cluster.Membership.Up);
  Cluster.Membership.note_failure m "live";
  Cluster.Membership.note_failure m "live";
  Cluster.Membership.note_failure m "dead";
  Cluster.Membership.note_failure m "dead";
  Alcotest.(check (list string))
    "all down falls back to the full static ring" [ "dead"; "live" ]
    (Ring.members (Cluster.Membership.ring m));
  let json = Cluster.Membership.members_json m in
  Alcotest.(check bool) "members json carries states" true
    (let has needle =
       let n = String.length needle and l = String.length json in
       let rec go i = i + n <= l && (String.sub json i n = needle || go (i + 1)) in
       go 0
     in
     has "\"down\"" && has "\"live\"" && has "\"fails\"")

let mk_shard id port =
  { Cluster.Membership.sh_id = id; sh_host = "127.0.0.1"; sh_port = port }

let test_membership_ring_epoch () =
  (* the epoch moves exactly when key ownership can move: a Down
     transition, a resurrection, an add, a remove — never on a
     Suspect⇄Up flap, never on a refused change *)
  let m =
    Cluster.Membership.create ~down_after:2 ~timeout_s:0.5
      [ mk_shard "a" (dead_port ()); mk_shard "b" (dead_port ()) ]
  in
  Alcotest.(check int) "epoch starts at 1" 1 (Cluster.Membership.epoch m);
  Cluster.Membership.note_failure m "a";
  Alcotest.(check bool) "one miss suspects" true
    (state_of m "a" = Cluster.Membership.Suspect);
  Alcotest.(check int) "suspect does not bump" 1 (Cluster.Membership.epoch m);
  Cluster.Membership.note_success m "a";
  Alcotest.(check int) "suspect-up flap does not bump" 1
    (Cluster.Membership.epoch m);
  Cluster.Membership.note_failure m "a";
  Cluster.Membership.note_failure m "a";
  Alcotest.(check int) "down bumps" 2 (Cluster.Membership.epoch m);
  Cluster.Membership.note_success m "a";
  Alcotest.(check int) "resurrection bumps" 3 (Cluster.Membership.epoch m);
  let ring, epoch = Cluster.Membership.ring_epoch m in
  Alcotest.(check bool) "ring_epoch is one consistent snapshot" true
    (epoch = Cluster.Membership.epoch m
    && Ring.members ring = [ "a"; "b" ]);
  (match Cluster.Membership.add_shard m (mk_shard "c" (dead_port ())) with
  | Ok e -> Alcotest.(check int) "add bumps and reports the new epoch" 4 e
  | Error e -> Alcotest.failf "add_shard: %s" e);
  Alcotest.(check (list string)) "added shard is routable"
    [ "a"; "b"; "c" ]
    (Ring.members (Cluster.Membership.ring m));
  (match Cluster.Membership.add_shard m (mk_shard "c" (dead_port ())) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate add must refuse");
  Alcotest.(check int) "refused add does not bump" 4
    (Cluster.Membership.epoch m);
  (match Cluster.Membership.remove_shard m "c" with
  | Ok e -> Alcotest.(check int) "remove bumps" 5 e
  | Error e -> Alcotest.failf "remove_shard: %s" e);
  (match Cluster.Membership.remove_shard m "ghost" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown remove must refuse");
  (match Cluster.Membership.remove_shard m "b" with
  | Ok e -> Alcotest.(check int) "second remove bumps" 6 e
  | Error e -> Alcotest.failf "remove_shard b: %s" e);
  (match Cluster.Membership.remove_shard m "a" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "removing the last member must refuse");
  Alcotest.(check int) "epoch settles after refusals" 6
    (Cluster.Membership.epoch m)

let test_membership_flapping_probe_loss () =
  (* two perfectly healthy shards under a seeded probe-loss injector:
     Up→Suspect→Up flapping never moves the epoch; only a full Down
     transition does, and the epoch only ever moves forward.  A control
     view over the same sockets with loss 0 proves the injector (not
     the network) caused every demotion. *)
  with_svc @@ fun svc1 ->
  with_svc @@ fun svc2 ->
  let net1 = Net.Server.create Net.Server.default_cfg svc1 in
  let net2 = Net.Server.create Net.Server.default_cfg svc2 in
  Fun.protect ~finally:(fun () ->
      Net.Server.drain net1;
      Net.Server.drain net2)
  @@ fun () ->
  let shards =
    [
      mk_shard "l1" (Net.Server.port net1);
      mk_shard "l2" (Net.Server.port net2);
    ]
  in
  let mk loss =
    Cluster.Membership.create ~down_after:2 ~timeout_s:1.0 ~seed:0xf1a9
      ~probe_loss:loss shards
  in
  let lossy = mk 1.0 and clean = mk 0.0 in
  let last = ref (Cluster.Membership.epoch lossy) in
  let monotone ctx =
    let e = Cluster.Membership.epoch lossy in
    Alcotest.(check bool) (ctx ^ ": epoch never rewinds") true (e >= !last);
    last := e
  in
  Alcotest.(check int) "epoch starts at 1" 1 !last;
  for round = 1 to 3 do
    Cluster.Membership.probe_once lossy;
    Alcotest.(check bool)
      (Printf.sprintf "round %d: injected loss suspects both" round)
      true
      (state_of lossy "l1" = Cluster.Membership.Suspect
      && state_of lossy "l2" = Cluster.Membership.Suspect);
    monotone "after lossy probe";
    Cluster.Membership.note_success lossy "l1";
    Cluster.Membership.note_success lossy "l2";
    monotone "after resurrect";
    Alcotest.(check int)
      (Printf.sprintf "round %d: flapping never bumps the epoch" round)
      1 (Cluster.Membership.epoch lossy)
  done;
  (* drive the flap all the way down: now ownership moves, epoch bumps *)
  Cluster.Membership.probe_once lossy;
  monotone "suspect pass";
  Cluster.Membership.probe_once lossy;
  monotone "down pass";
  Alcotest.(check bool) "down transitions moved the epoch" true
    (Cluster.Membership.epoch lossy > 1);
  Cluster.Membership.note_success lossy "l1";
  monotone "first resurrection";
  Cluster.Membership.note_success lossy "l2";
  monotone "second resurrection";
  Alcotest.(check bool) "members json reports the epoch" true
    (contains (Cluster.Membership.members_json lossy) "\"epoch\"");
  (* control: same servers, no injected loss *)
  for _ = 1 to 3 do
    Cluster.Membership.probe_once clean
  done;
  Alcotest.(check bool) "clean view keeps both up" true
    (state_of clean "l1" = Cluster.Membership.Up
    && state_of clean "l2" = Cluster.Membership.Up);
  Alcotest.(check int) "clean view never moves the epoch" 1
    (Cluster.Membership.epoch clean)

(* ------------------------------------------------------------------ *)
(* Connection pool                                                     *)
(* ------------------------------------------------------------------ *)

let test_pool_roundtrips () =
  with_svc @@ fun svc ->
  let net = Net.Server.create Net.Server.default_cfg svc in
  Fun.protect ~finally:(fun () -> Net.Server.drain net) @@ fun () ->
  let cfg =
    { (Net.Client.default_cfg ~port:(Net.Server.port net)) with
      Net.Client.max_attempts = 1 }
  in
  let pool = Cluster.Pool.create ~max_idle:2 cfg in
  Fun.protect ~finally:(fun () -> Cluster.Pool.close_all pool) @@ fun () ->
  (match Cluster.Pool.with_client pool Net.Client.ping with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "first checkout: %s" e);
  (* an Error from the body poisons that connection but not the pool *)
  (match Cluster.Pool.with_client pool (fun _ -> Error "poisoned") with
  | Error "poisoned" -> ()
  | _ -> Alcotest.fail "body error must propagate verbatim");
  (match Cluster.Pool.with_client pool Net.Client.ping with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "pool did not recover: %s" e);
  Cluster.Pool.close_all pool;
  match Cluster.Pool.with_client pool Net.Client.ping with
  | Ok _ -> ()  (* closed pools still dial one-shot connections *)
  | Error e -> Alcotest.failf "post-close checkout: %s" e

(* ------------------------------------------------------------------ *)
(* Replicator: factor, target health, topology convergence             *)
(* ------------------------------------------------------------------ *)

let with_live_shard id f =
  with_svc ~cache_capacity:128 @@ fun svc ->
  let net = Net.Server.create Net.Server.default_cfg svc in
  Fun.protect ~finally:(fun () -> Net.Server.drain net) @@ fun () ->
  f svc (mk_shard id (Net.Server.port net))

let replica_entries prefix n =
  List.init n (fun i ->
      let text = Printf.sprintf "      PROGRAM P%d\n      END\n" i in
      (Printf.sprintf "%s-%d" prefix i, Service.Cache.digest text,
       replica_payload text))

let test_replicator_fanout () =
  (* R = 3 over three shards: every fill lands on both non-self peers,
     so either peer alone can serve the key warm; R = 1 pushes nothing *)
  with_live_shard "b" @@ fun svc_b shard_b ->
  with_live_shard "c" @@ fun svc_c shard_c ->
  let peers = [ mk_shard "a" (dead_port ()); shard_b; shard_c ] in
  let entries = replica_entries "fan" 6 in
  let r = Cluster.Replicator.create ~replicas:3 ~self:"a" ~peers () in
  List.iter
    (fun (key, digest, payload) ->
      Cluster.Replicator.push r ~key ~digest payload)
    entries;
  Cluster.Replicator.stop r (* stop drains the queue *);
  let c = Cluster.Replicator.counts r in
  Alcotest.(check int) "R=3 pushes every entry to both peers" 12
    c.Cluster.Replicator.pushed;
  Alcotest.(check int) "every push admitted" 12 c.Cluster.Replicator.admitted;
  Alcotest.(check int) "nothing dropped or skipped" 0
    (c.Cluster.Replicator.dropped + c.Cluster.Replicator.errors
   + c.Cluster.Replicator.skipped_down);
  Alcotest.(check int) "b holds all six" 6
    (Service.Server.stats svc_b).Service.Stats.replica_admitted;
  Alcotest.(check int) "c holds all six" 6
    (Service.Server.stats svc_c).Service.Stats.replica_admitted;
  let r1 = Cluster.Replicator.create ~replicas:1 ~self:"a" ~peers () in
  Alcotest.(check int) "factor accessor" 1 (Cluster.Replicator.replicas r1);
  List.iter
    (fun (key, digest, payload) ->
      Cluster.Replicator.push r1 ~key ~digest payload)
    entries;
  Cluster.Replicator.stop r1;
  let c1 = Cluster.Replicator.counts r1 in
  Alcotest.(check int) "R=1 disables replication outright" 0
    (c1.Cluster.Replicator.pushed + c1.Cluster.Replicator.errors
   + c1.Cluster.Replicator.dropped)

let test_replicator_skips_down_target () =
  (* a target that keeps eating transport errors is held down after
     down_after consecutive failures: later pushes are skipped (and
     counted) instead of burning connections on a dead shard *)
  let peers = [ mk_shard "a" (dead_port ()); mk_shard "d" (dead_port ()) ] in
  let r = Cluster.Replicator.create ~timeout_s:0.5 ~self:"a" ~peers () in
  List.iter
    (fun (key, digest, payload) ->
      Cluster.Replicator.push r ~key ~digest payload)
    (replica_entries "down" 5);
  Cluster.Replicator.stop r;
  let c = Cluster.Replicator.counts r in
  Alcotest.(check int) "nothing ever lands" 0
    (c.Cluster.Replicator.pushed + c.Cluster.Replicator.admitted);
  Alcotest.(check bool)
    (Printf.sprintf "two errors open the breaker (%d errors)"
       c.Cluster.Replicator.errors)
    true
    (c.Cluster.Replicator.errors >= 2);
  Alcotest.(check bool)
    (Printf.sprintf "later pushes skip the held-down target (%d skipped)"
       c.Cluster.Replicator.skipped_down)
    true
    (c.Cluster.Replicator.skipped_down >= 1);
  Alcotest.(check int) "every push accounted exactly once" 5
    (c.Cluster.Replicator.errors + c.Cluster.Replicator.skipped_down)

let test_replicator_reexports_on_set_members () =
  (* topology convergence: a solo shard holds warm entries; when a peer
     joins via set_members, the wired exporter re-replicates every
     resident entry onto the new ring without recomputation *)
  with_live_shard "b" @@ fun svc_b shard_b ->
  let self = mk_shard "a" (dead_port ()) in
  let r = Cluster.Replicator.create ~self:"a" ~peers:[ self ] () in
  Fun.protect ~finally:(fun () -> Cluster.Replicator.stop r) @@ fun () ->
  let entries = replica_entries "conv" 4 in
  Cluster.Replicator.set_export r (fun () -> entries);
  Cluster.Replicator.set_members r [ self; shard_b ];
  let admitted () =
    (Service.Server.stats svc_b).Service.Stats.replica_admitted
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while admitted () < 4 && Unix.gettimeofday () < deadline do
    Thread.delay 0.02
  done;
  Alcotest.(check int) "every resident entry re-replicated to the joiner" 4
    (admitted ());
  let c = Cluster.Replicator.counts r in
  Alcotest.(check int) "re-export pushed cleanly" 0
    (c.Cluster.Replicator.errors + c.Cluster.Replicator.rejected)

let resident_keys svc =
  List.map (fun (k, _, _) -> k) (Service.Server.export_cache svc)

let test_server_gc_replicas () =
  (* the primitive: only replica-flagged entries failing [keep] are
     dropped; locally computed results are untouchable whatever [keep]
     says *)
  with_svc ~cache_capacity:64 @@ fun svc ->
  let entries = replica_entries "gc" 6 in
  List.iter
    (fun (key, digest, payload) ->
      Alcotest.(check bool) "seeded" true
        (Service.Server.admit_replica svc ~key ~digest payload))
    entries;
  (* one computed entry alongside the replicas *)
  let req =
    {
      Service.Server.req_name = "local";
      req_source = "      PROGRAM LOCAL\n      END\n";
      req_options = opts;
    }
  in
  (match Service.Server.run svc req with
  | Service.Server.Done _ -> ()
  | _ -> Alcotest.fail "local job failed");
  let local_key = Service.Server.cache_key req in
  (* keep only the even replicas; condemn everything else, the local
     computed entry included — it must survive anyway *)
  let keep key =
    List.mem key [ "gc-0"; "gc-2"; "gc-4" ]
  in
  let dropped = Service.Server.gc_replicas svc ~keep in
  Alcotest.(check int) "odd replicas dropped" 3 dropped;
  let keys = resident_keys svc in
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " still resident") true (List.mem k keys))
    [ "gc-0"; "gc-2"; "gc-4"; local_key ];
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " gone") false (List.mem k keys))
    [ "gc-1"; "gc-3"; "gc-5" ];
  Alcotest.(check int) "counted in stats" 3
    (Service.Server.stats svc).Service.Stats.replica_gc;
  Alcotest.(check int) "idempotent: nothing left to drop" 0
    (Service.Server.gc_replicas svc ~keep)

let test_replicator_gc_on_topology_change () =
  (* topology integration: shard "a" holds replicas; when a new member
     joins, set_members drops exactly the replica entries whose keys
     "a" no longer backs (owner or first successor, R = 2) under the
     new ring, and keeps the rest *)
  let ids3 = [ "a"; "b"; "c" ] and ids4 = [ "a"; "b"; "c"; "d" ] in
  let ring3 = Ring.make ids3 and ring4 = Ring.make ids4 in
  let backs ring key = List.mem "a" (Ring.route ring key ~n:2) in
  (* scan deterministic keys for both fates; MD5 placement is stable
     across platforms, so this finds the same keys on every run *)
  let find_key p =
    let rec go i =
      if i > 50_000 then Alcotest.fail "no key with the wanted placement"
      else
        let k = Printf.sprintf "topo-%05d" i in
        if p k then k else go (i + 1)
    in
    go 0
  in
  let lost = find_key (fun k -> backs ring3 k && not (backs ring4 k)) in
  let kept = find_key (fun k -> backs ring3 k && backs ring4 k) in
  with_svc ~cache_capacity:64 @@ fun svc ->
  List.iter
    (fun key ->
      let text = Printf.sprintf "      PROGRAM T\n      END\n" in
      Alcotest.(check bool) (key ^ " seeded") true
        (Service.Server.admit_replica svc ~key
           ~digest:(Service.Cache.digest text) (replica_payload text)))
    [ lost; kept ];
  let peers3 = List.map (fun id -> mk_shard id (dead_port ())) ids3 in
  let peers4 = List.map (fun id -> mk_shard id (dead_port ())) ids4 in
  let r = Cluster.Replicator.create ~replicas:2 ~self:"a" ~peers:peers3 () in
  Fun.protect ~finally:(fun () -> Cluster.Replicator.stop r) @@ fun () ->
  Cluster.Replicator.set_gc r (fun ~keep ->
      Service.Server.gc_replicas svc ~keep);
  Cluster.Replicator.set_members r peers4;
  let keys = resident_keys svc in
  Alcotest.(check bool) "no-longer-backed replica dropped" false
    (List.mem lost keys);
  Alcotest.(check bool) "still-backed replica kept" true
    (List.mem kept keys);
  Alcotest.(check int) "exactly one entry collected" 1
    (Service.Server.stats svc).Service.Stats.replica_gc

(* ------------------------------------------------------------------ *)
(* Proxy end to end                                                    *)
(* ------------------------------------------------------------------ *)

type shard_handle = {
  h_id : string;
  h_svc : Service.Server.t;
  h_net : Net.Server.t;
  h_repl : Cluster.Replicator.t option ref;
}

let with_cluster ?(n = 3) ?(replicate = false) f =
  let handles =
    List.init n (fun i ->
        let h_id = Printf.sprintf "s%d" i in
        let h_repl = ref None in
        let on_cache_fill ~key ~digest payload =
          match !h_repl with
          | Some r -> Cluster.Replicator.push r ~key ~digest payload
          | None -> ()
        in
        let h_svc =
          Service.Server.create ~workers:1 ~cache_capacity:128
            ~oversubscribe:true ~shard_id:h_id ~on_cache_fill ()
        in
        let h_net = Net.Server.create Net.Server.default_cfg h_svc in
        { h_id; h_svc; h_net; h_repl })
  in
  let shards =
    List.map
      (fun h ->
        { Cluster.Membership.sh_id = h.h_id; sh_host = "127.0.0.1";
          sh_port = Net.Server.port h.h_net })
      handles
  in
  if replicate then
    List.iter
      (fun h ->
        h.h_repl :=
          Some (Cluster.Replicator.create ~self:h.h_id ~peers:shards ()))
      handles;
  let proxy = Cluster.Proxy.create ~probe_ms:100.0 ~down_after:2 shards in
  Fun.protect
    ~finally:(fun () ->
      Cluster.Proxy.drain proxy;
      List.iter
        (fun h ->
          (match !(h.h_repl) with
          | Some r -> Cluster.Replicator.stop r
          | None -> ());
          Net.Server.drain h.h_net;
          ignore (Service.Server.shutdown h.h_svc))
        handles)
    (fun () -> f proxy handles)

let with_proxy_client proxy f =
  match
    Net.Client.connect (Net.Client.default_cfg ~port:(Cluster.Proxy.port proxy))
  with
  | Error msg -> Alcotest.failf "connect to proxy: %s" msg
  | Ok client ->
      Fun.protect ~finally:(fun () -> Net.Client.close client) (fun () ->
          f client)

(* the cluster stats view, rendered from the proxy's merged dump as
   [cedarctl cluster stats --json] does *)
let cluster_view client =
  Result.map (Service.Stats.render ~json:true) (Net.Client.metrics client)

let json_int = Test_net.json_int

let registry name =
  match Obs.Metrics.find Obs.Metrics.global name with
  | `Counter n -> n
  | `Gauge v -> int_of_float v
  | `None -> 0

let test_proxy_e2e_corpus_byte_identical () =
  (* the acceptance bar: the whole corpus through 3 shards behind the
     proxy, byte-identical to the in-process driver *)
  with_cluster @@ fun proxy _handles ->
  with_proxy_client proxy @@ fun client ->
  List.iter
    (fun w ->
      let source = w.Workloads.Workload.source w.Workloads.Workload.small_size in
      match
        Net.Client.submit client ~name:w.Workloads.Workload.name ~options:opts
          source
      with
      | Ok (W.R_done { r_text; _ }) ->
          Alcotest.(check bool)
            (w.Workloads.Workload.name ^ " byte-identical through the proxy")
            true
            (r_text = restructured source)
      | Ok r ->
          Alcotest.failf "%s: unexpected reply %s" w.Workloads.Workload.name
            (W.message_kind_name (W.Result r))
      | Error msg -> Alcotest.failf "%s: %s" w.Workloads.Workload.name msg)
    (Service.Traffic.corpus ());
  (* cluster-wide observability answers through the same socket *)
  (match cluster_view client with
  | Ok json ->
      Alcotest.(check bool) "aggregated stats name every shard" true
        (let has needle =
           let n = String.length needle and l = String.length json in
           let rec go i =
             i + n <= l && (String.sub json i n = needle || go (i + 1))
           in
           go 0
         in
         has "\"proxy\"" && has "\"s0\"" && has "\"s1\"" && has "\"s2\"")
  | Error e -> Alcotest.failf "cluster view via proxy: %s" e);
  match Net.Client.members client with
  | Ok json ->
      Alcotest.(check bool) "membership served" true
        (String.length json > 0 && json.[0] = '{')
  | Error e -> Alcotest.failf "members via proxy: %s" e

let synth_source i =
  Printf.sprintf
    "      SUBROUTINE SAX%02d(N, A, X, Y)\n\
    \      REAL X(N), Y(N), A\n\
    \      DO 10 I = 1, N\n\
    \         Y(I) = Y(I) + A * X(I) + %d.0\n\
    \   10 CONTINUE\n\
    \      RETURN\n\
    \      END\n"
    i i

let test_proxy_kill_shard_failover () =
  (* the full degraded-mode story: warm the cluster, let replication
     settle, kill the shard that owns key 0, re-drive the same jobs —
     zero lost, byte-identical, and the victim's keys answered from the
     replicated warm cache on the ring successor *)
  let jobs = 10 in
  let sources = List.init jobs synth_source in
  let keys =
    List.map
      (fun source ->
        Service.Server.cache_key
          { Service.Server.req_name = ""; req_source = source;
            req_options = opts })
      sources
  in
  with_cluster ~replicate:true @@ fun proxy handles ->
  let submit_all client =
    List.iteri
      (fun i source ->
        match
          Net.Client.submit client
            ~name:(Printf.sprintf "sax%02d" i)
            ~options:opts source
        with
        | Ok (W.R_done { r_text; _ }) ->
            Alcotest.(check bool)
              (Printf.sprintf "job %d byte-identical" i)
              true
              (r_text = restructured source)
        | Ok r ->
            Alcotest.failf "job %d: lost to %s" i
              (W.message_kind_name (W.Result r))
        | Error msg -> Alcotest.failf "job %d: transport error %s" i msg)
      sources
  in
  with_proxy_client proxy submit_all;
  (* every fresh full-rung fill replicates to its ring successor; wait
     for the async pushes to land before pulling the plug *)
  let admitted () =
    List.fold_left
      (fun acc h ->
        acc + (Service.Server.stats h.h_svc).Service.Stats.replica_admitted)
      0 handles
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while admitted () < jobs && Unix.gettimeofday () < deadline do
    Thread.delay 0.02
  done;
  Alcotest.(check int) "every fill replicated and admitted" jobs (admitted ());
  (* kill the shard that owns the first key (so the victim provably
     owned live cache entries) *)
  let ring = Ring.make ~vnodes:64 (List.map (fun h -> h.h_id) handles) in
  let victim_id =
    match Ring.lookup ring (List.hd keys) with
    | Some id -> id
    | None -> Alcotest.fail "ring lookup failed"
  in
  let victim = List.find (fun h -> h.h_id = victim_id) handles in
  let victim_owned =
    List.length
      (List.filter (fun k -> Ring.lookup ring k = Some victim_id) keys)
  in
  Net.Server.drain victim.h_net;
  with_proxy_client proxy submit_all;
  let survivors = List.filter (fun h -> h.h_id <> victim_id) handles in
  let replica_hits =
    List.fold_left
      (fun acc h ->
        acc + (Service.Server.stats h.h_svc).Service.Stats.replicated_hits)
      0 survivors
  in
  Alcotest.(check bool)
    (Printf.sprintf
       "victim owned %d key(s); all answered from successor replicas (%d)"
       victim_owned replica_hits)
    true
    (victim_owned >= 1 && replica_hits >= victim_owned);
  Alcotest.(check bool) "failover engaged" true
    (Cluster.Proxy.failover_total proxy >= 1);
  Alcotest.(check int) "nothing shed" 0 (Cluster.Proxy.shed_total proxy)

let test_proxy_counts_match_registry () =
  (* a drive through a proxy over two replicating shards, then again
     with one shard gone: the proxy's and the replicators' own counts
     each equal the delta of the registry total they count into *)
  let totals =
    [ "cluster_proxy_routed_total"; "cluster_failover_total";
      "cluster_replication_pushed_total"; "cluster_replication_admitted_total";
      "cluster_replication_rejected_total";
      "cluster_replication_dropped_total"; "cluster_replication_errors_total";
      "cluster_replication_skipped_down_total" ]
  in
  let total name =
    match Obs.Metrics.find Obs.Metrics.global name with
    | `Counter n -> n
    | _ -> Alcotest.failf "%s is not a registered counter" name
  in
  let before = List.map total totals in
  let jobs = 8 in
  let proxy, replicators =
    with_cluster ~n:2 ~replicate:true @@ fun proxy handles ->
    let drive () =
      with_proxy_client proxy @@ fun client ->
      for i = 0 to jobs - 1 do
        match
          Net.Client.submit client ~name:"count" ~options:opts (synth_source i)
        with
        | Ok (W.R_done _) -> ()
        | Ok r -> Alcotest.failf "job %d: %s" i (W.message_kind_name (W.Result r))
        | Error msg -> Alcotest.failf "job %d: %s" i msg
      done
    in
    drive ();
    let admitted () =
      List.fold_left
        (fun acc h ->
          acc + (Service.Server.stats h.h_svc).Service.Stats.replica_admitted)
        0 handles
    in
    let deadline = Unix.gettimeofday () +. 10.0 in
    while admitted () < jobs && Unix.gettimeofday () < deadline do
      Thread.delay 0.02
    done;
    Net.Server.drain (List.hd handles).h_net;
    drive ();
    (proxy, List.filter_map (fun h -> !(h.h_repl)) handles)
  in
  (* the proxy is drained and both replicators are stopped: every count
     is final *)
  let replicated f =
    List.fold_left
      (fun acc r -> acc + f (Cluster.Replicator.counts r))
      0 replicators
  in
  let own =
    [ Cluster.Proxy.routed_total proxy; Cluster.Proxy.failover_total proxy;
      replicated (fun c -> c.Cluster.Replicator.pushed);
      replicated (fun c -> c.Cluster.Replicator.admitted);
      replicated (fun c -> c.Cluster.Replicator.rejected);
      replicated (fun c -> c.Cluster.Replicator.dropped);
      replicated (fun c -> c.Cluster.Replicator.errors);
      replicated (fun c -> c.Cluster.Replicator.skipped_down) ]
  in
  Alcotest.(check int) "every job routed" (2 * jobs)
    (Cluster.Proxy.routed_total proxy);
  Alcotest.(check bool) "fills were replicated" true
    (replicated (fun c -> c.Cluster.Replicator.pushed) > 0);
  List.iter2
    (fun (name, t0) n ->
      Alcotest.(check int) (name ^ " delta = own count") n (total name - t0))
    (List.combine totals before)
    own

(* a standalone shard the topology tests add to (and remove from) a
   running cluster; same shape as the with_cluster members *)
let with_extra_shard id f =
  let h_repl = ref None in
  let on_cache_fill ~key ~digest payload =
    match !h_repl with
    | Some r -> Cluster.Replicator.push r ~key ~digest payload
    | None -> ()
  in
  let h_svc =
    Service.Server.create ~workers:1 ~cache_capacity:128 ~oversubscribe:true
      ~shard_id:id ~on_cache_fill ()
  in
  let h_net = Net.Server.create Net.Server.default_cfg h_svc in
  Fun.protect
    ~finally:(fun () ->
      (match !h_repl with
      | Some r -> Cluster.Replicator.stop r
      | None -> ());
      Net.Server.drain h_net;
      ignore (Service.Server.shutdown h_svc))
    (fun () -> f { h_id = id; h_svc; h_net; h_repl })

let test_proxy_cluster_add_remove () =
  (* runtime membership through the front door: cedarctl's frames, the
     ring-epoch contract, the cluster stats view, and correct routing
     on the changed ring *)
  with_cluster @@ fun proxy _handles ->
  with_extra_shard "s3" @@ fun extra ->
  with_proxy_client proxy @@ fun client ->
  Alcotest.(check int) "epoch starts at 1" 1 (Cluster.Proxy.epoch proxy);
  (* the process's proxies share one registry: the view's counts are
     its totals, so they are checked against the registry's *)
  let topology0 = registry "cluster_topology_changes_total" in
  let spec =
    { W.ca_id = "s3"; ca_host = "127.0.0.1";
      ca_port = Net.Server.port extra.h_net }
  in
  (match Net.Client.cluster_add client spec with
  | Ok ack ->
      Alcotest.(check bool) "add acked ok" true ack.W.ack_ok;
      Alcotest.(check int) "add bumped the ring epoch" 2 ack.W.ack_epoch
  | Error e -> Alcotest.failf "cluster_add: %s" e);
  (match Net.Client.cluster_add client spec with
  | Ok ack ->
      Alcotest.(check bool) "duplicate add refused" false ack.W.ack_ok
  | Error e -> Alcotest.failf "duplicate cluster_add: %s" e);
  Alcotest.(check int) "refused change does not bump" 2
    (Cluster.Proxy.epoch proxy);
  (* an id that would break the JSON views and the metric names *)
  (match
     Net.Client.cluster_add client
       { W.ca_id = "x\"y"; ca_host = "127.0.0.1"; ca_port = spec.W.ca_port }
   with
  | Ok ack -> Alcotest.(check bool) "bad shard id refused" false ack.W.ack_ok
  | Error e -> Alcotest.failf "cluster_add x\"y: %s" e);
  Alcotest.(check int) "refused id does not bump" 2 (Cluster.Proxy.epoch proxy);
  (match cluster_view client with
  | Ok json ->
      Alcotest.(check bool) "refused id left out of the view" false
        (contains json "x\"y");
      Alcotest.(check int) "stats view carries the epoch"
        (registry "cluster_ring_epoch") (json_int json "epoch");
      Alcotest.(check bool) "stats view carries the joiner" true
        (contains json "\"s3\"");
      Alcotest.(check bool) "stats view carries replication counters"
        true
        (contains json "\"replica_admitted\"");
      Alcotest.(check bool) "stats view carries proxy counters" true
        (contains json "\"proxy\"");
      Alcotest.(check int) "stats view carries the stale routes"
        (registry "cluster_proxy_stale_routes_total")
        (json_int json "stale_routes");
      Alcotest.(check int) "stats view counts the one change"
        (topology0 + 1)
        (json_int json "topology_changes");
      Alcotest.(check bool) "stats view carries read-repairs and pools" true
        (contains json "\"read_repairs\":" && contains json "\"pool_idle\":{")
  | Error e -> Alcotest.failf "cluster view: %s" e);
  Alcotest.(check int) "this proxy's epoch" 2 (Cluster.Proxy.epoch proxy);
  (* the cluster answers correctly on the four-shard ring *)
  List.iteri
    (fun i source ->
      match
        Net.Client.submit client
          ~name:(Printf.sprintf "add%02d" i)
          ~options:opts source
      with
      | Ok (W.R_done { r_text; _ }) ->
          Alcotest.(check bool)
            (Printf.sprintf "job %d byte-identical on the new ring" i)
            true
            (r_text = restructured source)
      | Ok r ->
          Alcotest.failf "job %d: unexpected reply %s" i
            (W.message_kind_name (W.Result r))
      | Error e -> Alcotest.failf "job %d: %s" i e)
    (List.init 6 (fun i -> synth_source (40 + i)));
  (match Net.Client.cluster_remove client "s3" with
  | Ok ack ->
      Alcotest.(check bool) "remove acked ok" true ack.W.ack_ok;
      Alcotest.(check int) "remove bumped the ring epoch" 3 ack.W.ack_epoch
  | Error e -> Alcotest.failf "cluster_remove: %s" e);
  (match Net.Client.cluster_remove client "ghost" with
  | Ok ack ->
      Alcotest.(check bool) "unknown remove refused" false ack.W.ack_ok
  | Error e -> Alcotest.failf "cluster_remove ghost: %s" e);
  (* a shard's own view may still name s3 (in this process every shard
     reads the one registry, whose shard id the last server set), so the
     check is on s3's member entry, pool entry and shard section *)
  (match cluster_view client with
  | Ok json ->
      Alcotest.(check bool) "removed shard left the view" false
        (contains json "\"id\":\"s3\"" || contains json "\"s3\":")
  | Error e -> Alcotest.failf "cluster view after remove: %s" e);
  Alcotest.(check int) "exactly the applied changes counted" 2
    (Cluster.Proxy.topology_changes_total proxy);
  Alcotest.(check int) "no stale routes" 0
    (Cluster.Proxy.stale_routes_total proxy)

let test_proxy_churn_no_stale_routes () =
  (* the epoch-barrier invariant under fire: continuous submits while a
     shard joins and leaves the ring repeatedly — every job answers
     byte-identical, and no relay is ever routed against a stale epoch *)
  with_cluster @@ fun proxy _handles ->
  with_extra_shard "s3" @@ fun extra ->
  let spec =
    { W.ca_id = "s3"; ca_host = "127.0.0.1";
      ca_port = Net.Server.port extra.h_net }
  in
  let failures = ref [] in
  let fail_mu = Mutex.create () in
  let note_failure msg =
    Mutex.lock fail_mu;
    failures := msg :: !failures;
    Mutex.unlock fail_mu
  in
  let submitter =
    Thread.create
      (fun () ->
        match
          Net.Client.connect
            (Net.Client.default_cfg ~port:(Cluster.Proxy.port proxy))
        with
        | Error e -> note_failure ("connect: " ^ e)
        | Ok client ->
            Fun.protect ~finally:(fun () -> Net.Client.close client)
            @@ fun () ->
            List.iter
              (fun i ->
                let source = synth_source (60 + i) in
                match
                  Net.Client.submit client
                    ~name:(Printf.sprintf "churn%02d" i)
                    ~options:opts source
                with
                | Ok (W.R_done { r_text; _ })
                  when r_text = restructured source ->
                    ()
                | Ok r ->
                    note_failure
                      (Printf.sprintf "job %d: %s" i
                         (W.message_kind_name (W.Result r)))
                | Error e ->
                    note_failure (Printf.sprintf "job %d: %s" i e))
              (List.init 24 Fun.id))
      ()
  in
  (with_proxy_client proxy @@ fun ctl ->
   for cycle = 1 to 3 do
     (match Net.Client.cluster_add ctl spec with
     | Ok ack ->
         Alcotest.(check bool)
           (Printf.sprintf "cycle %d: add applied" cycle)
           true ack.W.ack_ok
     | Error e -> Alcotest.failf "cycle %d add: %s" cycle e);
     Thread.delay 0.05;
     (match Net.Client.cluster_remove ctl "s3" with
     | Ok ack ->
         Alcotest.(check bool)
           (Printf.sprintf "cycle %d: remove applied" cycle)
           true ack.W.ack_ok
     | Error e -> Alcotest.failf "cycle %d remove: %s" cycle e);
     Thread.delay 0.05
   done);
  Thread.join submitter;
  (match !failures with
  | [] -> ()
  | msgs -> Alcotest.failf "lost under churn: %s" (String.concat "; " msgs));
  Alcotest.(check int) "no relay routed against a stale epoch" 0
    (Cluster.Proxy.stale_routes_total proxy);
  Alcotest.(check int) "all six changes applied" 6
    (Cluster.Proxy.topology_changes_total proxy);
  Alcotest.(check int) "epoch advanced once per change" 7
    (Cluster.Proxy.epoch proxy);
  Alcotest.(check int) "nothing shed" 0 (Cluster.Proxy.shed_total proxy)

let test_proxy_read_repair () =
  (* a saturated owner answers R_overloaded (typed, so it stays Up) and
     the submit spills to the successor.  Once the successor answers
     the key warm, the proxy must notice the hit landed off-owner and
     push the entry back — the next capacity the owner finds, it finds
     the key already warm *)
  with_svc @@ fun svc_a ->
  with_svc @@ fun svc_b ->
  let net_a =
    Net.Server.create
      { Net.Server.default_cfg with Net.Server.max_inflight = 0 }
      svc_a
  in
  let net_b = Net.Server.create Net.Server.default_cfg svc_b in
  Fun.protect ~finally:(fun () ->
      Net.Server.drain net_a;
      Net.Server.drain net_b)
  @@ fun () ->
  let shards =
    [ mk_shard "a" (Net.Server.port net_a);
      mk_shard "b" (Net.Server.port net_b) ]
  in
  let proxy = Cluster.Proxy.create ~probe_ms:10_000.0 shards in
  Fun.protect ~finally:(fun () -> Cluster.Proxy.drain proxy) @@ fun () ->
  (* find a source whose content key the ring hands to the saturated
     shard *)
  let ring = Ring.make ~vnodes:64 [ "a"; "b" ] in
  let source =
    let rec go i =
      if i > 999 then Alcotest.fail "no a-owned key in 1000 candidates"
      else
        let s = synth_source i in
        let key =
          Service.Server.cache_key
            { Service.Server.req_name = "repair"; req_source = s;
              req_options = opts }
        in
        if Ring.lookup ring key = Some "a" then s else go (i + 1)
    in
    go 0
  in
  let expect = restructured source in
  with_proxy_client proxy @@ fun client ->
  let submit () =
    match Net.Client.submit client ~name:"repair" ~options:opts source with
    | Ok (W.R_done { r_text; r_cached; _ }) ->
        Alcotest.(check bool) "byte-identical" true (r_text = expect);
        r_cached
    | Ok r ->
        Alcotest.failf "unexpected reply %s" (W.message_kind_name (W.Result r))
    | Error e -> Alcotest.failf "submit: %s" e
  in
  Alcotest.(check bool) "first spill computes fresh" false (submit ());
  Alcotest.(check bool) "second spill answers warm" true (submit ());
  Alcotest.(check bool) "both requests spilled off the owner" true
    (Cluster.Proxy.failover_total proxy >= 2);
  let repaired () =
    Cluster.Proxy.read_repair_total proxy >= 1
    && (Service.Server.stats svc_a).Service.Stats.replica_admitted >= 1
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (repaired ())) && Unix.gettimeofday () < deadline do
    Thread.delay 0.02
  done;
  Alcotest.(check bool)
    "read-repair pushed the misplaced warm entry back to its owner" true
    (repaired ());
  Alcotest.(check int) "exactly the off-owner hit repaired" 1
    (Cluster.Proxy.read_repair_total proxy)

let test_proxy_silent_shard_delays_no_other () =
  (* relays are fibers: 17 of them parked on a shard that never answers
     (one more than a thread pool of 16 could hold) must not delay a
     relay to a live shard *)
  with_extra_shard "live" @@ fun live ->
  Test_net.with_silent_listener @@ fun silent_port ->
  let cfg =
    { Cluster.Proxy.default_cfg with
      Cluster.Proxy.failover = 1; shard_timeout_s = 2.0 }
  in
  let proxy =
    Cluster.Proxy.create ~cfg ~probe_ms:10_000.0
      [ mk_shard "silent" silent_port;
        mk_shard "live" (Net.Server.port live.h_net) ]
  in
  Fun.protect ~finally:(fun () -> Cluster.Proxy.drain proxy) @@ fun () ->
  let ring = Cluster.Membership.ring (Cluster.Proxy.membership proxy) in
  let owned_by shard =
    List.init 64 synth_source
    |> List.find (fun source ->
           let key =
             Service.Server.cache_key
               { Service.Server.req_name = "stuck"; req_source = source;
                 req_options = opts }
           in
           Ring.lookup ring key = Some shard)
  in
  let stuck = owned_by "silent" and free = owned_by "live" in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.connect fd
    (Unix.ADDR_INET (Unix.inet_addr_loopback, Cluster.Proxy.port proxy));
  for id = 1 to 17 do
    W.write_frame fd ~id
      (W.Submit
         { W.sub_name = "stuck"; sub_source = stuck; sub_options = opts;
           sub_trace = 0 })
  done;
  with_proxy_client proxy @@ fun client ->
  let t0 = Unix.gettimeofday () in
  (match Net.Client.submit client ~name:"stuck" ~options:opts free with
  | Ok (W.R_done { r_text; _ }) ->
      Alcotest.(check bool) "live relay byte-identical" true
        (r_text = restructured free)
  | Ok r ->
      Alcotest.failf "unexpected reply %s" (W.message_kind_name (W.Result r))
  | Error e -> Alcotest.failf "live relay: %s" e);
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "live relay answered in %.2fs, under 1 s" dt)
    true (dt < 1.0)

let test_proxy_burst_within_shard_budget () =
  (* 80 submits pipelined at one shard: a proxy that dialed a connection
     per relay would pass the shard's 64-connection budget and get the
     excess shed; the per-shard gate keeps every one of them served *)
  with_extra_shard "only" @@ fun only ->
  let proxy =
    Cluster.Proxy.create ~probe_ms:10_000.0
      [ mk_shard "only" (Net.Server.port only.h_net) ]
  in
  Fun.protect ~finally:(fun () -> Cluster.Proxy.drain proxy) @@ fun () ->
  let n = 80 in
  let fd = Test_net.connect_raw (Cluster.Proxy.port proxy) in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  for id = 1 to n do
    W.write_frame fd ~id
      (W.Submit
         { W.sub_name = "burst"; sub_source = synth_source id;
           sub_options = opts; sub_trace = 0 })
  done;
  let overloaded = ref 0 in
  for id = 1 to n do
    match Test_net.read_frame fd with
    | `Frame (got, W.Result (W.R_done _)) ->
        Alcotest.(check int) "replies in request order" id got
    | `Frame (_, W.Result W.R_overloaded) -> incr overloaded
    | `Frame (_, m) ->
        Alcotest.failf "submit %d: unexpected %s" id (W.message_kind_name m)
    | `Eof | `Timeout | `Fail _ -> Alcotest.failf "submit %d: no reply" id
  done;
  Alcotest.(check int) "no submit shed" 0 !overloaded

let test_parse_shards () =
  let parse = Cluster.Membership.parse_shards in
  let ids spec =
    match parse spec with
    | Ok shards ->
        Some
          (List.map
             (fun s ->
               Printf.sprintf "%s=%s:%d" s.Cluster.Membership.sh_id
                 s.Cluster.Membership.sh_host s.Cluster.Membership.sh_port)
             shards)
    | Error _ -> None
  in
  List.iter
    (fun (spec, want) ->
      Alcotest.(check (option (list string))) spec want (ids spec))
    [
      ("a=127.0.0.1:7511", Some [ "a=127.0.0.1:7511" ]);
      ( " s_0=127.0.0.1:1 , S1=10.0.0.2:65535",
        Some [ "s_0=127.0.0.1:1"; "S1=10.0.0.2:65535" ] );
      ("v6=::1:7551", None);
      ("", None);
      ("a=127.0.0.1:7511,", None);
      ("=127.0.0.1:7511", None);
      ("x\"y=127.0.0.1:7551", None);
      ("sp ace=127.0.0.1:7551", None);
      ("a-b=127.0.0.1:7551", None);
      ("a=localhost:7551", None);
      ("a=127.0.0.1", None);
      ("a=127.0.0.1:0", None);
      ("a=127.0.0.1:65536", None);
      ("a=127.0.0.1:http", None);
      ("a127.0.0.1:7551", None);
    ]

let test_proxy_budget_refusals_counted () =
  (* with no in-flight budget, each of the five relayed kinds is
     refused at the front door with its own typed reply — and every
     refusal is counted in shed_total *)
  with_svc @@ fun svc ->
  let net = Net.Server.create Net.Server.default_cfg svc in
  Fun.protect ~finally:(fun () -> Net.Server.drain net) @@ fun () ->
  let cfg = { Cluster.Proxy.default_cfg with Cluster.Proxy.max_inflight = 0 } in
  let proxy =
    Cluster.Proxy.create ~cfg ~probe_ms:10_000.0
      [ mk_shard "s0" (Net.Server.port net) ]
  in
  Fun.protect ~finally:(fun () -> Cluster.Proxy.drain proxy) @@ fun () ->
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.connect fd
    (Unix.ADDR_INET (Unix.inet_addr_loopback, Cluster.Proxy.port proxy));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
  let overloaded = W.Result W.R_overloaded in
  let membership_refused =
    W.Cluster_ack
      {
        W.ack_ok = false;
        ack_epoch = Cluster.Proxy.epoch proxy;
        ack_msg = "proxy overloaded; retry the membership change";
      }
  in
  let push =
    {
      W.cp_key = "k";
      cp_digest = "d";
      cp_name = "p";
      cp_text = "";
      cp_cycles = None;
      cp_global_words = None;
      cp_notes = [];
    }
  in
  let kinds =
    [
      ( W.Submit
          { W.sub_name = "s"; sub_source = synth_source 0; sub_options = opts;
            sub_trace = 0 },
        overloaded );
      (W.Cache_push push, W.Cache_ack false);
      (W.Metrics_req, overloaded);
      ( W.Cluster_add { W.ca_id = "x"; ca_host = "127.0.0.1"; ca_port = 1 },
        membership_refused );
      (W.Cluster_remove "s0", membership_refused);
    ]
  in
  List.iteri
    (fun i (request, refusal) ->
      let kind = W.message_kind_name request in
      W.write_frame fd ~id:(i + 1) request;
      match Test_net.read_frame fd with
      | `Frame (id, reply) ->
          Alcotest.(check int) (kind ^ " id echoed") (i + 1) id;
          Alcotest.(check string) (kind ^ " refused typed")
            (W.message_kind_name refusal) (W.message_kind_name reply);
          Alcotest.(check bool) (kind ^ " exact refusal") true (reply = refusal)
      | _ -> Alcotest.failf "%s: expected a refusal frame" kind)
    kinds;
  Alcotest.(check int) "every refusal counted" (List.length kinds)
    (Cluster.Proxy.shed_total proxy)

(* A proxy answers Metrics_req with the cluster's dump: its own samples
   bare, each live shard's labelled with the shard's id, and a Down
   member in the member view, never dialed.  The labels survive into
   the JSON that [cedarctl metrics --json] prints. *)
let test_proxy_merged_dump () =
  with_svc @@ fun svc ->
  let net = Net.Server.create Net.Server.default_cfg svc in
  Fun.protect ~finally:(fun () -> Net.Server.drain net) @@ fun () ->
  (* s2 listens and never answers: each dial waits in its backlog *)
  let silent = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close silent) @@ fun () ->
  Unix.bind silent (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen silent 16;
  Unix.set_nonblock silent;
  let dials () =
    let rec go n =
      match Unix.accept silent with
      | fd, _ ->
          Unix.close fd;
          go (n + 1)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> n
    in
    go 0
  in
  let silent_port =
    match Unix.getsockname silent with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let port = Net.Server.port net in
  let proxy =
    Cluster.Proxy.create ~probe_ms:60_000.0 ~down_after:1
      [ mk_shard "s0" port; mk_shard "s1" port; mk_shard "s2" silent_port ]
  in
  Fun.protect ~finally:(fun () -> Cluster.Proxy.drain proxy) @@ fun () ->
  (* the prober's first round finds s2 silent and marks it Down (its
     dials are accepted and dropped meanwhile); the next round is at
     least 30 s away *)
  let down () =
    List.exists
      (fun ((s : Cluster.Membership.shard), st, _) ->
        s.sh_id = "s2" && st = Cluster.Membership.Down)
      (Cluster.Membership.snapshot (Cluster.Proxy.membership proxy))
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (down ())) && Unix.gettimeofday () < deadline do
    ignore (dials ());
    Unix.sleepf 0.01
  done;
  Alcotest.(check bool) "the prober marked s2 Down" true (down ());
  ignore (dials ());
  with_proxy_client proxy @@ fun client ->
  let dump =
    match Net.Client.metrics client with
    | Ok d -> d
    | Error e -> Alcotest.failf "metrics via proxy: %s" e
  in
  Alcotest.(check int) "the Down member was not dialed" 0 (dials ());
  let samples =
    List.concat_map (fun (f : Obs.Metrics.family) -> f.samples)
      (Obs.Metrics.parse dump)
  in
  let has metric labels =
    List.exists
      (fun (s : Obs.Metrics.sample) -> s.metric = metric && s.labels = labels)
      samples
  in
  let from id =
    List.exists
      (fun (s : Obs.Metrics.sample) -> List.assoc_opt "shard" s.labels = Some id)
      samples
  in
  Alcotest.(check bool) "the proxy's own samples are bare" true
    (has "cluster_proxy_routed_total" []);
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ "'s samples labelled") true
        (has "service_jobs_submitted_total" [ ("shard", id) ]))
    [ "s0"; "s1" ];
  Alcotest.(check bool) "no sample from the Down member" false (from "s2");
  Alcotest.(check bool) "the Down member is in the view" true
    (has "cluster_member_fails"
       [ ("member", "s2"); ("host", "127.0.0.1");
         ("port", string_of_int silent_port); ("state", "down") ]);
  Alcotest.(check int) "one TYPE line per family" 1
    (List.length
       (List.filter
          (String.equal "# TYPE service_jobs_submitted_total counter")
          (String.split_on_char '\n' dump)));
  Test_obs.check_exposition_names "the merged dump" dump;
  Alcotest.(check bool) "labelled samples kept in the JSON" true
    (contains (Obs.Metrics.json_of_dump dump) {|{"labels":{"shard":"s0"}|});
  let view = Service.Stats.render ~json:true dump in
  Alcotest.(check bool) "the view reports the Down member" true
    (contains view {|"s2":null|} && contains view {|"state":"down"|})

(* a shard's member view takes the proxy's checks: a malformed add is
   refused and applies nothing, and a valid add or remove acks with the
   count of changes applied *)
let test_shard_checks_cluster_add () =
  with_svc @@ fun svc ->
  let r =
    Cluster.Replicator.create ~self:"a"
      ~peers:[ mk_shard "a" (dead_port ()); mk_shard "b" (dead_port ()) ]
      ()
  in
  let net =
    Net.Server.create ~on_cluster_change:(Cluster.Replicator.apply_change r)
      Net.Server.default_cfg svc
  in
  Fun.protect ~finally:(fun () ->
      Net.Server.drain net;
      Cluster.Replicator.stop r)
  @@ fun () ->
  match Net.Client.connect (Net.Client.default_cfg ~port:(Net.Server.port net)) with
  | Error e -> Alcotest.failf "connect to shard: %s" e
  | Ok client ->
      Fun.protect ~finally:(fun () -> Net.Client.close client) @@ fun () ->
      let check label want reply =
        match reply with
        | Ok ack ->
            Alcotest.(check (pair bool int)) label want
              (ack.W.ack_ok, ack.W.ack_epoch)
        | Error e -> Alcotest.failf "%s: %s" label e
      in
      let add ca_id ca_host ca_port =
        Net.Client.cluster_add client { W.ca_id; ca_host; ca_port }
      in
      check "bad id, bad host refused" (false, 0)
        (add "bad id!" "not-an-ip" 0);
      check "quoted id, port out of range refused" (false, 0)
        (add "x\"y" "127.0.0.1" 99999);
      check "valid add acked" (true, 1) (add "c" "127.0.0.1" 7000);
      check "duplicate add refused" (false, 1) (add "c" "127.0.0.1" 7000);
      check "remove acked" (true, 2) (Net.Client.cluster_remove client "c")

(* the prober and the metrics endpoint are fibers on the proxy's front
   end: thread ids come from a process-wide counter, so probes on either
   side of a proxy's life count what it started — the event loop only *)
let test_proxy_starts_one_thread () =
  let thread_probe () =
    let th = Thread.create ignore () in
    Thread.join th;
    Thread.id th
  in
  let t0 = thread_probe () in
  let proxy =
    Cluster.Proxy.create ~probe_ms:10.0 [ mk_shard "gone" (dead_port ()) ]
  in
  ignore
    (Net.Metrics_http.start ~port:0 (Cluster.Proxy.front proxy) (fun () ->
         ""));
  (* the prober runs: two missed probes take the dead shard down *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  while
    state_of (Cluster.Proxy.membership proxy) "gone" <> Cluster.Membership.Down
    && Unix.gettimeofday () < deadline
  do
    Thread.delay 0.01
  done;
  Cluster.Proxy.drain proxy;
  Alcotest.(check bool) "the prober marked the dead shard down" true
    (state_of (Cluster.Proxy.membership proxy) "gone" = Cluster.Membership.Down);
  Alcotest.(check int) "threads started" 1 (thread_probe () - t0 - 1)

let tests =
  [
    Alcotest.test_case "ring: routing is order- and duplicate-independent"
      `Quick test_ring_deterministic;
    Alcotest.test_case "ring: empty and single-shard edges" `Quick
      test_ring_edges;
    Alcotest.test_case "ring: failover candidates distinct and ordered"
      `Quick test_ring_route_distinct;
    Alcotest.test_case "ring: replica targets follow the failover walk"
      `Quick test_ring_successors;
    Alcotest.test_case "ring: vnodes keep shards near the fair share" `Quick
      test_ring_balance;
    Alcotest.test_case "ring: one leaver moves about K/N keys" `Quick
      test_ring_rebalance_bound;
    QCheck_alcotest.to_alcotest prop_ring_rebalance;
    Alcotest.test_case "cache: export snapshots without touching recency"
      `Quick test_cache_export;
    Alcotest.test_case "replica: checksum mismatch and wrong rung rejected"
      `Quick test_admit_checksum_rejects_corrupt;
    Alcotest.test_case "replica: admission respects LRU capacity" `Quick
      test_admit_respects_lru_capacity;
    Alcotest.test_case "replica: hits from replicated entries are counted"
      `Quick test_replicated_hit_counted;
    Alcotest.test_case "client: reconnect jitter is seeded and bounded"
      `Quick test_backoff_jitter;
    Alcotest.test_case "wire: v2 cluster frames roundtrip" `Quick
      test_wire_v2_roundtrip;
    Alcotest.test_case "wire: every kind stamped one version" `Quick
      test_wire_version_stamps;
    Alcotest.test_case "membership: probe and data-path transitions" `Quick
      test_membership_transitions;
    Alcotest.test_case "membership: ring epoch moves iff ownership can"
      `Quick test_membership_ring_epoch;
    Alcotest.test_case "membership: seeded flapping never rewinds the epoch"
      `Slow test_membership_flapping_probe_loss;
    Alcotest.test_case "pool: reuse, poison-on-error, close" `Quick
      test_pool_roundtrips;
    Alcotest.test_case "replicator: R=3 fans out, R=1 disables" `Slow
      test_replicator_fanout;
    Alcotest.test_case "replicator: dead target held down and skipped"
      `Slow test_replicator_skips_down_target;
    Alcotest.test_case "replicator: set_members re-replicates residents"
      `Slow test_replicator_reexports_on_set_members;
    Alcotest.test_case "server: gc_replicas drops only condemned replicas"
      `Quick test_server_gc_replicas;
    Alcotest.test_case "replicator: topology change collects lost replicas"
      `Quick test_replicator_gc_on_topology_change;
    Alcotest.test_case "proxy: corpus byte-identical through 3 shards" `Slow
      test_proxy_e2e_corpus_byte_identical;
    Alcotest.test_case "proxy: kill a shard, zero lost, replicas serve" `Slow
      test_proxy_kill_shard_failover;
    Alcotest.test_case "proxy: cluster add/remove over the wire" `Slow
      test_proxy_cluster_add_remove;
    Alcotest.test_case "proxy: topology churn leaves no stale route" `Slow
      test_proxy_churn_no_stale_routes;
    Alcotest.test_case "proxy: off-owner warm hit is read-repaired" `Slow
      test_proxy_read_repair;
    Alcotest.test_case "proxy: every budget refusal is typed and counted"
      `Quick test_proxy_budget_refusals_counted;
    Alcotest.test_case "proxy: a relay stuck on a silent shard delays no other"
      `Slow test_proxy_silent_shard_delays_no_other;
    Alcotest.test_case "proxy: a burst to one shard stays within its budget"
      `Slow test_proxy_burst_within_shard_budget;
    Alcotest.test_case "membership: shard specs parsed and checked" `Quick
      test_parse_shards;
    Alcotest.test_case "proxy: own counts equal the registry deltas" `Slow
      test_proxy_counts_match_registry;
    Alcotest.test_case "shard: Cluster_add takes the proxy's checks" `Quick
      test_shard_checks_cluster_add;
    Alcotest.test_case "proxy: prober and metrics endpoint start no thread"
      `Quick test_proxy_starts_one_thread;
    Alcotest.test_case "proxy: merged dump labels live shards only" `Quick
      test_proxy_merged_dump;
  ]
