(* The proxy is a Net.Server front end with a relay handler: the front
   end owns the connections (accept, reader, responder and corked writer
   fibers, deadlines, both budgets, drain) and this file decides what
   each request means.  A relayed request is [Defer]red: its shard round
   trip runs as a fiber on the front end's scheduler and fulfils a
   promise the responder awaits.  Net.Client suspends only the calling
   fiber, so relays, read-repairs, topology changes and the membership
   prober all run on the one event-loop thread, and the first three
   share the barrier state below without a lock; a relay stuck on a
   silent shard holds nothing but its own fiber, one unit of
   [max_inflight] and one of that shard's [shard_width] round-trip
   slots. *)

module M = Obs.Metrics

type cfg = {
  host : string;
  port : int;
  max_conns : int;
  max_inflight : int;
  failover : int;
  read_timeout_s : float;
  shard_timeout_s : float;
}

let default_cfg =
  {
    host = "127.0.0.1";
    port = 0;
    max_conns = 64;
    max_inflight = 256;
    failover = 2;
    read_timeout_s = 30.0;
    shard_timeout_s = 60.0;
  }

(* A shard's connection pool behind a fiber-side gate.  The pool dials
   whenever its idle list is empty, so without the gate a burst of
   relays to one shard would open one connection each, up to
   [max_inflight], and the shard would shed whatever came past its own
   connection budget (64 by default).  The gate is a mailbox of
   [shard_width] slots: a round trip puts a token in before it checks a
   connection out, parking in FIFO order while the gate is full, and
   takes it back out when done. *)
type link = { pool : Pool.t; gate : unit Aio.Mailbox.mb }

let shard_width = 16

type t = {
  cfg : cfg;
  members : Membership.t;
  mutable pools : (string * link) list;  (* by shard id *)
  front : Net.Server.t option Atomic.t;  (* set once the socket is bound *)
  (* counts, each a child of its registry total below *)
  routed : M.counter;
  failovers : M.counter;
  shed : M.counter;  (* relays that found no live candidate *)
  topo_gen : M.counter;  (* completed topology changes *)
  stale_routes : M.counter;
  read_repairs : M.counter;
  mutable route_counters : (string * M.counter) list;
  (* Topology barrier: a membership change drains in-flight relays
     against the old ring before the new one routes anything.  Relays
     enter with [relay_begin] (parking while a change is under way) and
     leave with [relay_end]; [change_topology] publishes [topo_change],
     waits for [active_relays] to hit zero, mutates, and fulfils it.
     Only fibers on the event loop touch these three fields. *)
  mutable topo_change : unit Aio.promise option;  (* the change under way *)
  mutable relays_idle : unit Aio.promise option;  (* its drain, if waiting *)
  mutable active_relays : int;
}

let m_routed =
  M.counter M.global ~help:"submits relayed to a shard and answered"
    "cluster_proxy_routed_total"

let m_failover =
  M.counter M.global ~help:"submits served by a ring successor after the owner failed"
    "cluster_failover_total"

let m_shed =
  M.counter M.global
    ~help:"submits shed by the proxy because no live shard could take them"
    "cluster_proxy_shed_total"

let m_stale =
  M.counter M.global
    ~help:"relays whose routing decision predates a topology change"
    "cluster_proxy_stale_routes_total"

let m_read_repair =
  M.counter M.global
    ~help:"warm hits pushed back to the key's current ring owner"
    "cluster_read_repair_total"

let m_topo_changes =
  M.counter M.global ~help:"membership changes applied through the proxy"
    "cluster_topology_changes_total"

(* budget and connection sheds are the front end's, counted once in
   net_shed_total; the proxy adds the relays no candidate could take *)
let shed_total t =
  M.counter_value t.shed
  + match Atomic.get t.front with Some f -> Net.Server.shed_total f | None -> 0

(* ------------------------------------------------------------------ *)
(* Topology barrier                                                    *)
(* ------------------------------------------------------------------ *)

(* park until no topology change is under way *)
let rec await_no_change t =
  match t.topo_change with
  | Some change ->
      ignore (Aio.await change);
      await_no_change t
  | None -> ()

let relay_begin t =
  await_no_change t;
  t.active_relays <- t.active_relays + 1

let relay_end t =
  t.active_relays <- t.active_relays - 1;
  if t.active_relays = 0 then
    Option.iter (fun idle -> Aio.fulfil idle ()) t.relays_idle

(* every fiber that touches the ring or the pools runs inside the
   barrier, so [change_topology] swaps both with nothing in flight *)
let with_relay_barrier t f =
  relay_begin t;
  Fun.protect ~finally:(fun () -> relay_end t) f

(* Serialize membership changes and drain relays routed on the old
   ring: relays parked in [relay_begin] are not counted in
   [active_relays], so the drain only waits on relays already past the
   barrier — bounded by the shard round-trip timeout.  [mutate] never
   suspends, so nothing else runs between the drain and the swap. *)
let change_topology t mutate =
  await_no_change t;
  let change = Aio.promise () in
  t.topo_change <- Some change;
  Fun.protect
    ~finally:(fun () ->
      t.topo_change <- None;
      t.relays_idle <- None;
      Aio.fulfil change ())
    (fun () ->
      if t.active_relays > 0 then begin
        let idle = Aio.promise () in
        t.relays_idle <- Some idle;
        ignore (Aio.await idle)
      end;
      let result = mutate () in
      if Result.is_ok result then M.incr t.topo_gen;
      result)

(* ------------------------------------------------------------------ *)
(* Relaying                                                            *)
(* ------------------------------------------------------------------ *)

let pool_of t id = List.assoc_opt id t.pools
let route_counter t id = List.assoc_opt id t.route_counters

(* one round trip on a pooled connection, inside the shard's gate *)
let with_client link f =
  ignore (Aio.Mailbox.put link.gate ());
  Fun.protect
    ~finally:(fun () -> ignore (Aio.Mailbox.take_opt link.gate))
    (fun () -> Pool.with_client link.pool f)

(* Read-repair: a warm full-rung hit served by a shard that is not the
   key's current ring owner (failover landed it there, or ownership
   moved under a topology change) is pushed back to the owner —
   fire-and-forget on its own fiber — so the next request for the key
   routes straight into a warm cache. *)
let schedule_read_repair t ~name ~key ~served_by (reply : Net.Wire.reply) =
  match reply with
  | Net.Wire.R_done
      {
        r_cached = true;
        r_rung = Service.Server.Full;
        r_text;
        r_cycles;
        r_global_words;
        r_notes;
        _;
      } -> (
      match Ring.lookup (Membership.ring t.members) key with
      | Some owner when owner <> served_by ->
          let p =
            {
              Net.Wire.cp_key = key;
              cp_digest = Service.Cache.digest r_text;
              cp_name = name;
              cp_text = r_text;
              cp_cycles = r_cycles;
              cp_global_words = r_global_words;
              cp_notes = r_notes;
            }
          in
          ignore
            (Aio.spawn (fun () ->
                 with_relay_barrier t (fun () ->
                     match pool_of t owner with
                     | None -> ()
                     | Some link -> (
                         match
                           with_client link (fun c ->
                               Net.Client.cache_push c p)
                         with
                         | Ok _ -> M.incr t.read_repairs
                         | Error _ ->
                             Membership.note_failure t.members owner))))
      | _ -> ())
  | _ -> ()

(* Walk the candidates.  A typed reply from a shard — any reply, even
   Overloaded from its admission control — proves the shard is alive;
   only R_overloaded among typed replies justifies trying the next
   candidate (the successor may have room).  A transport error demotes
   the shard and moves on. *)
let relay_submit t (s : Net.Wire.submit) =
  let key =
    Service.Server.cache_key
      {
        Service.Server.req_name = s.Net.Wire.sub_name;
        req_source = s.Net.Wire.sub_source;
        req_options = s.Net.Wire.sub_options;
      }
  in
  let ring, _epoch = Membership.ring_epoch t.members in
  let gen0 = M.counter_value t.topo_gen in
  let candidates = Ring.route ring key ~n:(max 1 t.cfg.failover) in
  let rec go i = function
    | [] ->
        M.incr t.shed;
        Net.Wire.R_overloaded
    | shard_id :: rest -> (
        let try_next () = go (i + 1) rest in
        (* the barrier guarantees no membership change lands while this
           relay is in flight; the counter proves it stays that way *)
        if M.counter_value t.topo_gen <> gen0 then M.incr t.stale_routes;
        match pool_of t shard_id with
        | None -> try_next ()
        | Some link -> (
            match
              with_client link (fun c ->
                  Net.Client.submit ~trace:s.Net.Wire.sub_trace c
                    ~name:s.Net.Wire.sub_name
                    ~options:s.Net.Wire.sub_options s.Net.Wire.sub_source)
            with
            | Ok reply -> (
                Membership.note_success t.members shard_id;
                match reply with
                | Net.Wire.R_overloaded when rest <> [] ->
                    (* saturated, not dead: spill to the successor *)
                    try_next ()
                | reply ->
                    M.incr t.routed;
                    (match route_counter t shard_id with
                    | Some c -> M.incr c
                    | None -> ());
                    if i > 0 then M.incr t.failovers;
                    schedule_read_repair t ~name:s.Net.Wire.sub_name ~key
                      ~served_by:shard_id reply;
                    reply)
            | Error _ ->
                Membership.note_failure t.members shard_id;
                try_next ()))
  in
  go 0 candidates

(* Cache pushes addressed to the proxy are forwarded to the key's owner
   — lets tooling seed the cluster's warm cache through the front door. *)
let relay_cache_push t (p : Net.Wire.cache_push) =
  match Ring.lookup (Membership.ring t.members) p.Net.Wire.cp_key with
  | None -> false
  | Some shard_id -> (
      match pool_of t shard_id with
      | None -> false
      | Some link -> (
          match with_client link (fun c -> Net.Client.cache_push c p) with
          | Ok admitted -> admitted
          | Error _ ->
              Membership.note_failure t.members shard_id;
              false))

(* ------------------------------------------------------------------ *)
(* Cluster-wide observability                                          *)
(* ------------------------------------------------------------------ *)

(* The cluster's dump: the proxy's own registry, unlabelled; its view
   of each member as [member]-labelled gauges (address and state ride as
   labels on the consecutive-failure count); then the dump of every
   live member, each sample labelled [shard="<id>"].  A Down member is
   in the view and is not dialed. *)
let cluster_dump t =
  let members = Membership.snapshot t.members in
  let gauge name help sample =
    let sample (shard, st, fails) =
      let labels, value = sample shard st fails in
      { M.metric = name; labels = ("member", shard.Membership.sh_id) :: labels; value }
    in
    { M.name; kind = "gauge"; help; samples = List.map sample members }
  in
  let idle id = match pool_of t id with Some l -> Pool.idle_count l.pool | None -> 0 in
  let view =
    [
      gauge "cluster_member_fails" "consecutive failed probes, by member"
        (fun (s : Membership.shard) st fails ->
          ( [ ("host", s.sh_host); ("port", string_of_int s.sh_port);
              ("state", Membership.state_name st) ],
            string_of_int fails ));
      gauge "cluster_pool_idle" "idle pooled connections, by member"
        (fun s _ _ -> ([], string_of_int (idle s.Membership.sh_id)));
    ]
  in
  let relabel id (f : M.family) =
    let sample (x : M.sample) = { x with labels = ("shard", id) :: x.labels } in
    { f with samples = List.map sample f.samples }
  in
  let shard ((s : Membership.shard), st, _) =
    match pool_of t s.sh_id with
    | Some link when st <> Membership.Down -> (
        match with_client link Net.Client.metrics with
        | Ok text -> List.map (relabel s.sh_id) (M.parse text)
        | Error _ -> [])
    | _ -> []
  in
  M.print (M.families M.global @ view @ List.concat_map shard members)

(* ------------------------------------------------------------------ *)
(* Topology changes                                                    *)
(* ------------------------------------------------------------------ *)

let shard_link cfg (s : Membership.shard) =
  let ccfg =
    {
      (Net.Client.default_cfg ~port:s.Membership.sh_port) with
      Net.Client.host = s.Membership.sh_host;
      connect_timeout_s = Float.min 5.0 cfg.shard_timeout_s;
      request_timeout_s = cfg.shard_timeout_s;
      max_attempts = 2;
    }
  in
  {
    pool = Pool.create ccfg;
    gate = Aio.Mailbox.create ~capacity:shard_width ();
  }

let shard_route_counter (s : Membership.shard) =
  M.counter M.global ~help:"submits routed to this shard"
    (Printf.sprintf "cluster_route_%s_total" s.Membership.sh_id)

(* Best-effort fan-out of an applied change to the shards themselves:
   each cedard rewires its replicator's ring on receipt.  A shard that
   misses the broadcast (down, restarting) is tolerated — its
   replicas land per the old ring until the next change or restart,
   and the receiving side re-verifies every push regardless. *)
let broadcast_change t ?skip msg =
  Membership.snapshot t.members
  |> List.iter (fun ((shard : Membership.shard), st, _) ->
         let id = shard.Membership.sh_id in
         if st <> Membership.Down && skip <> Some id then
           match pool_of t id with
           | None -> ()
           | Some link ->
               ignore
                 (with_client link (fun c ->
                      match msg with
                      | `Add a -> Result.map ignore (Net.Client.cluster_add c a)
                      | `Remove sid ->
                          Result.map ignore (Net.Client.cluster_remove c sid))))

let handle_cluster_add t (a : Net.Wire.cluster_add) =
  let shard =
    {
      Membership.sh_id = a.Net.Wire.ca_id;
      sh_host = a.Net.Wire.ca_host;
      sh_port = a.Net.Wire.ca_port;
    }
  in
  let outcome =
    change_topology t (fun () ->
        match Membership.add_shard t.members shard with
        | Error _ as e -> e
        | Ok epoch ->
            if not (List.mem_assoc shard.Membership.sh_id t.pools) then
              t.pools <-
                (shard.Membership.sh_id, shard_link t.cfg shard) :: t.pools;
            if not (List.mem_assoc shard.Membership.sh_id t.route_counters)
            then
              t.route_counters <-
                (shard.Membership.sh_id, shard_route_counter shard)
                :: t.route_counters;
            Ok epoch)
  in
  match outcome with
  | Ok epoch ->
      broadcast_change t ~skip:shard.Membership.sh_id (`Add a);
      {
        Net.Wire.ack_ok = true;
        ack_epoch = epoch;
        ack_msg =
          Printf.sprintf "added %s (%s:%d); ring epoch %d" a.Net.Wire.ca_id
            a.Net.Wire.ca_host a.Net.Wire.ca_port epoch;
      }
  | Error msg ->
      {
        Net.Wire.ack_ok = false;
        ack_epoch = Membership.epoch t.members;
        ack_msg = msg;
      }

let handle_cluster_remove t sid =
  let outcome =
    change_topology t (fun () ->
        match Membership.remove_shard t.members sid with
        | Error _ as e -> e
        | Ok epoch ->
            let closing = List.assoc_opt sid t.pools in
            t.pools <- List.remove_assoc sid t.pools;
            Ok (epoch, closing))
  in
  match outcome with
  | Ok (epoch, closing) ->
      (match closing with Some l -> Pool.close_all l.pool | None -> ());
      broadcast_change t (`Remove sid);
      {
        Net.Wire.ack_ok = true;
        ack_epoch = epoch;
        ack_msg = Printf.sprintf "removed %s; ring epoch %d" sid epoch;
      }
  | Error msg ->
      {
        Net.Wire.ack_ok = false;
        ack_epoch = Membership.epoch t.members;
        ack_msg = msg;
      }

(* ------------------------------------------------------------------ *)
(* The relay handler                                                   *)
(* ------------------------------------------------------------------ *)

(* A relayed request is deferred: [start] runs on the reader fiber, so
   it can spawn [work] as a fiber of its own, whose promise carries the
   reply back to the responder. *)
let defer ?(trace = 0) ?(overload = Net.Wire.Result Net.Wire.R_overloaded)
    work =
  let start () =
    let reply = Aio.promise () in
    let failed = Net.Wire.Result (Net.Wire.R_error "proxy relay failed") in
    ignore
      (Aio.spawn (fun () ->
           Aio.fulfil reply (try work () with _ -> failed)));
    Some reply
  in
  Net.Server.Defer { overload; trace; start }

(* every relay that touches the ring or the pools runs inside the
   barrier; topology changes take its drain side instead *)
let relay t ?trace ?overload work =
  defer ?trace ?overload (fun () -> with_relay_barrier t work)

let membership_refused t =
  Net.Wire.Cluster_ack
    {
      Net.Wire.ack_ok = false;
      ack_epoch = Membership.epoch t.members;
      ack_msg = "proxy overloaded; retry the membership change";
    }

let handle t msg =
  match msg with
  | Net.Wire.Submit s ->
      relay t ~trace:s.Net.Wire.sub_trace (fun () ->
          Net.Wire.Result (relay_submit t s))
  | Net.Wire.Cache_push p ->
      relay t ~overload:(Net.Wire.Cache_ack false) (fun () ->
          Net.Wire.Cache_ack (relay_cache_push t p))
  | Net.Wire.Metrics_req ->
      relay t (fun () -> Net.Wire.Metrics_text (cluster_dump t))
  | Net.Wire.Cluster_add a ->
      defer ~overload:(membership_refused t) (fun () ->
          Net.Wire.Cluster_ack (handle_cluster_add t a))
  | Net.Wire.Cluster_remove sid ->
      defer ~overload:(membership_refused t) (fun () ->
          Net.Wire.Cluster_ack (handle_cluster_remove t sid))
  | Net.Wire.Members_req ->
      Net.Server.Reply
        (Net.Wire.Members_json (Membership.members_json t.members))
  | _ ->
      (* Ping, Shutdown_req (which stops the proxy only) and reply kinds
         are answered by the front end and never reach a handler *)
      Net.Server.Reply (Net.Wire.Result (Net.Wire.R_error "not a request"))

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let create ?(cfg = default_cfg) ?(vnodes = 64) ?(probe_ms = 500.0)
    ?(down_after = 2) ?(seed = 0x5eed) shards =
  let members =
    Membership.create ~vnodes ~probe_ms ~down_after
      ~timeout_s:(Float.min 1.0 cfg.shard_timeout_s) ~seed shards
  in
  let t =
    {
      cfg;
      members;
      pools =
        List.map
          (fun (s : Membership.shard) -> (s.Membership.sh_id, shard_link cfg s))
          shards;
      front = Atomic.make None;
      routed = M.child m_routed;
      failovers = M.child m_failover;
      shed = M.child m_shed;
      topo_gen = M.child m_topo_changes;
      stale_routes = M.child m_stale;
      read_repairs = M.child m_read_repair;
      route_counters =
        List.map
          (fun (s : Membership.shard) ->
            (s.Membership.sh_id, shard_route_counter s))
          shards;
      topo_change = None;
      relays_idle = None;
      active_relays = 0;
    }
  in
  (* the source cap is the shards' business: 0 keeps the front end's
     frame cap at the wire's hard maximum *)
  let front_cfg =
    {
      Net.Server.host = cfg.host;
      port = cfg.port;
      max_conns = cfg.max_conns;
      max_inflight = cfg.max_inflight;
      max_source_bytes = 0;
      read_timeout_s = cfg.read_timeout_s;
      write_timeout_s = 30.0;
    }
  in
  let front = Net.Server.serve front_cfg (handle t) in
  Atomic.set t.front (Some front);
  Net.Server.spawn front (fun () -> Membership.probe_loop members);
  t

let front t = Option.get (Atomic.get t.front)
let port t = Net.Server.port (front t)
let membership t = t.members
let request_stop t = Net.Server.request_stop (front t)
let wait_stop t = Net.Server.wait_stop (front t)

let drain t =
  (* the front end returns once its scheduler has no live fiber left:
     every deferred reply is written, every read-repair is done and the
     prober is cancelled, so nothing touches the pools any more *)
  Net.Server.drain (front t);
  List.iter (fun (_, l) -> Pool.close_all l.pool) t.pools

let routed_total t = M.counter_value t.routed
let failover_total t = M.counter_value t.failovers
let epoch t = Membership.epoch t.members
let stale_routes_total t = M.counter_value t.stale_routes
let read_repair_total t = M.counter_value t.read_repairs
let topology_changes_total t = M.counter_value t.topo_gen
