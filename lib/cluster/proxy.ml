(* The proxy is a Net.Server front end with a relay handler: the front
   end owns the connections (accept, reader, responder and corked writer
   fibers, deadlines, both budgets, drain) and this file decides what
   each request means.  A relayed request is [Defer]red: the blocking
   shard round trip (Pool / Net.Client are synchronous) runs on a small
   fixed executor pool and fulfils a promise, which the front end's
   responder awaits through the scheduler's completion queue.  A
   thousand clients cost a thousand connections' fibers and one poll
   set; the thread count is fixed at the executor width however many
   requests are in flight. *)

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

(* ------------------------------------------------------------------ *)
(* Relay executor: the fixed pool of threads that run the blocking
   shard round trips on behalf of deferred requests.  The queue is
   unbounded, but the front end's in-flight budget already caps how
   many relays can be outstanding (read-repairs ride along).          *)
(* ------------------------------------------------------------------ *)

module Exec = struct
  type t = {
    mu : Mutex.t;
    cv : Condition.t;
    jobs : (unit -> unit) Queue.t;
    mutable closed : bool;
    mutable workers : Thread.t list;
  }

  let worker e =
    let rec loop () =
      Mutex.lock e.mu;
      while Queue.is_empty e.jobs && not e.closed do
        Condition.wait e.cv e.mu
      done;
      if Queue.is_empty e.jobs then Mutex.unlock e.mu
      else begin
        let job = Queue.pop e.jobs in
        Mutex.unlock e.mu;
        (try job () with _ -> ());
        loop ()
      end
    in
    loop ()

  let create n =
    let e =
      {
        mu = Mutex.create ();
        cv = Condition.create ();
        jobs = Queue.create ();
        closed = false;
        workers = [];
      }
    in
    e.workers <- List.init (max 1 n) (fun _ -> Thread.create worker e);
    e

  let submit e job =
    Mutex.lock e.mu;
    if e.closed then begin
      Mutex.unlock e.mu;
      false
    end
    else begin
      Queue.push job e.jobs;
      Condition.signal e.cv;
      Mutex.unlock e.mu;
      true
    end

  let shutdown e =
    Mutex.lock e.mu;
    e.closed <- true;
    Condition.broadcast e.cv;
    Mutex.unlock e.mu;
    List.iter Thread.join e.workers;
    e.workers <- []
end

type t = {
  cfg : cfg;
  members : Membership.t;
  mutable pools : (string * Pool.t) list;  (* by shard id; topo_mu *)
  exec : Exec.t;
  front : Net.Server.t option Atomic.t;  (* set once the socket is bound *)
  routed : int Atomic.t;
  failovers : int Atomic.t;
  shed : int Atomic.t;  (* relays that found no live candidate *)
  mutable route_counters : (string * M.counter) list;  (* topo_mu *)
  (* Topology barrier: a membership change drains in-flight relays
     against the old ring before the new one routes anything.  Relays
     enter with [relay_begin] (blocking while a change drains) and
     leave with [relay_end]; [change_topology] flips [topo_draining],
     waits for [active_relays] to hit zero, mutates, and releases. *)
  topo_mu : Mutex.t;
  topo_cv : Condition.t;
  mutable topo_draining : bool;
  mutable active_relays : int;
  topo_gen : int Atomic.t;  (* completed topology changes *)
  stale_routes : int Atomic.t;
  read_repairs : int Atomic.t;
}

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
  Atomic.get t.shed
  + match Atomic.get t.front with Some f -> Net.Server.shed_total f | None -> 0

(* ------------------------------------------------------------------ *)
(* Topology barrier                                                    *)
(* ------------------------------------------------------------------ *)

let relay_begin t =
  Mutex.lock t.topo_mu;
  while t.topo_draining do
    Condition.wait t.topo_cv t.topo_mu
  done;
  t.active_relays <- t.active_relays + 1;
  Mutex.unlock t.topo_mu

let relay_end t =
  Mutex.lock t.topo_mu;
  t.active_relays <- t.active_relays - 1;
  if t.active_relays = 0 then Condition.broadcast t.topo_cv;
  Mutex.unlock t.topo_mu

(* every executor job that touches the ring or the pools runs inside
   the barrier, so [change_topology] swaps both with nothing in flight *)
let with_relay_barrier t f =
  relay_begin t;
  Fun.protect ~finally:(fun () -> relay_end t) f

(* Serialize membership changes and drain relays routed on the old
   ring: waiters in [relay_begin] do not hold [active_relays], so the
   drain only waits on relays already past the barrier — bounded by
   the shard round-trip timeout.  [mutate] runs with the lock held and
   must touch [t.pools] / [t.route_counters] directly (never through
   [pool_of], the mutex is not reentrant). *)
let change_topology t mutate =
  Mutex.lock t.topo_mu;
  while t.topo_draining do
    Condition.wait t.topo_cv t.topo_mu
  done;
  t.topo_draining <- true;
  while t.active_relays > 0 do
    Condition.wait t.topo_cv t.topo_mu
  done;
  let finish () =
    t.topo_draining <- false;
    Condition.broadcast t.topo_cv;
    Mutex.unlock t.topo_mu
  in
  match mutate () with
  | Ok _ as result ->
      Atomic.incr t.topo_gen;
      M.incr m_topo_changes;
      finish ();
      result
  | Error _ as result ->
      finish ();
      result
  | exception e ->
      finish ();
      raise e

(* ------------------------------------------------------------------ *)
(* Relaying                                                            *)
(* ------------------------------------------------------------------ *)

let pool_of t id =
  Mutex.lock t.topo_mu;
  let p = List.assoc_opt id t.pools in
  Mutex.unlock t.topo_mu;
  p

let route_counter t id =
  Mutex.lock t.topo_mu;
  let c = List.assoc_opt id t.route_counters in
  Mutex.unlock t.topo_mu;
  c

(* Read-repair: a warm full-rung hit served by a shard that is not the
   key's current ring owner (failover landed it there, or ownership
   moved under a topology change) is pushed back to the owner —
   fire-and-forget on the executor — so the next request for the key
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
            (Exec.submit t.exec (fun () ->
                 with_relay_barrier t (fun () ->
                     match pool_of t owner with
                     | None -> ()
                     | Some pool -> (
                         match
                           Pool.with_client pool (fun c ->
                               Net.Client.cache_push c p)
                         with
                         | Ok _ ->
                             Atomic.incr t.read_repairs;
                             M.incr m_read_repair
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
  let gen0 = Atomic.get t.topo_gen in
  let candidates = Ring.route ring key ~n:(max 1 t.cfg.failover) in
  let rec go i = function
    | [] ->
        Atomic.incr t.shed;
        M.incr m_shed;
        Net.Wire.R_overloaded
    | shard_id :: rest -> (
        let try_next () = go (i + 1) rest in
        (* the barrier guarantees no membership change lands while this
           relay is in flight; the counter proves it stays that way *)
        if Atomic.get t.topo_gen <> gen0 then begin
          Atomic.incr t.stale_routes;
          M.incr m_stale
        end;
        match pool_of t shard_id with
        | None -> try_next ()
        | Some pool -> (
            match
              Pool.with_client pool (fun c ->
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
                    Atomic.incr t.routed;
                    (match route_counter t shard_id with
                    | Some c -> M.incr c
                    | None -> ());
                    if i > 0 then begin
                      Atomic.incr t.failovers;
                      M.incr m_failover
                    end;
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
      | Some pool -> (
          match Pool.with_client pool (fun c -> Net.Client.cache_push c p) with
          | Ok admitted -> admitted
          | Error _ ->
              Membership.note_failure t.members shard_id;
              false))

(* ------------------------------------------------------------------ *)
(* Cluster-wide observability                                          *)
(* ------------------------------------------------------------------ *)

(* per-shard fetch for the aggregated views; Down shards are reported
   as unreachable without being dialed *)
let fetch_from_shard t (shard : Membership.shard) st f =
  if st = Membership.Down then Error "down"
  else
    match pool_of t shard.Membership.sh_id with
    | None -> Error "unknown shard"
    | Some pool -> Pool.with_client pool f

let aggregated_stats_json t =
  let shards =
    Membership.snapshot t.members
    |> List.map (fun (shard, st, _) ->
           let body =
             match fetch_from_shard t shard st Net.Client.stats_json with
             | Ok json -> json
             | Error _ -> "null"
           in
           Printf.sprintf "\"%s\":%s" shard.Membership.sh_id body)
  in
  Printf.sprintf
    "{\"proxy\":{\"routed\":%d,\"failovers\":%d,\"shed\":%d,\"members\":%s},\"shards\":{%s}}"
    (Atomic.get t.routed) (Atomic.get t.failovers) (shed_total t)
    (Membership.members_json t.members)
    (String.concat "," shards)

(* flat-object integer extraction: enough JSON to lift the replication
   counters out of a shard's Stats_json without a parser dependency *)
let find_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some (i + nn)
    else go (i + 1)
  in
  go 0

let json_int_field body name =
  match find_sub body (Printf.sprintf "\"%s\":" name) with
  | None -> None
  | Some start ->
      let n = String.length body in
      let stop = ref start in
      if !stop < n && body.[!stop] = '-' then incr stop;
      while !stop < n && body.[!stop] >= '0' && body.[!stop] <= '9' do
        incr stop
      done;
      if !stop = start then None
      else int_of_string_opt (String.sub body start (!stop - start))

let replica_counter_keys =
  [
    "replica_admitted";
    "replica_rejected";
    "replicated_hits";
    "replica_pushed";
    "replica_skipped_down";
  ]

(* the [cedarctl cluster members --json] view: ring epoch, per-shard
   state, and each live shard's replication counters in one object *)
let enriched_members_json t =
  let shards =
    Membership.snapshot t.members
    |> List.map (fun ((shard : Membership.shard), st, fails) ->
           let counters =
             match fetch_from_shard t shard st Net.Client.stats_json with
             | Error _ -> ""
             | Ok body ->
                 replica_counter_keys
                 |> List.filter_map (fun k ->
                        Option.map
                          (Printf.sprintf ",\"%s\":%d" k)
                          (json_int_field body k))
                 |> String.concat ""
           in
           let idle =
             match pool_of t shard.Membership.sh_id with
             | Some p -> Pool.idle_count p
             | None -> 0
           in
           Printf.sprintf
             "{\"id\":\"%s\",\"host\":\"%s\",\"port\":%d,\"state\":\"%s\",\"fails\":%d,\"pool_idle\":%d%s}"
             shard.Membership.sh_id shard.Membership.sh_host
             shard.Membership.sh_port
             (Membership.state_name st)
             fails idle counters)
  in
  Printf.sprintf
    "{\"epoch\":%d,\"vnodes\":%d,\"proxy\":{\"routed\":%d,\"failovers\":%d,\"shed\":%d,\"stale_routes\":%d,\"read_repairs\":%d,\"topology_changes\":%d},\"shards\":[%s]}"
    (Membership.epoch t.members)
    (Membership.vnodes t.members)
    (Atomic.get t.routed) (Atomic.get t.failovers) (shed_total t)
    (Atomic.get t.stale_routes)
    (Atomic.get t.read_repairs)
    (Atomic.get t.topo_gen)
    (String.concat "," shards)

let aggregated_stats_text t =
  let header =
    Printf.sprintf "cluster     routed %d  failovers %d  shed %d"
      (Atomic.get t.routed) (Atomic.get t.failovers) (shed_total t)
  in
  let sections =
    Membership.snapshot t.members
    |> List.map (fun (shard, st, fails) ->
           let title =
             Printf.sprintf "--- shard %s (%s:%d) %s, %d consecutive fails ---"
               shard.Membership.sh_id shard.Membership.sh_host
               shard.Membership.sh_port (Membership.state_name st) fails
           in
           let body =
             match fetch_from_shard t shard st Net.Client.stats with
             | Ok text -> text
             | Error msg -> "unreachable: " ^ msg
           in
           title ^ "\n" ^ body)
  in
  String.concat "\n" (header :: sections)

(* ------------------------------------------------------------------ *)
(* Topology changes                                                    *)
(* ------------------------------------------------------------------ *)

let shard_pool cfg (s : Membership.shard) =
  let ccfg =
    {
      (Net.Client.default_cfg ~port:s.Membership.sh_port) with
      Net.Client.host = s.Membership.sh_host;
      connect_timeout_s = Float.min 5.0 cfg.shard_timeout_s;
      request_timeout_s = cfg.shard_timeout_s;
      max_attempts = 2;
    }
  in
  Pool.create ccfg

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
           | Some pool ->
               ignore
                 (Pool.with_client pool (fun c ->
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
                (shard.Membership.sh_id, shard_pool t.cfg shard) :: t.pools;
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
      (match closing with Some p -> Pool.close_all p | None -> ());
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

(* A relayed request is deferred: [work] runs on the executor and its
   promise carries the reply back through the scheduler's completion
   queue.  [start] yields [None] only once the executor is closed, and
   the front end then sheds. *)
let defer t ?(trace = 0) ?(overload = Net.Wire.Result Net.Wire.R_overloaded)
    work =
  let start () =
    let reply = Aio.promise () in
    if
      Exec.submit t.exec (fun () ->
          Aio.fulfil reply
            (try work ()
             with _ -> Net.Wire.Result (Net.Wire.R_error "proxy relay failed")))
    then Some reply
    else None
  in
  Net.Server.Defer { overload; trace; start }

(* every relay that touches the ring or the pools runs inside the
   barrier; topology changes take its drain side instead *)
let relay t ?trace ?overload work =
  defer t ?trace ?overload (fun () -> with_relay_barrier t work)

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
  | Net.Wire.Stats_req ->
      relay t (fun () -> Net.Wire.Stats_text (aggregated_stats_text t))
  | Net.Wire.Stats_json_req ->
      relay t (fun () -> Net.Wire.Stats_json (aggregated_stats_json t))
  | Net.Wire.Members_json_req ->
      relay t (fun () -> Net.Wire.Members_json (enriched_members_json t))
  | Net.Wire.Cluster_add a ->
      defer t ~overload:(membership_refused t) (fun () ->
          Net.Wire.Cluster_ack (handle_cluster_add t a))
  | Net.Wire.Cluster_remove sid ->
      defer t ~overload:(membership_refused t) (fun () ->
          Net.Wire.Cluster_ack (handle_cluster_remove t sid))
  | Net.Wire.Metrics_req ->
      Net.Server.Reply (Net.Wire.Metrics_text (M.dump M.global))
  | Net.Wire.Metrics_json_req ->
      Net.Server.Reply (Net.Wire.Metrics_json (M.to_json M.global))
  | Net.Wire.Members_req ->
      Net.Server.Reply
        (Net.Wire.Members_text (Membership.members_json t.members))
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
          (fun (s : Membership.shard) -> (s.Membership.sh_id, shard_pool cfg s))
          shards;
      exec = Exec.create 16;
      front = Atomic.make None;
      routed = Atomic.make 0;
      failovers = Atomic.make 0;
      shed = Atomic.make 0;
      route_counters =
        List.map
          (fun (s : Membership.shard) ->
            (s.Membership.sh_id, shard_route_counter s))
          shards;
      topo_mu = Mutex.create ();
      topo_cv = Condition.create ();
      topo_draining = false;
      active_relays = 0;
      topo_gen = Atomic.make 0;
      stale_routes = Atomic.make 0;
      read_repairs = Atomic.make 0;
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
  match Net.Server.serve front_cfg (handle t) with
  | front ->
      Atomic.set t.front (Some front);
      t
  | exception e ->
      Membership.stop members;
      Exec.shutdown t.exec;
      raise e

let front t = Option.get (Atomic.get t.front)
let port t = Net.Server.port (front t)
let membership t = t.members
let request_stop t = Net.Server.request_stop (front t)
let wait_stop t = Net.Server.wait_stop (front t)

let drain t =
  (* the front end returns once every deferred reply is written, so
     the executor is idle by the time it is shut down *)
  Net.Server.drain (front t);
  Membership.stop t.members;
  Exec.shutdown t.exec;
  let pools =
    Mutex.lock t.topo_mu;
    let p = t.pools in
    Mutex.unlock t.topo_mu;
    p
  in
  List.iter (fun (_, p) -> Pool.close_all p) pools

let routed_total t = Atomic.get t.routed
let failover_total t = Atomic.get t.failovers
let epoch t = Membership.epoch t.members
let stale_routes_total t = Atomic.get t.stale_routes
let read_repair_total t = Atomic.get t.read_repairs
let topology_changes_total t = Atomic.get t.topo_gen
