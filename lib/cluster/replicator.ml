type item = { it_key : string; it_digest : string; it_payload : Service.Server.payload }

type counts = {
  pushed : int;
  admitted : int;
  rejected : int;
  dropped : int;
  errors : int;
  skipped_down : int;
}

(* Push-path peer health: a peer that keeps eating transport errors is
   skipped (counted, not retried) until a cooldown expires, so pushes
   aimed at a dead shard stop burning pool connections.  This is
   deliberately local to the replicator — a shard has no membership
   view; the proxy's prober is the authority, this is just the
   replicator not stepping on the same rake twice per entry. *)
type peer_health = { mutable ph_fails : int; mutable ph_retry_at : float }

let down_after = 2
let cooldown_s = 2.0

module M = Obs.Metrics

type t = {
  self : string;
  replicas : int;  (* total copies of a key, primary included *)
  vnodes : int;
  timeout_s : float;
  mutex : Mutex.t;
  mutable members : Membership.shard list;  (* this shard's view *)
  mutable applied : int;  (* topology changes applied to the view *)
  mutable ring : Ring.t;
  mutable pools : (string * Pool.t) list;  (* by shard id, self excluded *)
  health : (string, peer_health) Hashtbl.t;
  mutable export :
    (unit -> (string * string * Service.Server.payload) list) option;
  mutable gc : (keep:(string -> bool) -> int) option;
      (* drops replica-flagged cache entries failing [keep]; wired to
         [Service.Server.gc_replicas] *)
  queue : item Service.Bounded_queue.t;
  (* counts, each a child of its registry total below *)
  c_pushed : M.counter;
  c_admitted : M.counter;
  c_rejected : M.counter;
  c_dropped : M.counter;
  c_errors : M.counter;
  c_skipped : M.counter;
  mutable sender : Thread.t option;
}

let m_pushed =
  M.counter M.global ~help:"warm-cache entries pushed to a ring successor"
    "cluster_replication_pushed_total"

let m_admitted =
  M.counter M.global ~help:"warm-cache pushes admitted by the peer"
    "cluster_replication_admitted_total"

let m_rejected =
  M.counter M.global ~help:"warm-cache pushes the peer acked but rejected"
    "cluster_replication_rejected_total"

let m_dropped =
  M.counter M.global ~help:"warm-cache pushes dropped on a full queue"
    "cluster_replication_dropped_total"

let m_errors =
  M.counter M.global ~help:"warm-cache pushes lost to transport errors"
    "cluster_replication_errors_total"

let m_skipped =
  M.counter M.global
    ~help:"warm-cache pushes skipped because the target was held down"
    "cluster_replication_skipped_down_total"

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let cache_push_of_item it =
  let p = it.it_payload in
  {
    Net.Wire.cp_key = it.it_key;
    cp_digest = it.it_digest;
    cp_name = p.Service.Server.p_name;
    cp_text = p.Service.Server.p_text;
    cp_cycles = p.Service.Server.p_cycles;
    cp_global_words = p.Service.Server.p_global_words;
    cp_notes = List.map Net.Wire.note_of_report p.Service.Server.p_reports;
  }

(* health bookkeeping, all under the lock *)
let target_usable t id now =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.health id with
      | None -> true
      | Some ph -> ph.ph_fails < down_after || now >= ph.ph_retry_at)

let note_peer_ok t id =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.health id with
      | None -> ()
      | Some ph -> ph.ph_fails <- 0)

let note_peer_error t id now =
  with_lock t (fun () ->
      let ph =
        match Hashtbl.find_opt t.health id with
        | Some ph -> ph
        | None ->
            let ph = { ph_fails = 0; ph_retry_at = 0.0 } in
            Hashtbl.replace t.health id ph;
            ph
      in
      ph.ph_fails <- ph.ph_fails + 1;
      if ph.ph_fails >= down_after then ph.ph_retry_at <- now +. cooldown_s)

let send_to t it target =
  let now = Unix.gettimeofday () in
  if not (target_usable t target now) then M.incr t.c_skipped
  else
    match with_lock t (fun () -> List.assoc_opt target t.pools) with
    | None -> M.incr t.c_errors
    | Some pool -> (
        match
          Pool.with_client pool (fun c ->
              Net.Client.cache_push c (cache_push_of_item it))
        with
        | Ok admitted ->
            note_peer_ok t target;
            M.incr t.c_pushed;
            M.incr (if admitted then t.c_admitted else t.c_rejected)
        | Error _ ->
            note_peer_error t target (Unix.gettimeofday ());
            M.incr t.c_errors)

let send_one t it =
  let ring, extra = with_lock t (fun () -> (t.ring, t.replicas - 1)) in
  (* the key's first R-1 distinct ring successors after this shard —
     under R total copies, where every replica of the key belongs *)
  let targets = Ring.successors ring t.self ~key:it.it_key ~n:extra in
  List.iter (fun target -> send_to t it target) targets

let sender_loop t =
  let rec go () =
    match Service.Bounded_queue.pop t.queue with
    | None -> () (* closed and drained *)
    | Some it ->
        (try send_one t it with _ -> M.incr t.c_errors);
        go ()
  in
  go ()

let make_pools ~timeout_s ~self peers =
  peers
  |> List.filter (fun s -> s.Membership.sh_id <> self)
  |> List.map (fun s ->
         let cfg =
           {
             (Net.Client.default_cfg ~port:s.Membership.sh_port) with
             Net.Client.host = s.Membership.sh_host;
             connect_timeout_s = timeout_s;
             request_timeout_s = timeout_s;
             max_attempts = 2;
           }
         in
         (s.Membership.sh_id, Pool.create ~max_idle:2 cfg))

let create ?(vnodes = 64) ?(queue_capacity = 256) ?(timeout_s = 5.0)
    ?(replicas = 2) ~self ~peers () =
  let ids = List.map (fun s -> s.Membership.sh_id) peers in
  let t =
    {
      self;
      replicas = max 1 replicas;
      vnodes;
      timeout_s;
      mutex = Mutex.create ();
      members = peers;
      applied = 0;
      ring = Ring.make ~vnodes ids;
      pools = make_pools ~timeout_s ~self peers;
      health = Hashtbl.create 8;
      export = None;
      gc = None;
      queue = Service.Bounded_queue.create ~capacity:(max 1 queue_capacity);
      c_pushed = M.child m_pushed;
      c_admitted = M.child m_admitted;
      c_rejected = M.child m_rejected;
      c_dropped = M.child m_dropped;
      c_errors = M.child m_errors;
      c_skipped = M.child m_skipped;
      sender = None;
    }
  in
  t.sender <- Some (Thread.create sender_loop t);
  t

let push t ~key ~digest payload =
  let it = { it_key = key; it_digest = digest; it_payload = payload } in
  if not (Service.Bounded_queue.try_push t.queue it) then M.incr t.c_dropped

let set_export t f = with_lock t (fun () -> t.export <- Some f)
let set_gc t f = with_lock t (fun () -> t.gc <- Some f)

(* does [self] still back [key] under [ring]?  A shard backs a key when
   it is the owner or one of the first [replicas - 1] distinct
   successors — exactly the set an origin pushes to, so GC and push
   placement can never disagree. *)
let backs ring ~self ~replicas key =
  List.mem self (Ring.route ring key ~n:replicas)

let set_members t peers =
  let old_pools =
    with_lock t (fun () ->
        let ids = List.map (fun s -> s.Membership.sh_id) peers in
        t.members <- peers;
        t.ring <- Ring.make ~vnodes:t.vnodes ids;
        let old = t.pools in
        t.pools <- make_pools ~timeout_s:t.timeout_s ~self:t.self peers;
        Hashtbl.reset t.health;
        old)
  in
  List.iter (fun (_, p) -> Pool.close_all p) old_pools;
  (* replica GC first: entries this shard held as a successor but no
     longer backs under the new ring are dropped before the re-export
     below, so an ex-successor neither re-pushes nor keeps serving
     entries that now belong elsewhere *)
  let ring, gc = with_lock t (fun () -> (t.ring, t.gc)) in
  (match gc with
  | None -> ()
  | Some f ->
      ignore (f ~keep:(backs ring ~self:t.self ~replicas:t.replicas)));
  (* re-replication: placement moved under the new ring, so every
     resident entry is re-queued once.  Receivers re-verify and
     deduplicate (an entry already resident is just re-admitted), and
     this is a one-shot pass, not hook-driven — no ping-pong. *)
  let export = with_lock t (fun () -> t.export) in
  match export with
  | None -> ()
  | Some f ->
      List.iter
        (fun (key, digest, payload) -> push t ~key ~digest payload)
        (f ())

(* a change the proxy broadcast after applying it: an add passes the
   proxy's own checks before it reaches the view *)
let apply_change t (change : Net.Server.cluster_change) =
  let known id = List.exists (fun s -> s.Membership.sh_id = id) t.members in
  let next =
    match change with
    | `Add (sh_id, sh_host, sh_port) -> (
        match Membership.check_shard { Membership.sh_id; sh_host; sh_port } with
        | Error _ as e -> e
        | Ok _ when known sh_id -> Error (sh_id ^ ": already a member")
        | Ok s -> Ok (t.members @ [ s ], sh_id ^ ": member added"))
    | `Remove id ->
        if not (known id) then Error (id ^ ": not a member")
        else
          Ok
            ( List.filter (fun s -> s.Membership.sh_id <> id) t.members,
              id ^ ": member removed" )
  in
  match next with
  | Error msg -> (false, t.applied, msg)
  | Ok (members, msg) ->
      t.applied <- t.applied + 1;
      set_members t members;
      (true, t.applied, msg)

let replicas t = t.replicas

let counts t =
  let v = M.counter_value in
  {
    pushed = v t.c_pushed;
    admitted = v t.c_admitted;
    rejected = v t.c_rejected;
    dropped = v t.c_dropped;
    errors = v t.c_errors;
    skipped_down = v t.c_skipped;
  }

let stop t =
  Service.Bounded_queue.close t.queue;
  (match t.sender with
  | None -> ()
  | Some th ->
      t.sender <- None;
      Thread.join th);
  List.iter (fun (_, p) -> Pool.close_all p) t.pools
