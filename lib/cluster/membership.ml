type state = Up | Suspect | Down

let state_name = function Up -> "up" | Suspect -> "suspect" | Down -> "down"

type shard = { sh_id : string; sh_host : string; sh_port : int }

(* A shard id ends up inside JSON strings and Prometheus metric names
   ([cluster_route_<id>_total]), and Net.Client dials IPv4 literals only
   (its socket is PF_INET), so every shard is checked where it enters:
   the CLI specs parsed by [parse_shards] and the wire's [add_shard]. *)
let check_shard s =
  let id_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' -> true
    | _ -> false
  in
  let ipv4_literal h =
    match Unix.inet_addr_of_string h with
    | a -> Unix.domain_of_sockaddr (Unix.ADDR_INET (a, 0)) = Unix.PF_INET
    | exception Failure _ -> false
  in
  if s.sh_id = "" || not (String.for_all id_char s.sh_id) then
    Error
      (Printf.sprintf "shard id %S: expected a name of [A-Za-z0-9_]" s.sh_id)
  else if not (ipv4_literal s.sh_host) then
    Error
      (Printf.sprintf "shard %s: host %S is not an IPv4 address" s.sh_id
         s.sh_host)
  else if s.sh_port < 1 || s.sh_port > 65535 then
    Error
      (Printf.sprintf "shard %s: port %d is outside 1..65535" s.sh_id
         s.sh_port)
  else Ok s

let parse_shards spec =
  let parse_one part =
    let malformed = Error (Printf.sprintf "%S: expected id=host:port" part) in
    match String.index_opt part '=' with
    | None -> malformed
    | Some eq -> (
        let addr = String.sub part (eq + 1) (String.length part - eq - 1) in
        match String.rindex_opt addr ':' with
        | None -> malformed
        | Some colon -> (
            let port =
              String.sub addr (colon + 1) (String.length addr - colon - 1)
            in
            match int_of_string_opt port with
            | None -> malformed
            | Some sh_port ->
                check_shard
                  {
                    sh_id = String.sub part 0 eq;
                    sh_host = String.sub addr 0 colon;
                    sh_port;
                  }))
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | part :: rest -> (
        match parse_one (String.trim part) with
        | Ok shard -> go (shard :: acc) rest
        | Error _ as e -> e)
  in
  go [] (String.split_on_char ',' spec)

type tracked = {
  shard : shard;
  mutable st : state;
  mutable fails : int;  (* consecutive *)
}

type t = {
  vnodes : int;
  probe_s : float;
  down_after : int;
  timeout_s : float;
  seed : int;
  probe_loss : float;  (* injected probe-failure rate (tests) *)
  mutex : Mutex.t;
  mutable tracked : tracked list;
  mutable full_ring : Ring.t;  (* all current members: the all-down fallback *)
  mutable live_ring : Ring.t;
  mutable epoch : int;  (* bumps whenever routable membership changes *)
  mutable draws : int;  (* probe-loss draw counter *)
}

module M = Obs.Metrics

let m_transitions =
  M.counter M.global ~help:"membership state transitions"
    "cluster_member_transitions_total"

let m_down =
  M.gauge M.global ~help:"shards currently marked down" "cluster_members_down"

let m_epoch =
  M.gauge M.global ~help:"current ring epoch" "cluster_ring_epoch"

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* splitmix64 finalizer, same family as Service.Fault and Net.Client *)
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

let unit_float seed n =
  let bits = mix64 (Int64.of_int ((seed * 0x3779fb9) lxor n)) in
  Int64.to_float (Int64.shift_right_logical bits 11) /. 9007199254740992.0

(* must hold the lock.  The epoch advances iff the set of routable
   shards actually changed — a Suspect⇄Up oscillation leaves the ring
   alone and must not churn the epoch, while a Down transition, a
   resurrection, or an add/remove moves ownership and does. *)
let rebuild_ring t =
  let live =
    List.filter_map
      (fun tr -> if tr.st <> Down then Some tr.shard.sh_id else None)
      t.tracked
  in
  let next =
    if live = [] then t.full_ring else Ring.make ~vnodes:t.vnodes live
  in
  if Ring.members next <> Ring.members t.live_ring then begin
    t.epoch <- t.epoch + 1;
    M.set_gauge m_epoch (float_of_int t.epoch)
  end;
  t.live_ring <- next;
  M.set_gauge m_down
    (float_of_int
       (List.fold_left
          (fun n tr -> if tr.st = Down then n + 1 else n)
          0 t.tracked))

let apply_success t tr =
  with_lock t (fun () ->
      tr.fails <- 0;
      if tr.st <> Up then begin
        tr.st <- Up;
        M.incr m_transitions;
        rebuild_ring t
      end)

let apply_failure t tr =
  with_lock t (fun () ->
      tr.fails <- tr.fails + 1;
      let next = if tr.fails >= t.down_after then Down else Suspect in
      if tr.st <> next then begin
        tr.st <- next;
        M.incr m_transitions;
        if next = Down then rebuild_ring t
      end)

let find t id =
  with_lock t (fun () ->
      List.find_opt (fun tr -> tr.shard.sh_id = id) t.tracked)

let note_failure t id =
  match find t id with None -> () | Some tr -> apply_failure t tr

let note_success t id =
  match find t id with None -> () | Some tr -> apply_success t tr

(* One-shot ping: a single connection attempt with tight timeouts — the
   probe must never hang the loop behind a dead host.  [probe_loss]
   deterministically swallows a fraction of probes (seeded, distinct
   stream from the period jitter) so tests can flap a healthy shard
   without touching the network. *)
let probe_shard t tr =
  let lost =
    t.probe_loss > 0.0
    &&
    let n = with_lock t (fun () -> t.draws <- t.draws + 1; t.draws) in
    unit_float (t.seed lxor 0x10c4e55) n < t.probe_loss
  in
  if lost then apply_failure t tr
  else
    let cfg =
      {
        (Net.Client.default_cfg ~port:tr.shard.sh_port) with
        Net.Client.host = tr.shard.sh_host;
        connect_timeout_s = t.timeout_s;
        request_timeout_s = t.timeout_s;
        max_attempts = 1;
      }
    in
    match Net.Client.connect cfg with
    | Error _ -> apply_failure t tr
    | Ok c -> (
        Fun.protect ~finally:(fun () -> Net.Client.close c) @@ fun () ->
        match Net.Client.ping c with
        | Ok _ -> apply_success t tr
        | Error _ -> apply_failure t tr)

let probe_once t =
  let snapshot = with_lock t (fun () -> t.tracked) in
  List.iter (fun tr -> probe_shard t tr) snapshot

let probe_loop t =
  let rec loop tick =
    probe_once t;
    (* jitter the period ±50% so a proxy fleet never probes in phase *)
    Aio.sleep (t.probe_s *. (0.5 +. unit_float t.seed tick));
    loop (tick + 1)
  in
  loop 1

let create ?(vnodes = 64) ?(probe_ms = 500.0) ?(down_after = 2)
    ?(timeout_s = 1.0) ?(seed = 0x5eed) ?(probe_loss = 0.0) shards =
  let ids = List.map (fun s -> s.sh_id) shards in
  let full_ring = Ring.make ~vnodes ids in
  let t =
    {
      vnodes;
      probe_s = Float.max 0.01 (probe_ms /. 1000.0);
      down_after = max 1 down_after;
      timeout_s;
      seed;
      probe_loss;
      mutex = Mutex.create ();
      tracked = List.map (fun shard -> { shard; st = Up; fails = 0 }) shards;
      full_ring;
      live_ring = full_ring;
      epoch = 1;
      draws = 0;
    }
  in
  M.set_gauge m_epoch 1.0;
  t

let ring t = with_lock t (fun () -> t.live_ring)
let epoch t = with_lock t (fun () -> t.epoch)
let ring_epoch t = with_lock t (fun () -> (t.live_ring, t.epoch))
let vnodes t = t.vnodes

(* Dynamic membership: the member set itself is mutable.  Both the full
   (fallback) ring and the live ring are rebuilt; a change that alters
   routable membership bumps the epoch via [rebuild_ring]. *)
let add_shard t shard =
  match check_shard shard with
  | Error _ as e -> e
  | Ok shard ->
      with_lock t (fun () ->
          if List.exists (fun tr -> tr.shard.sh_id = shard.sh_id) t.tracked
          then Error (Printf.sprintf "shard %S is already a member" shard.sh_id)
          else begin
            t.tracked <- t.tracked @ [ { shard; st = Up; fails = 0 } ];
            t.full_ring <-
              Ring.make ~vnodes:t.vnodes
                (List.map (fun tr -> tr.shard.sh_id) t.tracked);
            rebuild_ring t;
            Ok t.epoch
          end)

let remove_shard t id =
  with_lock t (fun () ->
      if not (List.exists (fun tr -> tr.shard.sh_id = id) t.tracked) then
        Error (Printf.sprintf "shard %S is not a member" id)
      else if List.length t.tracked <= 1 then
        Error "refusing to remove the last member"
      else begin
        t.tracked <- List.filter (fun tr -> tr.shard.sh_id <> id) t.tracked;
        t.full_ring <-
          Ring.make ~vnodes:t.vnodes
            (List.map (fun tr -> tr.shard.sh_id) t.tracked);
        rebuild_ring t;
        Ok t.epoch
      end)

let snapshot t =
  with_lock t (fun () ->
      List.map (fun tr -> (tr.shard, tr.st, tr.fails)) t.tracked)

let members_json t =
  let epoch, vnodes, rows =
    with_lock t (fun () ->
        ( t.epoch,
          t.vnodes,
          List.map (fun tr -> (tr.shard, tr.st, tr.fails)) t.tracked ))
  in
  let shards =
    List.map
      (fun ((s : shard), st, fails) ->
        Printf.sprintf
          "{\"id\":\"%s\",\"host\":\"%s\",\"port\":%d,\"state\":\"%s\",\"fails\":%d}"
          s.sh_id s.sh_host s.sh_port (state_name st) fails)
      rows
  in
  Printf.sprintf "{\"epoch\":%d,\"vnodes\":%d,\"shards\":[%s]}" epoch vnodes
    (String.concat "," shards)
