(* Seeded, deterministic fault injector.  See fault.mli.

   Determinism without coordination: each site keeps its own atomic draw
   counter, and decision [n] for a site is a pure function of
   (seed, site, n) via a splitmix64-style mixer — so the schedule of
   decisions per site is reproducible for a given seed no matter how
   worker domains interleave, and a single-worker run is fully
   deterministic end to end. *)

type site =
  | Exec_raise  (** exception from deep inside the restructure stage *)
  | Exec_delay  (** artificial latency before restructuring *)
  | Worker_kill  (** domain death: escapes the job's exception barrier *)
  | Cache_corrupt  (** flip a byte of the payload text stored in the cache *)
  | Memo_corrupt  (** poison a nest entry as the restructurer memo stores it *)
  | Validator_reject  (** spurious rejection of a correct result *)
  | Accept_drop  (** close an accepted connection before reading anything *)
  | Read_stall  (** stall the server's frame reader (client sees latency) *)
  | Trunc_write  (** cut a reply frame short and drop the connection *)
  | Garbage_frame  (** replace a reply frame with bytes that decode to junk *)

exception Injected of site
(** Raised by the server at a site the injector told to fire. *)

let all_sites =
  [
    Exec_raise; Exec_delay; Worker_kill; Cache_corrupt; Memo_corrupt;
    Validator_reject; Accept_drop; Read_stall; Trunc_write; Garbage_frame;
  ]

let site_index = function
  | Exec_raise -> 0
  | Exec_delay -> 1
  | Worker_kill -> 2
  | Cache_corrupt -> 3
  | Memo_corrupt -> 4
  | Validator_reject -> 5
  | Accept_drop -> 6
  | Read_stall -> 7
  | Trunc_write -> 8
  | Garbage_frame -> 9

let n_sites = List.length all_sites

let site_name = function
  | Exec_raise -> "raise"
  | Exec_delay -> "delay"
  | Worker_kill -> "kill"
  | Cache_corrupt -> "corrupt"
  | Memo_corrupt -> "memo-corrupt"
  | Validator_reject -> "reject"
  | Accept_drop -> "accept-drop"
  | Read_stall -> "read-stall"
  | Trunc_write -> "trunc-write"
  | Garbage_frame -> "garbage-frame"

let site_of_name = function
  | "raise" -> Some Exec_raise
  | "delay" -> Some Exec_delay
  | "kill" -> Some Worker_kill
  | "corrupt" -> Some Cache_corrupt
  | "memo-corrupt" -> Some Memo_corrupt
  | "reject" -> Some Validator_reject
  | "accept-drop" -> Some Accept_drop
  | "read-stall" -> Some Read_stall
  | "trunc-write" -> Some Trunc_write
  | "garbage-frame" -> Some Garbage_frame
  | _ -> None

(* the in-process job-lifecycle sites, as opposed to the network sites a
   Net.Server attacks on the wire; "all" in a spec means these, so the
   historic "--chaos all=0.1" exercises exactly the sites a traffic run
   can reach, and "net=P" arms the wire sites *)
let service_sites =
  [
    Exec_raise; Exec_delay; Worker_kill; Cache_corrupt; Memo_corrupt;
    Validator_reject;
  ]

let net_sites = [ Accept_drop; Read_stall; Trunc_write; Garbage_frame ]

(* injection activity is also visible through the metrics registry; the
   handles are resolved once (fire runs on every attempt's hot path) *)
let m_draws =
  Obs.Metrics.counter Obs.Metrics.global
    ~help:"fault-site decisions drawn" "service_fault_draws_total"

let m_fired_by_site =
  Array.of_list
    (List.map
       (fun s ->
         Obs.Metrics.counter Obs.Metrics.global
           ~help:"injected faults fired, by site"
           (Printf.sprintf "service_fault_fired_%s_total" (site_name s)))
       all_sites)

type t = {
  seed : int;
  stealth : bool;
  delay_s : float;
  probs : float array;  (* indexed by site_index; 0 = site disabled *)
  draws : int Atomic.t array;  (* the draw number picks the decision *)
  fired : Obs.Metrics.counter array;
}

let none =
  {
    seed = 0;
    stealth = false;
    delay_s = 0.0;
    probs = Array.make n_sites 0.0;
    draws = Array.init n_sites (fun _ -> Atomic.make 0);
    fired = Array.map Obs.Metrics.child m_fired_by_site;
  }

let create ?(seed = 42) ?(stealth = false) ?(delay_ms = 5.0) sites =
  let probs = Array.make n_sites 0.0 in
  List.iter
    (fun (s, p) ->
      if p < 0.0 || p > 1.0 then
        invalid_arg "Fault.create: probability outside [0,1]";
      probs.(site_index s) <- p)
    sites;
  {
    seed;
    stealth;
    delay_s = Float.max 0.0 delay_ms /. 1000.0;
    probs;
    draws = Array.init n_sites (fun _ -> Atomic.make 0);
    fired = Array.map Obs.Metrics.child m_fired_by_site;
  }

let active t = Array.exists (fun p -> p > 0.0) t.probs
let stealth t = t.stealth
let delay_s t = t.delay_s
let set_prob t site p = t.probs.(site_index site) <- p

(* splitmix64 finalizer over (seed, site, draw number) *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let unit_float ~seed ~site ~n =
  let z =
    mix64
      (Int64.add
         (Int64.mul (Int64.of_int seed) 0x9e3779b97f4a7c15L)
         (Int64.of_int ((site * 0x3c6ef372) + n)))
  in
  (* top 53 bits to [0,1) *)
  Int64.to_float (Int64.shift_right_logical z 11) /. 9007199254740992.0

let fire t site =
  let i = site_index site in
  let p = t.probs.(i) in
  if p <= 0.0 then false
  else begin
    let n = Atomic.fetch_and_add t.draws.(i) 1 in
    Obs.Metrics.incr m_draws;
    let hit = unit_float ~seed:t.seed ~site:i ~n < p in
    if hit then Obs.Metrics.incr t.fired.(i);
    hit
  end

let log t =
  List.map
    (fun s ->
      let i = site_index s in
      (s, Atomic.get t.draws.(i), Obs.Metrics.counter_value t.fired.(i)))
    all_sites

let total_fired t =
  Array.fold_left (fun acc c -> acc + Obs.Metrics.counter_value c) 0 t.fired

let log_to_string t =
  let lines =
    List.filter_map
      (fun (s, draws, fired) ->
        if t.probs.(site_index s) <= 0.0 && draws = 0 then None
        else
          Some
            (Printf.sprintf "  %-13s p=%-5.2f draws %-6d fired %d" (site_name s)
               t.probs.(site_index s) draws fired))
      (log t)
  in
  match lines with
  | [] -> "fault injector: inactive"
  | lines ->
      Printf.sprintf "fault injector: seed %d%s\n%s" t.seed
        (if t.stealth then ", stealth" else "")
        (String.concat "\n" lines)

(* spec grammar: "raise=0.1,delay=0.05,kill=0.01,corrupt=0.1,reject=0.1";
   "all=P" sets every in-process site at once, "net=P" every wire site *)
let parse_spec spec =
  let parts =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | part :: rest -> (
        match String.split_on_char '=' part with
        | [ name; p ] -> (
            match float_of_string_opt (String.trim p) with
            | None -> Error (Printf.sprintf "bad probability %S" p)
            | Some p when p < 0.0 || p > 1.0 ->
                Error (Printf.sprintf "probability %g outside [0,1]" p)
            | Some p -> (
                match String.trim name with
                | "all" ->
                    go
                      (List.rev_append
                         (List.map (fun s -> (s, p)) service_sites)
                         acc)
                      rest
                | "net" ->
                    go
                      (List.rev_append (List.map (fun s -> (s, p)) net_sites)
                         acc)
                      rest
                | name -> (
                    match site_of_name name with
                    | Some s -> go ((s, p) :: acc) rest
                    | None ->
                        Error
                          (Printf.sprintf
                             "unknown fault site %S (want raise, delay, kill, \
                              corrupt, memo-corrupt, reject, accept-drop, \
                              read-stall, trunc-write, garbage-frame, all, or \
                              net)"
                             name))))
        | _ -> Error (Printf.sprintf "bad fault spec part %S (want site=prob)" part)
      )
  in
  go [] parts
