(* Seeded request generation.  Every request the benchmark sends is drawn
   from Service.Traffic.nth_request; the program under test only ever
   sees the generated requests. *)

type spec = {
  seed : int;
  jitter : int;  (** problem sizes drawn from small_size .. small_size+jitter *)
  batch : int;  (** corpus programs per request *)
  validate : bool;
  target : Codegen.Target.t;
}

let nth spec i =
  Service.Traffic.nth_request ~validate:spec.validate ~target:spec.target
    ~seed:spec.seed ~size_jitter:spec.jitter ~batch:spec.batch i

let program_names source =
  String.split_on_char '\n' source
  |> List.filter_map (fun l ->
         match String.split_on_char ' ' (String.lowercase_ascii (String.trim l)) with
         | "program" :: name :: _ -> Some name
         | _ -> None)

(* The strata of a request: its head program (the one perfmodel and the
   interpreter run first), every program it batches, its technique set
   and its machine; the request name ends in ".../technique/machine". *)
let strata (r : Service.Server.request) =
  let programs = program_names r.Service.Server.req_source in
  let labels =
    match List.rev (String.split_on_char '/' r.Service.Server.req_name) with
    | m :: t :: _ -> [ "t:" ^ t; "m:" ^ m ]
    | _ -> []
  in
  (match programs with p :: _ -> [ "h:" ^ p ] | [] -> [])
  @ List.map (fun p -> "p:" ^ p) programs
  @ labels

let groups =
  lazy
    (let names =
       List.concat_map
         (fun w -> program_names (w.Workloads.Workload.source w.Workloads.Workload.small_size))
         (Service.Traffic.corpus ())
     in
     [ List.map (fun p -> "h:" ^ p) names; List.map (fun p -> "p:" ^ p) names;
       [ "t:adv"; "t:auto" ]; [ "m:c1"; "m:c2" ] ])

(* The sequence for [spec] with repeats skipped, so every request of a
   stream has its own cache key.  [draw] takes the next request;
   [draw_balanced] takes, of the next [window] requests, the one whose
   strata are least ahead of the least-drawn stratum of their group, so
   a small set drawn that way holds nearly the same mix of programs,
   technique sets and machines whatever the seed. *)
type stream = {
  spec : spec;
  mutable next : int;
  seen : (string, unit) Hashtbl.t;
  counts : (string, int) Hashtbl.t;  (** strata of the balanced draws *)
}

let stream spec = { spec; next = 0; seen = Hashtbl.create 4096; counts = Hashtbl.create 64 }

let window = 8

let count st s = Option.value ~default:0 (Hashtbl.find_opt st.counts s)

let excess st strata =
  List.fold_left
    (fun acc group ->
      let least = List.fold_left (fun a s -> min a (count st s)) max_int group in
      List.fold_left
        (fun acc s -> if List.mem s group then acc + count st s - least else acc)
        acc strata)
    0 (Lazy.force groups)

let rec draw st =
  let r = nth st.spec st.next in
  st.next <- st.next + 1;
  let key = Service.Server.cache_key r in
  if Hashtbl.mem st.seen key then draw st
  else begin
    Hashtbl.add st.seen key ();
    r
  end

let draw_balanced st =
  let scored = List.init window (fun _ -> let r = draw st in (r, strata r)) in
  let best, strata =
    List.fold_left
      (fun ((_, bs) as best) ((_, s) as c) -> if excess st s < excess st bs then c else best)
      (List.hd scored) (List.tl scored)
  in
  List.iter (fun s -> Hashtbl.replace st.counts s (count st s + 1)) strata;
  best

let balanced spec n =
  let st = stream spec in
  Array.init n (fun _ -> draw_balanced st)

(* Every corpus program alone at its fixed size under each technique set
   and machine of the sequence (4 combinations), in the seed's order:
   restructuring these fills a memo with every nest the batches of
   [spec] are made of. *)
let prewarm_set spec =
  let want = 4 * List.length (Service.Traffic.corpus ()) in
  let spec = { spec with batch = 1; jitter = 0 } in
  let seen = Hashtbl.create 128 in
  let rec go i acc =
    if Hashtbl.length seen = want || i > 100 * want then List.rev acc
    else
      let r = nth spec i in
      let key = Service.Server.cache_key r in
      if Hashtbl.mem seen key then go (i + 1) acc
      else begin
        Hashtbl.add seen key ();
        go (i + 1) (r :: acc)
      end
  in
  Array.of_list (go 0 [])

(* a seeded index into a set of [n] requests, for the [i]-th job *)
let pick ~seed ~n i = Random.State.int (Random.State.make [| seed; 0x5eed; i |]) n
