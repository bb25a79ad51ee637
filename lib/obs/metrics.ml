(* See metrics.mli.  The registry table is guarded by a mutex (creation
   is rare and lookups return the instrument handle, which callers keep);
   counter/gauge cells are atomics so domains merge increments without
   coordination; each histogram has its own small lock.  A child counter
   is never in the table: it reaches the registry through its parent. *)

type counter = {
  c_name : string;
  c_help : string;
  c_cell : int Atomic.t;
  c_parent : counter option;
}
type gauge = { g_name : string; g_help : string; g_cell : float Atomic.t }

type histogram = {
  h_name : string;
  h_help : string;
  h_bounds : float array;  (* strictly increasing upper bounds *)
  h_mx : Mutex.t;
  h_counts : int array;  (* per bound, plus the implicit +Inf last *)
  mutable h_sum : float;
  mutable h_count : int;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

type t = { mx : Mutex.t; tbl : (string, metric) Hashtbl.t }

let create () = { mx = Mutex.create (); tbl = Hashtbl.create 64 }
let global = create ()

let with_lock t f =
  Mutex.lock t.mx;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mx) f

let get_or_create t name mk classify =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.tbl name with
      | Some m -> (
          match classify m with
          | Some x -> x
          | None ->
              invalid_arg
                (Printf.sprintf "Metrics: %s already registered with another type"
                   name))
      | None ->
          let m, x = mk () in
          Hashtbl.replace t.tbl name m;
          x)

let counter ?(help = "") t name =
  get_or_create t name
    (fun () ->
      let c =
        { c_name = name; c_help = help; c_cell = Atomic.make 0; c_parent = None }
      in
      (Counter c, c))
    (function Counter c -> Some c | _ -> None)

let child parent = { parent with c_cell = Atomic.make 0; c_parent = Some parent }

(* a direct recursive add: a closure here would allocate per increment *)
let rec add c by =
  ignore (Atomic.fetch_and_add c.c_cell by);
  match c.c_parent with Some p -> add p by | None -> ()

let incr ?(by = 1) c = add c by
let counter_value c = Atomic.get c.c_cell

let gauge ?(help = "") t name =
  get_or_create t name
    (fun () ->
      let g = { g_name = name; g_help = help; g_cell = Atomic.make 0.0 } in
      (Gauge g, g))
    (function Gauge g -> Some g | _ -> None)

let set_gauge g v = Atomic.set g.g_cell v

let add_gauge g d =
  (* CAS loop: adds from racing domains must not be lost *)
  let rec go () =
    let cur = Atomic.get g.g_cell in
    if not (Atomic.compare_and_set g.g_cell cur (cur +. d)) then go ()
  in
  go ()

let gauge_value g = Atomic.get g.g_cell

let default_buckets =
  [ 0.0001; 0.0005; 0.001; 0.005; 0.01; 0.05; 0.1; 0.5; 1.0; 5.0; 10.0 ]

let histogram ?(help = "") ?(buckets = default_buckets) t name =
  let bounds = Array.of_list (List.sort_uniq compare buckets) in
  get_or_create t name
    (fun () ->
      let h =
        {
          h_name = name;
          h_help = help;
          h_bounds = bounds;
          h_mx = Mutex.create ();
          h_counts = Array.make (Array.length bounds + 1) 0;
          h_sum = 0.0;
          h_count = 0;
        }
      in
      (Histogram h, h))
    (function Histogram h -> Some h | _ -> None)

let observe h v =
  let rec slot i =
    if i >= Array.length h.h_bounds then i
    else if v <= h.h_bounds.(i) then i
    else slot (i + 1)
  in
  let i = slot 0 in
  Mutex.lock h.h_mx;
  h.h_counts.(i) <- h.h_counts.(i) + 1;
  h.h_sum <- h.h_sum +. v;
  h.h_count <- h.h_count + 1;
  Mutex.unlock h.h_mx

let histogram_count h =
  Mutex.lock h.h_mx;
  let n = h.h_count in
  Mutex.unlock h.h_mx;
  n

let histogram_sum h =
  Mutex.lock h.h_mx;
  let s = h.h_sum in
  Mutex.unlock h.h_mx;
  s

let find t name =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.tbl name with
      | Some (Counter c) -> `Counter (Atomic.get c.c_cell)
      | Some (Gauge g) -> `Gauge (Atomic.get g.g_cell)
      | Some (Histogram _) | None -> `None)

let sorted t =
  with_lock t (fun () ->
      Hashtbl.fold (fun _ m acc -> m :: acc) t.tbl []
      |> List.sort
           (let name = function
              | Counter c -> c.c_name
              | Gauge g -> g.g_name
              | Histogram h -> h.h_name
            in
            fun a b -> compare (name a) (name b)))

(* %.17g-style float printing would be noisy; %g keeps dumps readable
   and round-trips the magnitudes we record (counts and seconds) *)
let fstr v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let dump t =
  let b = Buffer.create 1024 in
  List.iter
    (fun m ->
      (match m with
      | Counter c ->
          if c.c_help <> "" then
            Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" c.c_name c.c_help);
          Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n" c.c_name);
          Buffer.add_string b
            (Printf.sprintf "%s %d\n" c.c_name (Atomic.get c.c_cell))
      | Gauge g ->
          if g.g_help <> "" then
            Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" g.g_name g.g_help);
          Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n" g.g_name);
          Buffer.add_string b
            (Printf.sprintf "%s %s\n" g.g_name (fstr (Atomic.get g.g_cell)))
      | Histogram h ->
          if h.h_help <> "" then
            Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" h.h_name h.h_help);
          Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" h.h_name);
          Mutex.lock h.h_mx;
          let cum = ref 0 in
          Array.iteri
            (fun i bound ->
              cum := !cum + h.h_counts.(i);
              Buffer.add_string b
                (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" h.h_name
                   (fstr bound) !cum))
            h.h_bounds;
          Buffer.add_string b
            (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" h.h_name h.h_count);
          Buffer.add_string b
            (Printf.sprintf "%s_sum %s\n" h.h_name (fstr h.h_sum));
          Buffer.add_string b
            (Printf.sprintf "%s_count %d\n" h.h_name h.h_count);
          Mutex.unlock h.h_mx))
    (sorted t);
  Buffer.contents b

(* [dump]'s text as JSON: a [# TYPE] line opens an instrument and its
   samples follow.  A histogram's cumulative bucket counts become
   per-bucket counts again, and its [+Inf] bucket is its count. *)
let json_of_dump text =
  let items = ref [] and name = ref "" and kind = ref "" in
  let buckets = ref [] and cum = ref 0 and sum = ref "" in
  let item fmt = Printf.ksprintf (fun s -> items := s :: !items) fmt in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ "#"; "TYPE"; n; k ] ->
          name := n;
          kind := k;
          buckets := [];
          cum := 0
      | [ sample; v ] when sample = !name ->
          item {|"%s":{"type":"%s","value":%s}|} !name !kind v
      | [ sample; v ] when sample = !name ^ "_sum" -> sum := v
      | [ sample; v ] when sample = !name ^ "_count" ->
          item {|"%s":{"type":"histogram","count":%s,"sum":%s,"buckets":[%s]}|}
            !name v !sum
            (String.concat "," (List.rev !buckets))
      | [ sample; v ] -> (
          let le = Scanf.sscanf_opt sample "%_s@{le=%S}%!" Fun.id in
          match (le, int_of_string_opt v) with
          | Some le, Some n when le <> "+Inf" ->
              let bucket = Printf.sprintf {|{"le":%s,"n":%d}|} le (n - !cum) in
              buckets := bucket :: !buckets;
              cum := n
          | _ -> ())
      | _ -> ())
    (String.split_on_char '\n' text);
  "{" ^ String.concat "," (List.rev !items) ^ "}"

let reset t =
  with_lock t (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | Counter c -> Atomic.set c.c_cell 0
          | Gauge g -> Atomic.set g.g_cell 0.0
          | Histogram h ->
              Mutex.lock h.h_mx;
              Array.fill h.h_counts 0 (Array.length h.h_counts) 0;
              h.h_sum <- 0.0;
              h.h_count <- 0;
              Mutex.unlock h.h_mx)
        t.tbl)
