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

type info = {
  i_name : string;
  i_help : string;
  i_key : string;
  i_value : string Atomic.t;
}

type histogram = {
  h_name : string;
  h_help : string;
  h_bounds : float array;  (* strictly increasing upper bounds *)
  h_mx : Mutex.t;
  h_counts : int array;  (* per bound, plus the implicit +Inf last *)
  mutable h_sum : float;
  mutable h_count : int;
}

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram
  | Info of info

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

let raise_gauge g v =
  let rec go () =
    let cur = Atomic.get g.g_cell in
    if v > cur && not (Atomic.compare_and_set g.g_cell cur v) then go ()
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

let info ?(help = "") t name ~key =
  get_or_create t name
    (fun () ->
      let i =
        { i_name = name; i_help = help; i_key = key; i_value = Atomic.make "" }
      in
      (Info i, i))
    (function Info i -> Some i | _ -> None)

let set_info i v = Atomic.set i.i_value v

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
      | Some (Histogram _ | Info _) | None -> `None)

(* ------------------------------------------------------------------ *)
(* The text format                                                     *)
(* ------------------------------------------------------------------ *)

type sample = { metric : string; labels : (string * string) list; value : string }
type family = { name : string; kind : string; help : string; samples : sample list }

(* %.17g-style float printing would be noisy; %g keeps dumps readable
   and round-trips the magnitudes we record (counts and seconds) *)
let fstr v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let sample ?(labels = []) metric value = { metric; labels; value }

let family_of = function
  | Counter c ->
      let v = string_of_int (Atomic.get c.c_cell) in
      { name = c.c_name; kind = "counter"; help = c.c_help; samples = [ sample c.c_name v ] }
  | Gauge g ->
      let v = fstr (Atomic.get g.g_cell) in
      { name = g.g_name; kind = "gauge"; help = g.g_help; samples = [ sample g.g_name v ] }
  | Info i ->
      let labels = [ (i.i_key, Atomic.get i.i_value) ] in
      { name = i.i_name; kind = "gauge"; help = i.i_help; samples = [ sample ~labels i.i_name "1" ] }
  | Histogram h ->
      let bucket le n = sample ~labels:[ ("le", le) ] (h.h_name ^ "_bucket") (string_of_int n) in
      Mutex.lock h.h_mx;
      let cum = ref 0 in
      let buckets =
        List.mapi
          (fun i bound ->
            cum := !cum + h.h_counts.(i);
            bucket (fstr bound) !cum)
          (Array.to_list h.h_bounds)
      in
      let samples =
        buckets
        @ [ bucket "+Inf" h.h_count; sample (h.h_name ^ "_sum") (fstr h.h_sum);
            sample (h.h_name ^ "_count") (string_of_int h.h_count) ]
      in
      Mutex.unlock h.h_mx;
      { name = h.h_name; kind = "histogram"; help = h.h_help; samples }

let families t =
  with_lock t (fun () -> Hashtbl.fold (fun _ m acc -> m :: acc) t.tbl [])
  |> List.map family_of
  |> List.sort (fun a b -> compare a.name b.name)

(* a label value is quoted, its backslashes, quotes and newlines escaped *)
let label (k, v) =
  let esc = function '\\' -> "\\\\" | '"' -> "\\\"" | '\n' -> "\\n" | c -> String.make 1 c in
  Printf.sprintf "%s=\"%s\"" k (String.concat "" (List.map esc (List.of_seq (String.to_seq v))))

let print fams =
  let b = Buffer.create 4096 in
  List.iter
    (fun name ->
      let same = List.filter (fun f -> f.name = name) fams in
      List.find_opt (fun f -> f.help <> "") same
      |> Option.iter (fun f -> Printf.bprintf b "# HELP %s %s\n" name f.help);
      Printf.bprintf b "# TYPE %s %s\n" name (List.hd same).kind;
      List.iter
        (fun f ->
          List.iter
            (fun s ->
              let labels = List.map label s.labels in
              if labels = [] then Printf.bprintf b "%s %s\n" s.metric s.value
              else Printf.bprintf b "%s{%s} %s\n" s.metric (String.concat "," labels) s.value)
            f.samples)
        same)
    (List.sort_uniq compare (List.map (fun f -> f.name) fams));
  Buffer.contents b

let dump t = print (families t)

(* [metric value] or [metric{k="v",...} value]; a quoted label value
   reads as an OCaml string literal, whose escapes include ours *)
let parse_sample line =
  let sample metric labels rest =
    match String.trim rest with "" -> None | value -> Some { metric; labels; value }
  in
  let rec labels metric acc rest =
    match Scanf.sscanf_opt rest "%[^=]=%S%c%[^\n]" (fun k v c r -> (k, v, c, r)) with
    | Some (k, v, ',', r) -> labels metric ((k, v) :: acc) r
    | Some (k, v, '}', r) when r <> "" && r.[0] = ' ' -> sample metric (List.rev ((k, v) :: acc)) r
    | _ -> None
  in
  let after i = String.sub line (i + 1) (String.length line - i - 1) in
  match (String.index_opt line '{', String.index_opt line ' ') with
  | Some i, Some j when i < j -> labels (String.sub line 0 i) [] (after i)
  | _, Some j when j > 0 -> sample (String.sub line 0 j) [] (after j)
  | _ -> None

let parse text =
  let step (fams, help) line =
    match (String.split_on_char ' ' line, fams) with
    | "#" :: "HELP" :: name :: words, _ -> (fams, (name, String.concat " " words))
    | [ "#"; "TYPE"; name; kind ], _ ->
        let help = if fst help = name then snd help else "" in
        ({ name; kind; help; samples = [] } :: fams, ("", ""))
    | ("#" :: _ | [ "" ]), _ | _, [] -> (fams, help)
    | _, f :: rest -> (
        match parse_sample line with
        | Some s -> ({ f with samples = s :: f.samples } :: rest, help)
        | None -> (fams, help))
  in
  fst (List.fold_left step ([], ("", "")) (String.split_on_char '\n' text))
  |> List.rev_map (fun f -> { f with samples = List.rev f.samples })

(* [dump]'s text as JSON, one object per family.  The samples of each
   label set ([le] aside) give a value, or a histogram's count, sum and
   per-bucket counts (its [+Inf] bucket is its count): the bare set's
   fields sit in the object, each labelled set's in a "series" entry. *)
let json_of_dump text =
  let item f =
    let set s = List.remove_assoc "le" s.labels in
    let fields labels =
      let ss = List.filter (fun s -> set s = labels) f.samples in
      let find m = List.find_map (fun s -> if s.metric = m then Some s.value else None) ss in
      if f.kind <> "histogram" then Option.map (Printf.sprintf {|"value":%s|}) (find f.name)
      else
        let cum = ref 0 in
        let bucket s =
          match (List.assoc_opt "le" s.labels, int_of_string_opt s.value) with
          | Some le, Some n when s.metric = f.name ^ "_bucket" && le <> "+Inf" ->
              let per = n - !cum in
              cum := n;
              Some (Printf.sprintf {|{"le":%s,"n":%d}|} le per)
          | _ -> None
        in
        let buckets = String.concat "," (List.filter_map bucket ss) in
        find (f.name ^ "_count")
        |> Option.map (fun n ->
               Printf.sprintf {|"count":%s,"sum":%s,"buckets":[%s]|} n
                 (Option.value ~default:"" (find (f.name ^ "_sum"))) buckets)
    in
    let json (k, v) = Printf.sprintf {|"%s":"%s"|} (Trace.json_escape k) (Trace.json_escape v) in
    let entry labels x =
      if labels = [] then "," ^ x
      else Printf.sprintf {|{"labels":{%s},%s}|} (String.concat "," (List.map json labels)) x
    in
    let sets = List.fold_left (fun acc s -> if List.mem (set s) acc then acc else set s :: acc) [] f.samples in
    let own, series =
      List.filter_map (fun l -> Option.map (fun x -> (l, entry l x)) (fields l)) (List.rev sets)
      |> List.partition (fun (l, _) -> l = [])
    in
    if own = [] && series = [] then None
    else
      Some
        (Printf.sprintf {|"%s":{"type":"%s"%s%s}|} f.name f.kind
           (String.concat "" (List.map snd own))
           (if series = [] then ""
            else {|,"series":[|} ^ String.concat "," (List.map snd series) ^ "]"))
  in
  "{" ^ String.concat "," (List.filter_map item (parse text)) ^ "}"

let reset t =
  with_lock t (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | Counter c -> Atomic.set c.c_cell 0
          | Gauge g -> Atomic.set g.g_cell 0.0
          | Info i -> Atomic.set i.i_value ""
          | Histogram h ->
              Mutex.lock h.h_mx;
              Array.fill h.h_counts 0 (Array.length h.h_counts) 0;
              h.h_sum <- 0.0;
              h.h_count <- 0;
              Mutex.unlock h.h_mx)
        t.tbl)
