(* Observability suite: the span tracer (nesting, attribute/counter
   semantics, trace-id propagation, concurrent-domain isolation, Chrome
   export) and the metrics registry (get-or-create identity, atomic
   merging across domains, exposition formats).

   The tracer is an ambient process-wide singleton, so every test that
   installs one restores [Obs.Trace.disabled] in a [Fun.protect];
   metrics tests use private registries ([Obs.Metrics.create]) so they
   never collide with the instrumented library code. *)

module T = Obs.Trace
module M = Obs.Metrics

let with_tracer t f =
  T.install t;
  Fun.protect ~finally:(fun () -> T.install T.disabled) (fun () -> f ())

let names trees = List.map (fun tr -> tr.T.t_name) trees

let one_root t =
  match T.roots t with
  | [ r ] -> r
  | rs -> Alcotest.failf "expected 1 root, got %d" (List.length rs)

(* ------------------------------------------------------------------ *)
(* A tiny JSON reader, enough to re-check our own emitters             *)
(* ------------------------------------------------------------------ *)

type json =
  | J_null
  | J_bool of bool
  | J_num of float
  | J_str of string
  | J_arr of json list
  | J_obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let fail m = raise (Bad_json (Printf.sprintf "%s at offset %d" m !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        incr pos;
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = Some c then incr pos
    else fail (Printf.sprintf "expected %c" c)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> incr pos
      | Some '\\' -> (
          incr pos;
          match peek () with
          | Some 'n' -> Buffer.add_char b '\n'; incr pos; go ()
          | Some 'r' -> Buffer.add_char b '\r'; incr pos; go ()
          | Some 't' -> Buffer.add_char b '\t'; incr pos; go ()
          | Some 'u' ->
              (* decoded value irrelevant to the tests: skip the 4 digits *)
              pos := !pos + 5;
              Buffer.add_char b '?';
              go ()
          | Some c -> Buffer.add_char b c; incr pos; go ()
          | None -> fail "truncated escape")
      | Some c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin incr pos; J_obj [] end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos; members ((k, v) :: acc)
            | Some '}' -> incr pos; List.rev ((k, v) :: acc)
            | _ -> fail "expected , or }"
          in
          J_obj (members [])
        end
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin incr pos; J_arr [] end
        else begin
          let rec elems acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos; elems (v :: acc)
            | Some ']' -> incr pos; List.rev (v :: acc)
            | _ -> fail "expected , or ]"
          in
          J_arr (elems [])
        end
    | Some '"' -> J_str (parse_string ())
    | Some 't' -> pos := !pos + 4; J_bool true
    | Some 'f' -> pos := !pos + 5; J_bool false
    | Some 'n' -> pos := !pos + 4; J_null
    | Some ('-' | '0' .. '9') ->
        let start = !pos in
        let num_char = function
          | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
          | _ -> false
        in
        while (match peek () with Some c -> num_char c | None -> false) do
          incr pos
        done;
        let lit = String.sub s start (!pos - start) in
        (try J_num (float_of_string lit)
         with _ -> fail ("bad number " ^ lit))
    | _ -> fail "unexpected character"
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let obj_field name = function
  | J_obj fields -> List.assoc_opt name fields
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Tracer                                                              *)
(* ------------------------------------------------------------------ *)

let test_disabled_noop () =
  T.install T.disabled;
  Alcotest.(check bool) "disabled by default" false (T.enabled ());
  let r =
    T.with_span "outer" (fun sp ->
        T.attr sp "k" "v";
        T.count sp "n" 3;
        T.with_span "inner" (fun _ -> 41) + 1)
  in
  Alcotest.(check int) "body value returned" 42 r;
  T.completed ~start_s:0.0 ~stop_s:1.0 "ghost";
  (* nothing observable happened: a fresh memory tracer installed after
     the fact has seen no spans *)
  let m = T.memory () in
  Alcotest.(check int) "no spans recorded" 0 (List.length (T.roots m))

let test_enabled_flag () =
  with_tracer (T.memory ()) (fun () ->
      Alcotest.(check bool) "memory tracer enables" true (T.enabled ()));
  Alcotest.(check bool) "restored to disabled" false (T.enabled ())

let test_nesting_and_order () =
  let m = T.memory () in
  with_tracer m (fun () ->
      T.with_span "root" (fun _ ->
          T.with_span "b" (fun _ -> T.with_span "d" (fun _ -> ()));
          T.with_span "c" (fun _ -> ())));
  let r = one_root m in
  Alcotest.(check string) "root name" "root" r.T.t_name;
  Alcotest.(check (list string)) "children in completion order" [ "b"; "c" ]
    (names r.T.t_children);
  let b = List.hd r.T.t_children in
  Alcotest.(check (list string)) "grandchild under b" [ "d" ]
    (names b.T.t_children);
  Alcotest.(check bool) "timestamps nest" true
    (r.T.t_start_s <= b.T.t_start_s && b.T.t_stop_s <= r.T.t_stop_s)

let test_roots_oldest_first () =
  let m = T.memory () in
  with_tracer m (fun () ->
      T.with_span "first" (fun _ -> ());
      T.with_span "second" (fun _ -> ()));
  Alcotest.(check (list string)) "oldest first" [ "first"; "second" ]
    (names (T.roots m))

let test_attrs_and_counts () =
  let m = T.memory () in
  with_tracer m (fun () ->
      T.with_span ~attrs:[ ("from", "open"); ("k", "old") ] "s" (fun sp ->
          T.attr sp "k" "new";
          T.count sp "n" 2;
          T.count sp "n" 3;
          T.count sp "other" 1));
  let r = one_root m in
  Alcotest.(check (option string)) "open-time attr kept" (Some "open")
    (List.assoc_opt "from" r.T.t_attrs);
  Alcotest.(check (option string)) "attr replaced, not duplicated"
    (Some "new")
    (List.assoc_opt "k" r.T.t_attrs);
  Alcotest.(check int) "one binding per attr key" 2
    (List.length r.T.t_attrs);
  Alcotest.(check (option int)) "counter accumulates" (Some 5)
    (List.assoc_opt "n" r.T.t_counts);
  Alcotest.(check (option int)) "second counter" (Some 1)
    (List.assoc_opt "other" r.T.t_counts)

let test_span_survives_exception () =
  let m = T.memory () in
  with_tracer m (fun () ->
      try
        T.with_span "failing" (fun _ ->
            T.with_span "child" (fun _ -> ());
            failwith "boom")
      with Failure _ -> ());
  let r = one_root m in
  Alcotest.(check string) "span closed on raise" "failing" r.T.t_name;
  Alcotest.(check (list string)) "child kept" [ "child" ]
    (names r.T.t_children)

let test_completed_child () =
  let m = T.memory () in
  with_tracer m (fun () ->
      T.with_span "job" (fun _ ->
          T.completed ~attrs:[ ("why", "queue") ] ~start_s:10.0 ~stop_s:10.5
            "queue_wait"));
  let r = one_root m in
  match r.T.t_children with
  | [ q ] ->
      Alcotest.(check string) "name" "queue_wait" q.T.t_name;
      Alcotest.(check (float 1e-9)) "explicit start" 10.0 q.T.t_start_s;
      Alcotest.(check (float 1e-9)) "explicit stop" 10.5 q.T.t_stop_s;
      Alcotest.(check (option string)) "attrs kept" (Some "queue")
        (List.assoc_opt "why" q.T.t_attrs)
  | l -> Alcotest.failf "expected 1 child, got %d" (List.length l)

let test_trace_ids () =
  Alcotest.(check int) "no ambient trace id" 0 (T.current_trace_id ());
  let id1 = T.fresh_trace_id () and id2 = T.fresh_trace_id () in
  Alcotest.(check bool) "ids positive" true (id1 > 0 && id2 > 0);
  Alcotest.(check bool) "ids distinct" true (id1 <> id2);
  let m = T.memory () in
  with_tracer m (fun () ->
      T.with_trace_id id1 (fun () ->
          Alcotest.(check int) "ambient id set" id1 (T.current_trace_id ());
          T.with_span "traced" (fun _ -> ()));
      Alcotest.(check int) "id restored" 0 (T.current_trace_id ());
      T.with_span "untraced" (fun _ -> ()));
  match T.roots m with
  | [ a; b ] ->
      Alcotest.(check int) "span carries trace id" id1 a.T.t_trace;
      Alcotest.(check int) "outside spans carry 0" 0 b.T.t_trace
  | l -> Alcotest.failf "expected 2 roots, got %d" (List.length l)

let test_open_spans_keep_their_tracer () =
  (* a span opened under tracer A delivers to A even if B is installed
     before it closes; its children follow the parent, not the ambient
     tracer *)
  let a = T.memory () and b = T.memory () in
  T.install a;
  Fun.protect
    ~finally:(fun () -> T.install T.disabled)
    (fun () ->
      T.with_span "root" (fun _ ->
          T.install b;
          T.with_span "child" (fun _ -> ())));
  Alcotest.(check (list string)) "root (with child) delivered to A"
    [ "root" ] (names (T.roots a));
  Alcotest.(check (list string)) "child nested under A's root" [ "child" ]
    (names (one_root a).T.t_children);
  Alcotest.(check int) "B saw nothing" 0 (List.length (T.roots b))

let test_find_spans_preorder () =
  let m = T.memory () in
  with_tracer m (fun () ->
      T.with_span "loop" (fun _ ->
          T.with_span "analyze" (fun _ -> ());
          T.with_span "loop" (fun _ -> T.with_span "analyze" (fun _ -> ()))));
  let forest = T.roots m in
  Alcotest.(check int) "two loop spans" 2
    (List.length (T.find_spans (fun t -> t.T.t_name = "loop") forest));
  Alcotest.(check (list string)) "preorder"
    [ "loop"; "analyze"; "loop"; "analyze" ]
    (names (T.find_spans (fun _ -> true) forest))

let test_concurrent_domains_do_not_interleave () =
  (* two domains build nested spans concurrently; every root must keep
     only its own domain's children — per-domain stacks never mix *)
  let m = T.memory () in
  let rounds = 200 in
  with_tracer m (fun () ->
      let worker k () =
        for i = 1 to rounds do
          T.with_span
            (Printf.sprintf "w%d-root" k)
            (fun sp ->
              T.count sp "i" i;
              T.with_span (Printf.sprintf "w%d-child" k) (fun _ -> ()))
        done
      in
      let d1 = Domain.spawn (worker 1) and d2 = Domain.spawn (worker 2) in
      Domain.join d1;
      Domain.join d2);
  let forest = T.roots m in
  Alcotest.(check int) "all roots delivered" (2 * rounds)
    (List.length forest);
  List.iter
    (fun r ->
      let prefix = String.sub r.T.t_name 0 2 in
      Alcotest.(check int)
        (r.T.t_name ^ " has its own child")
        1
        (List.length r.T.t_children);
      let c = List.hd r.T.t_children in
      Alcotest.(check string)
        (r.T.t_name ^ " child from same worker")
        (prefix ^ "-child") c.T.t_name;
      Alcotest.(check int)
        (r.T.t_name ^ " child ran on the same domain")
        r.T.t_domain c.T.t_domain)
    forest

let test_chrome_json_wellformed () =
  let path = Filename.temp_file "cedar_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let tr = T.chrome ~path in
      let id = T.fresh_trace_id () in
      with_tracer tr (fun () ->
          T.with_trace_id id (fun () ->
              T.with_span ~attrs:[ ("name", "CG\"quoted\"") ] "job" (fun sp ->
                  T.count sp "versions" 2;
                  T.with_span "attempt" (fun _ -> ()))));
      T.flush tr;
      let ic = open_in_bin path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let j =
        try parse_json text
        with Bad_json m -> Alcotest.failf "trace file is not JSON: %s" m
      in
      let events =
        match obj_field "traceEvents" j with
        | Some (J_arr evs) -> evs
        | _ -> Alcotest.fail "missing traceEvents array"
      in
      Alcotest.(check int) "both spans emitted" 2 (List.length events);
      let num field ev =
        match obj_field field ev with
        | Some (J_num v) -> v
        | _ -> Alcotest.failf "event missing numeric %s" field
      in
      List.iter
        (fun ev ->
          (match obj_field "ph" ev with
          | Some (J_str "X") -> ()
          | _ -> Alcotest.fail "expected complete (X) events");
          Alcotest.(check bool) "ts/dur non-negative" true
            (num "ts" ev >= 0.0 && num "dur" ev >= 0.0);
          match obj_field "args" ev with
          | Some (J_obj args) ->
              Alcotest.(check (option bool)) "args carry the trace id"
                (Some true)
                (Option.map (( = ) (J_num (float_of_int id)))
                   (List.assoc_opt "trace" args))
          | _ -> Alcotest.fail "event missing args")
        events;
      let job =
        List.find
          (fun ev -> obj_field "name" ev = Some (J_str "job"))
          events
      in
      let attempt =
        List.find
          (fun ev -> obj_field "name" ev = Some (J_str "attempt"))
          events
      in
      (match obj_field "args" job with
      | Some (J_obj args) ->
          Alcotest.(check (option bool)) "escaped attr round-trips"
            (Some true)
            (Option.map
               (( = ) (J_str "CG\"quoted\""))
               (List.assoc_opt "name" args));
          Alcotest.(check (option bool)) "counter emitted as number"
            (Some true)
            (Option.map (( = ) (J_num 2.0)) (List.assoc_opt "versions" args))
      | _ -> Alcotest.fail "job missing args");
      Alcotest.(check bool) "child interval inside parent" true
        (num "ts" attempt >= num "ts" job
        && num "ts" attempt +. num "dur" attempt
           <= num "ts" job +. num "dur" job +. 1.0))

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_counter_get_or_create () =
  let r = M.create () in
  let a = M.counter r "requests_total" in
  let b = M.counter r "requests_total" in
  M.incr a;
  M.incr ~by:2 b;
  Alcotest.(check int) "same instrument behind the name" 3 (M.counter_value a);
  Alcotest.(check int) "visible through both handles" 3 (M.counter_value b)

let test_counter_children () =
  (* two instances counting into one registry total *)
  let r = M.create () in
  let total = M.counter r "jobs_total" in
  let a = M.child total and b = M.child total in
  M.incr a;
  M.incr ~by:2 b;
  M.incr ~by:4 a;
  Alcotest.(check int) "a reads only its own increments" 5 (M.counter_value a);
  Alcotest.(check int) "b reads only its own increments" 2 (M.counter_value b);
  Alcotest.(check int) "the parent reads the sum" 7 (M.counter_value total);
  (match M.find r "jobs_total" with
  | `Counter 7 -> ()
  | _ -> Alcotest.fail "find reads the sum");
  let samples =
    String.split_on_char '\n' (M.dump r)
    |> List.filter (fun l -> String.starts_with ~prefix:"jobs_total " l)
  in
  Alcotest.(check (list string)) "dump shows the name once"
    [ "jobs_total 7" ] samples;
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    M.incr a
  done;
  Alcotest.(check bool) "incr allocates nothing" true
    (Gc.minor_words () -. w0 < 100.0)

let test_type_clash_rejected () =
  let r = M.create () in
  ignore (M.counter r "x");
  (match M.gauge r "x" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "counter name reused as gauge");
  match M.histogram r "x" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "counter name reused as histogram"

let test_gauge_ops () =
  let r = M.create () in
  let g = M.gauge r "depth" in
  M.set_gauge g 4.0;
  M.add_gauge g 1.5;
  M.add_gauge g (-2.0);
  Alcotest.(check (float 1e-9)) "set/add" 3.5 (M.gauge_value g)

let test_histogram_buckets () =
  let r = M.create () in
  let h = M.histogram ~buckets:[ 0.1; 1.0 ] r "latency_seconds" in
  List.iter (M.observe h) [ 0.05; 0.5; 5.0 ];
  Alcotest.(check int) "count" 3 (M.histogram_count h);
  Alcotest.(check (float 1e-9)) "sum" 5.55 (M.histogram_sum h);
  let dump = M.dump r in
  let has needle =
    let nl = String.length needle and tl = String.length dump in
    let rec go i =
      i + nl <= tl && (String.sub dump i nl = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "TYPE line" true
    (has "# TYPE latency_seconds histogram");
  Alcotest.(check bool) "first bucket cumulative" true
    (has "latency_seconds_bucket{le=\"0.1\"} 1");
  Alcotest.(check bool) "second bucket cumulative" true
    (has "latency_seconds_bucket{le=\"1\"} 2");
  Alcotest.(check bool) "+Inf bucket equals count" true
    (has "latency_seconds_bucket{le=\"+Inf\"} 3");
  Alcotest.(check bool) "sum sample" true (has "latency_seconds_sum 5.55");
  Alcotest.(check bool) "count sample" true (has "latency_seconds_count 3")

let test_aio_metrics_in_global_dump () =
  (* the fiber scheduler instruments itself into the global registry:
     after any loop runs, the Prometheus dump must carry the live-fiber
     gauge, the wakeup counter and the ready-queue-depth histogram *)
  let before =
    match M.find M.global "aio_wakeups_total" with
    | `Counter c -> c
    | _ -> 0
  in
  let sched = Aio.create () in
  Aio.run sched (fun () ->
      let fibers =
        List.init 4 (fun _ ->
            Aio.spawn (fun () ->
                Aio.yield ();
                Aio.sleep 0.001))
      in
      Aio.yield ();
      List.iter (fun f -> ignore (Aio.is_done f)) fibers);
  let dump = M.dump M.global in
  let has needle =
    let nl = String.length needle and tl = String.length dump in
    let rec go i =
      i + nl <= tl && (String.sub dump i nl = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "live-fiber gauge dumped" true (has "aio_fibers_live");
  Alcotest.(check bool) "all fibers accounted done" true
    (has "aio_fibers_live 0");
  Alcotest.(check bool) "wakeup counter dumped" true (has "aio_wakeups_total");
  Alcotest.(check bool) "depth histogram dumped" true
    (has "# TYPE aio_ready_queue_depth histogram");
  Alcotest.(check bool) "depth histogram has buckets" true
    (has "aio_ready_queue_depth_bucket{le=\"+Inf\"}");
  let after =
    match M.find M.global "aio_wakeups_total" with
    | `Counter c -> c
    | _ -> -1
  in
  Alcotest.(check bool) "wakeups advanced by the loop" true (after > before)

let test_metrics_merge_across_domains () =
  let r = M.create () in
  let c = M.counter r "hits_total" in
  let g = M.gauge r "level" in
  let per_domain = 20_000 and domains = 4 in
  let worker () =
    for _ = 1 to per_domain do
      M.incr c;
      M.add_gauge g 1.0
    done
  in
  let ds = List.init domains (fun _ -> Domain.spawn worker) in
  List.iter Domain.join ds;
  Alcotest.(check int) "no lost counter increments" (domains * per_domain)
    (M.counter_value c);
  Alcotest.(check (float 1e-6)) "no lost gauge adds"
    (float_of_int (domains * per_domain))
    (M.gauge_value g)

let test_find_and_reset () =
  let r = M.create () in
  let c = M.counter r "c" and g = M.gauge r "g" in
  ignore (M.histogram r "h");
  M.incr ~by:7 c;
  M.set_gauge g 2.5;
  (match M.find r "c" with
  | `Counter 7 -> ()
  | _ -> Alcotest.fail "find counter");
  (match M.find r "g" with
  | `Gauge v -> Alcotest.(check (float 1e-9)) "gauge read" 2.5 v
  | _ -> Alcotest.fail "find gauge");
  (match M.find r "h" with
  | `None -> ()
  | _ -> Alcotest.fail "histograms have no point read");
  (match M.find r "missing" with
  | `None -> ()
  | _ -> Alcotest.fail "missing name");
  M.reset r;
  match M.find r "c" with
  | `Counter 0 -> ()
  | _ -> Alcotest.fail "reset keeps the counter registered at zero"

let test_dump_sorted_with_help () =
  let r = M.create () in
  ignore (M.counter ~help:"b help" r "bbb");
  ignore (M.counter r "aaa");
  let dump = M.dump r in
  let idx needle =
    let nl = String.length needle and tl = String.length dump in
    let rec go i =
      if i + nl > tl then -1
      else if String.sub dump i nl = needle then i
      else go (i + 1)
    in
    go 0
  in
  Alcotest.(check bool) "both stanzas present" true
    (idx "# TYPE aaa counter" >= 0 && idx "# TYPE bbb counter" >= 0);
  Alcotest.(check bool) "sorted by name" true
    (idx "# TYPE aaa counter" < idx "# TYPE bbb counter");
  Alcotest.(check bool) "help line kept" true (idx "# HELP bbb b help" >= 0)

let test_metrics_json_roundtrip () =
  let r = M.create () in
  M.incr ~by:3 (M.counter r "jobs_total");
  M.set_gauge (M.gauge r "queue_depth") 2.0;
  M.observe (M.histogram ~buckets:[ 1.0 ] r "seconds") 0.5;
  let j =
    try parse_json (M.json_of_dump (M.dump r))
    with Bad_json m -> Alcotest.failf "json_of_dump output invalid: %s" m
  in
  (match obj_field "jobs_total" j with
  | Some o ->
      Alcotest.(check bool) "counter value" true
        (obj_field "value" o = Some (J_num 3.0))
  | None -> Alcotest.fail "missing counter entry");
  (match obj_field "queue_depth" j with
  | Some o ->
      Alcotest.(check bool) "gauge value" true
        (obj_field "value" o = Some (J_num 2.0))
  | None -> Alcotest.fail "missing gauge entry");
  match obj_field "seconds" j with
  | Some o -> (
      Alcotest.(check bool) "histogram count" true
        (obj_field "count" o = Some (J_num 1.0));
      match obj_field "buckets" o with
      | Some (J_arr [ b ]) ->
          Alcotest.(check bool) "bucket object" true
            (obj_field "le" b = Some (J_num 1.0)
            && obj_field "n" b = Some (J_num 1.0))
      | _ -> Alcotest.fail "expected one bucket")
  | None -> Alcotest.fail "missing histogram entry"

(* ------------------------------------------------------------------ *)
(* Driver decisions vs. spans                                          *)
(* ------------------------------------------------------------------ *)

(* every instrument kind, with HELP lines (left out of the JSON) and a
   histogram whose cumulative and per-bucket counts differ *)
let test_metrics_json_pinned () =
  let r = M.create () in
  M.incr ~by:3 (M.counter ~help:"jobs run" r "jobs_total");
  M.set_gauge (M.gauge ~help:"jobs waiting" r "queue_depth") 2.5;
  let h = M.histogram ~help:"job latency" ~buckets:[ 0.1; 1.0 ] r "seconds" in
  List.iter (M.observe h) [ 0.05; 0.5; 0.75; 3.0 ];
  Alcotest.(check string) "json_of_dump (dump r)"
    ({|{"jobs_total":{"type":"counter","value":3},|}
    ^ {|"queue_depth":{"type":"gauge","value":2.5},|}
    ^ {|"seconds":{"type":"histogram","count":4,"sum":4.3,|}
    ^ {|"buckets":[{"le":0.1,"n":1},{"le":1,"n":2}]}}|})
    (M.json_of_dump (M.dump r))

let interesting decision =
  decision = "parallelized"
  || String.length decision >= 7
     && String.sub decision 0 7 = "demoted"

(* every "parallelized"/"demoted ..." note in the driver's report list
   must correspond to a "loop" span for the same nest whose "decision"
   attribute is one of those verdicts (a loop first parallelized and
   then demoted by the validator leaves two reports but one span,
   stamped with the final verdict); conversely every stamped loop span
   must quote a report verbatim *)
let prop_decisions_have_spans =
  let corpus = Array.of_list (Service.Traffic.corpus ()) in
  QCheck.Test.make ~name:"every decision note has a matching loop span"
    ~count:12
    (QCheck.make
       ~print:(fun (i, adv) ->
         Printf.sprintf "%s/%s" corpus.(i).Workloads.Workload.name
           (if adv then "advanced" else "auto"))
       QCheck.Gen.(pair (int_bound (Array.length corpus - 1)) bool))
    (fun (i, adv) ->
      let w = corpus.(i) in
      let prog =
        Fortran.Parser.parse_program
          (w.Workloads.Workload.source w.Workloads.Workload.small_size)
      in
      let cedar = Machine.Config.cedar_config1 in
      let opts =
        let base =
          if adv then Restructurer.Options.advanced cedar
          else Restructurer.Options.auto_1991 cedar
        in
        { base with Restructurer.Options.validate = true }
      in
      let m = T.memory () in
      let result =
        with_tracer m (fun () -> Restructurer.Driver.restructure opts prog)
      in
      let loops =
        T.find_spans (fun t -> t.T.t_name = "loop") (T.roots m)
      in
      let span_tuples =
        List.filter_map
          (fun t ->
            match List.assoc_opt "decision" t.T.t_attrs with
            | Some d when interesting d ->
                Some
                  ( Option.value ~default:"" (List.assoc_opt "unit" t.T.t_attrs),
                    Option.value ~default:"" (List.assoc_opt "index" t.T.t_attrs),
                    Option.value ~default:"" (List.assoc_opt "depth" t.T.t_attrs)
                  )
            | _ -> None)
          loops
      in
      let all_reports = result.Restructurer.Driver.reports in
      List.for_all
        (fun (r : Restructurer.Driver.loop_report) ->
          (not (interesting r.Restructurer.Driver.r_decision))
          || List.mem
               ( r.Restructurer.Driver.r_unit,
                 r.Restructurer.Driver.r_index,
                 string_of_int r.Restructurer.Driver.r_depth )
               span_tuples)
        all_reports
      && List.for_all
           (fun t ->
             match List.assoc_opt "decision" t.T.t_attrs with
             | None -> true
             | Some d ->
                 List.exists
                   (fun (r : Restructurer.Driver.loop_report) ->
                     r.Restructurer.Driver.r_decision = d
                     && Some r.Restructurer.Driver.r_index
                        = List.assoc_opt "index" t.T.t_attrs
                     && Some (string_of_int r.Restructurer.Driver.r_depth)
                        = List.assoc_opt "depth" t.T.t_attrs)
                   all_reports)
           loops)

let tests =
  [
    Alcotest.test_case "trace: disabled tracer is a no-op" `Quick
      test_disabled_noop;
    Alcotest.test_case "trace: enabled flag follows install" `Quick
      test_enabled_flag;
    Alcotest.test_case "trace: spans nest in completion order" `Quick
      test_nesting_and_order;
    Alcotest.test_case "trace: roots oldest first" `Quick
      test_roots_oldest_first;
    Alcotest.test_case "trace: attrs replace, counts accumulate" `Quick
      test_attrs_and_counts;
    Alcotest.test_case "trace: span closes when the body raises" `Quick
      test_span_survives_exception;
    Alcotest.test_case "trace: completed records explicit bounds" `Quick
      test_completed_child;
    Alcotest.test_case "trace: trace ids propagate and restore" `Quick
      test_trace_ids;
    Alcotest.test_case "trace: open spans keep their tracer" `Quick
      test_open_spans_keep_their_tracer;
    Alcotest.test_case "trace: find_spans walks preorder" `Quick
      test_find_spans_preorder;
    Alcotest.test_case "trace: concurrent domains never interleave" `Quick
      test_concurrent_domains_do_not_interleave;
    Alcotest.test_case "trace: chrome export is well-formed JSON" `Quick
      test_chrome_json_wellformed;
    Alcotest.test_case "metrics: get-or-create shares the instrument" `Quick
      test_counter_get_or_create;
    Alcotest.test_case "metrics: name/type clash rejected" `Quick
      test_type_clash_rejected;
    Alcotest.test_case "metrics: gauge set and add" `Quick test_gauge_ops;
    Alcotest.test_case "metrics: histogram buckets are cumulative" `Quick
      test_histogram_buckets;
    Alcotest.test_case "metrics: aio scheduler instruments in global dump"
      `Quick test_aio_metrics_in_global_dump;
    Alcotest.test_case "metrics: increments merge across domains" `Quick
      test_metrics_merge_across_domains;
    Alcotest.test_case "metrics: find and reset" `Quick test_find_and_reset;
    Alcotest.test_case "metrics: dump is sorted with help lines" `Quick
      test_dump_sorted_with_help;
    Alcotest.test_case "metrics: json_of_dump reparses" `Quick
      test_metrics_json_roundtrip;
    Alcotest.test_case "metrics: json_of_dump pinned" `Quick
      test_metrics_json_pinned;
    Alcotest.test_case "metrics: children count into their parent" `Quick
      test_counter_children;
    QCheck_alcotest.to_alcotest prop_decisions_have_spans;
  ]
