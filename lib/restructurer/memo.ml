(** Nest-level memoization for the restructurer (the ROADMAP's "kill the
    hot-path tax").

    The driver's per-nest work — dependence analysis, technique
    recognition, cost-model ranking and the applied transformation — is a
    function of the nest itself plus a small slice of its context: the
    symbol-table rows of the names it touches, the interprocedural
    summaries of the routines it calls, the liveness of its names after
    the loop, the disequality facts over its names, and the options.  We
    write exactly that slice into a key and cache the finished statements
    together with the decision reports, in a bounded LRU shared across
    jobs, so a program that shares loop nests with any previously seen
    program skips straight to the answer instead of missing the
    whole-program cache.  The driver consults it for top-level nests
    only, so most lookups of unseen code are misses and a miss must stay
    cheap: the key text is written in one walk of the nest, looking each
    name's row up once, and the table's bookkeeping ([Lru]) is O(1).

    Byte-identity with an unmemoized run is the contract (test_memo pins
    it corpus-wide).  Three mechanisms carry it:

    - the key numbers names in the order its walk first meets them and
      ends with their sorted-rank permutation, so two nests that differ
      only by an order-preserving renaming share an entry; order
      preservation matters because name-keyed maps iterate
      alphabetically and their order shows up in emitted declaration
      lists;
    - fresh names ([Ast_utils.fresh_name]) are not stored as text: the
      entry records the (prefix, name) stream the transformation drew,
      and a replay re-draws the same stream from the live per-unit
      counter, then maps stored names to the re-drawn ones;
    - report strings interpolate symbol names, so a renamed replay
      rewrites them token-wise; names that collide with the fixed words
      of the report templates (or with a called routine) make the entry
      [exact]-only — it is served solely to nests with identical
      spelling.

    Entries are checksummed like the service result cache: a stored
    entry whose marshalled digest no longer matches is dropped and
    counted, never served. *)

open Fortran
module SSet = Ast_utils.SSet

(* ------------------------------------------------------------------ *)
(* Key normalization                                                   *)
(* ------------------------------------------------------------------ *)

(* Words that appear verbatim in driver / analysis / validator report
   templates ("scalar %s reused", "call %s is not pure", ...).  A data
   name equal to one of these could not be renamed in a stored report
   string without ambiguity, so such entries are served exact-only.  The
   match compiles to word compares, with no hashing per name. *)
let template_word = function
  (* driver blockers / decisions *)
  | "goto" | "in" | "body" | "i" | "o" | "is" | "equivalenced" | "unsafe"
  | "call" | "scalar" | "conditional" | "last" | "value" | "reused"
  | "reduction" | "not" | "recognized" | "induction" | "read" | "before"
  | "update" | "unrecognized" | "carried" | "array" | "dims" | "unknown"
  | "dep" | "library" | "substitution" | "vector" | "intrinsic" | "two"
  | "version" | "run" | "time" | "test" | "serial" | "cost" | "model"
  | "parallelized" | "doacross" | "unprofitable" | "sync" | "distributed"
  | "loop" | "distribution" | "blocked" | "demoted" | "validator"
  (* vectorize failures *)
  | "has" | "non" | "unit" | "stride" | "assigned" | "to" | "cannot"
  | "vectorize"
  (* validator issues *)
  | "no" | "summary" | "pure" | "written" | "the" | "parallel" | "but"
  | "privatized" | "dependences" | "await" | "delay" | "factor"
  | "constant" | "must" | "have" | "arguments" | "sequence" | "placed"
  | "after" | "first" | "dependence" | "sink" | "advance" | "source"
  | "unsynchronized" | "distance" | "on" | "preamble" | "postamble"
  | "flow" | "anti" | "output" | "line" ->
      true
  | _ -> false

(* Fresh-name prefixes that are literals in the transforms rather than
   derived from a symbol name (stripmine, reduction_par, recurrence_sub). *)
let literal_prefixes = [ "i3_"; "iup_"; "mx_"; "jr_" ]

(* ------------------------------------------------------------------ *)
(* Canonical serialization (the key text)                              *)
(* ------------------------------------------------------------------ *)

(* One data name of the nest: its number is its position in the order
   the key's walk first met it, and its symbol row and PARAMETER value
   are looked up then, once. *)
type slot = {
  name : string;
  row : Symbols.sym option;
  param : Ast.expr option;
}

module STbl = Hashtbl.Make (String)

type ser = {
  buf : Buffer.t;
  syms : Symbols.t;
  number : int STbl.t;  (** name -> its number *)
  mutable slots : slot array;  (** [slots.(i)] = the i-th name met *)
  mutable calls : string list;  (** routines called, with repeats *)
}

let no_slot = { name = ""; row = None; param = None }

let put_tag sr c = Buffer.add_char sr.buf c

(* zigzag (small magnitudes of either sign stay short), then LEB128:
   self-delimiting, injective, and no string_of_int allocation *)
let rec put_leb buf z =
  if z land lnot 0x7f = 0 then Buffer.add_char buf (Char.unsafe_chr z)
  else begin
    Buffer.add_char buf (Char.unsafe_chr (z land 0x7f lor 0x80));
    put_leb buf (z lsr 7)
  end

let put_int sr n = put_leb sr.buf ((n lsl 1) lxor (n asr (Sys.int_size - 1)))

(* the count, then each element (a closure per list would be the key's
   largest allocation) *)
let rec put_each put sr = function
  | [] -> ()
  | x :: rest ->
      put sr x;
      put_each put sr rest

let put_list put sr l =
  put_int sr (List.length l);
  put_each put sr l

let put_raw sr s =
  (* length-prefixed so "ab"+"c" never equals "a"+"bc" *)
  put_int sr (String.length s);
  Buffer.add_string sr.buf s

let put_name sr v =
  let i =
    match STbl.find sr.number v with
    | i -> i
    | exception Not_found ->
        let i = STbl.length sr.number in
        if i = Array.length sr.slots then
          sr.slots <- Array.append sr.slots (Array.make i no_slot);
        sr.slots.(i) <-
          {
            name = v;
            row = Symbols.lookup sr.syms v;
            param = List.assoc_opt v sr.syms.Symbols.params;
          };
        STbl.add sr.number v i;
        i
  in
  put_tag sr '#';
  put_int sr i

let rec put_expr sr (e : Ast.expr) =
  match e with
  | Ast.Int n ->
      put_tag sr 'i';
      put_int sr n
  | Ast.Num f ->
      put_tag sr 'f';
      Buffer.add_int64_le sr.buf (Int64.bits_of_float f)
  | Ast.Str s ->
      put_tag sr 's';
      put_raw sr s
  | Ast.Bool b -> put_tag sr (if b then 'T' else 'F')
  | Ast.Var v ->
      put_tag sr 'v';
      put_name sr v
  | Ast.Idx (a, es) ->
      put_tag sr 'x';
      put_name sr a;
      put_list put_expr sr es
  | Ast.Section (a, dims) ->
      put_tag sr 'S';
      put_name sr a;
      put_list put_section sr dims
  | Ast.Call (f, es) ->
      sr.calls <- f :: sr.calls;
      put_tag sr 'c';
      put_raw sr f;
      put_list put_expr sr es
  | Ast.Bin (op, a, b) ->
      put_tag sr 'b';
      put_int sr
        (match op with
        | Ast.Add -> 0
        | Ast.Sub -> 1
        | Ast.Mul -> 2
        | Ast.Div -> 3
        | Ast.Pow -> 4
        | Ast.Eq -> 5
        | Ast.Ne -> 6
        | Ast.Lt -> 7
        | Ast.Le -> 8
        | Ast.Gt -> 9
        | Ast.Ge -> 10
        | Ast.And -> 11
        | Ast.Or -> 12);
      put_expr sr a;
      put_expr sr b
  | Ast.Un (op, a) ->
      put_tag sr 'u';
      put_int sr (match op with Ast.Neg -> 0 | Ast.Not -> 1);
      put_expr sr a

and put_opt_expr sr = function
  | None -> put_tag sr '_'
  | Some e ->
      put_tag sr 'E';
      put_expr sr e

and put_section sr = function
  | Ast.Range (a, b, c) ->
      put_tag sr 'R';
      put_opt_expr sr a;
      put_opt_expr sr b;
      put_opt_expr sr c
  | Ast.Elem e ->
      put_tag sr 'e';
      put_expr sr e

let put_lhs sr (l : Ast.lhs) =
  match l with
  | Ast.LVar v ->
      put_tag sr 'V';
      put_name sr v
  | Ast.LIdx (a, es) ->
      put_tag sr 'X';
      put_name sr a;
      put_list put_expr sr es
  | Ast.LSection (a, dims) ->
      put_tag sr 'Z';
      put_name sr a;
      put_list put_section sr dims

let put_dtype sr (t : Ast.dtype) =
  put_tag sr
    (match t with
    | Ast.Integer -> 'I'
    | Ast.Real -> 'R'
    | Ast.Double -> 'D'
    | Ast.Logical -> 'L'
    | Ast.Character -> 'C')

let put_vis sr (v : Ast.visibility) =
  put_tag sr
    (match v with Ast.Default -> 'd' | Ast.Global -> 'g' | Ast.Cluster -> 'k')

let put_bounds sr (lo, hi) =
  put_expr sr lo;
  put_expr sr hi

let put_dims sr dims = put_list put_bounds sr dims

let put_decl sr (d : Ast.decl) =
  put_name sr d.Ast.d_name;
  put_dtype sr d.Ast.d_type;
  put_vis sr d.Ast.d_vis;
  put_dims sr d.Ast.d_dims

let rec put_stmt sr (s : Ast.stmt) =
  match s with
  | Ast.Assign (l, e) ->
      put_tag sr 'A';
      put_lhs sr l;
      put_expr sr e
  | Ast.If (c, t, e) ->
      put_tag sr 'J';
      put_expr sr c;
      put_stmts sr t;
      put_stmts sr e
  | Ast.Do (h, blk) ->
      put_tag sr 'O';
      put_header sr h;
      put_block sr blk
  | Ast.Where (c, body) ->
      put_tag sr 'W';
      put_expr sr c;
      put_stmts sr body
  | Ast.CallSt (f, es) ->
      sr.calls <- f :: sr.calls;
      put_tag sr 'K';
      put_raw sr f;
      put_list put_expr sr es
  | Ast.Return -> put_tag sr 'r'
  | Ast.Stop -> put_tag sr 'h'
  | Ast.Continue -> put_tag sr 'n'
  | Ast.Goto l ->
      put_tag sr 'G';
      put_int sr l
  | Ast.Labeled (l, s) ->
      put_tag sr 'L';
      put_int sr l;
      put_stmt sr s
  | Ast.Print es ->
      put_tag sr 'P';
      put_list put_expr sr es
  | Ast.Read ls ->
      put_tag sr 'Q';
      put_list put_lhs sr ls

and put_stmts sr ss = put_list put_stmt sr ss

and put_header sr (h : Ast.do_header) =
  put_name sr h.Ast.index;
  put_expr sr h.Ast.lo;
  put_expr sr h.Ast.hi;
  put_opt_expr sr h.Ast.step;
  put_int sr
    (match h.Ast.cls with
    | Ast.Seq -> 0
    | Ast.Cdoall -> 1
    | Ast.Sdoall -> 2
    | Ast.Xdoall -> 3
    | Ast.Cdoacross -> 4
    | Ast.Sdoacross -> 5
    | Ast.Xdoacross -> 6);
  put_list put_decl sr h.Ast.locals

and put_block sr (blk : Ast.block) =
  put_stmts sr blk.Ast.preamble;
  put_stmts sr blk.Ast.body;
  put_stmts sr blk.Ast.postamble

(* ------------------------------------------------------------------ *)
(* Prepared lookups                                                    *)
(* ------------------------------------------------------------------ *)

type prep = {
  p_key : string;  (** digest of the normalized nest + context slice *)
  p_names : string array;  (** data names, numbered as the key met them *)
  p_safe : bool;  (** renamed serving is unambiguous for these names *)
}

(* One digest per distinct options record, not per lookup: the driver
   hands every nest of a restructure call the same [opts], so a
   single-slot cache keyed by physical equality absorbs the per-nest
   marshal + digest (a measurable slice of the memo's lookup cost).
   The slot holds an immutable pair, so a racing reader sees either the
   old or the new binding — both correct. *)
let opts_digest_slot : (Options.t * string) option ref = ref None

let opts_digest (opts : Options.t) =
  match !opts_digest_slot with
  | Some (o, d) when o == opts -> d
  | _ ->
      (* inlining happens at unit level, before any nest reaches the
         memo: its limits are the one irrelevant knob *)
      let keyed =
        { opts with Options.inline_limits = Transform.Inline.default_limits }
      in
      let d = Digest.string (Marshal.to_string keyed [ Marshal.No_sharing ]) in
      opts_digest_slot := Some (opts, d);
      d

let size_cap = 1 lsl 16

let counter name help = Obs.Metrics.counter Obs.Metrics.global ~help name
let m_bypass = counter "memo_bypass_total" "nests not memoizable (oversized)"
let m_hits = counter "memo_hits_total" "memo lookups served"
let m_misses = counter "memo_misses_total" "memo lookups missed"
let m_evictions = counter "memo_evictions_total" "memo LRU evictions"

let m_corruptions =
  counter "memo_corruptions_total" "memo entries dropped on checksum mismatch"

let m_entries =
  Obs.Metrics.gauge Obs.Metrics.global ~help:"nests resident in the memo"
    "memo_entries"

(** Build the lookup key for one nest, or [None] (bypass) when the nest
    is too large to be worth caching.  One walk writes the nest, numbering
    each name where it is first met; then come the closure over the
    symbol metadata the driver consults (array bounds and PARAMETER values
    mention further names, numbered in turn), one context row per name,
    the callees' summaries, the facts and options, and last the names'
    sorted-rank permutation.  Two nests therefore share a key exactly
    when an order-preserving renaming maps one onto the other. *)
let prepare ~(syms : Symbols.t) ~(interproc : Analysis.Interproc.t)
    ~(opts : Options.t) ~(avail : bool * bool) ~(after_reads : SSet.t)
    ~(facts : (string * string) list) (h : Ast.do_header) (blk : Ast.block) :
    prep option =
  let sr =
    {
      buf = Buffer.create 512;
      syms;
      number = STbl.create 16;
      slots = Array.make 16 no_slot;
      calls = [];
    }
  in
  put_header sr h;
  put_block sr blk;
  (* closure: the names grow while the bounds and values are written *)
  let i = ref 0 in
  while !i < STbl.length sr.number do
    let s = sr.slots.(!i) in
    (match s.row with
    | None -> put_tag sr '?'
    | Some r ->
        put_tag sr '=';
        put_dims sr r.Symbols.s_dims);
    (match s.param with
    | None -> put_tag sr '_'
    | Some e ->
        put_tag sr 'P';
        put_expr sr e);
    incr i
  done;
  let n = STbl.length sr.number in
  let slots = sr.slots in
  (* context rows, in number order *)
  for i = 0 to n - 1 do
    let s = slots.(i) in
    (match s.row with
    | None -> ()
    | Some r ->
        put_dtype sr r.Symbols.s_type;
        put_vis sr r.Symbols.s_vis;
        (match r.Symbols.s_common with
        | None -> put_tag sr '_'
        | Some c ->
            put_tag sr 'C';
            put_raw sr c);
        put_tag sr (if r.Symbols.s_process_common then 'p' else '.');
        put_tag sr (if r.Symbols.s_formal then 'f' else '.');
        put_tag sr (if r.Symbols.s_equiv then 'q' else '.'));
    put_tag sr (if SSet.mem s.name after_reads then 'a' else '.')
  done;
  (* called routines: their transitively-closed summaries *)
  let calls = List.sort_uniq String.compare sr.calls in
  put_int sr (List.length calls);
  List.iter
    (fun f ->
      put_raw sr f;
      match Analysis.Interproc.find interproc f with
      | None -> put_tag sr '?'
      | Some s ->
          put_tag sr '=';
          Array.iter (fun b -> put_tag sr (if b then 'u' else '.')) s.Analysis.Interproc.s_formal_use;
          put_tag sr '|';
          Array.iter (fun b -> put_tag sr (if b then 'd' else '.')) s.Analysis.Interproc.s_formal_def;
          put_tag sr '|';
          List.iter (put_raw sr) (SSet.elements s.Analysis.Interproc.s_common_use);
          put_tag sr '|';
          List.iter (put_raw sr) (SSet.elements s.Analysis.Interproc.s_common_def);
          put_tag sr (if s.Analysis.Interproc.s_has_io then 'I' else '.');
          put_tag sr (if s.Analysis.Interproc.s_pure then 'p' else '.'))
    calls;
  (* disequality facts over the nest's names, in order *)
  List.iter
    (fun (a, b) ->
      match (STbl.find_opt sr.number a, STbl.find_opt sr.number b) with
      | Some i, Some j ->
          put_tag sr 'D';
          put_int sr i;
          put_int sr j
      | _ -> ())
    facts;
  let spread, cluster = avail in
  put_tag sr (if spread then 'S' else '.');
  put_tag sr (if cluster then 'K' else '.');
  put_raw sr (opts_digest opts);
  (* the numbers in name order: pins the renaming to an order-preserving
     one, since name-keyed maps iterate alphabetically and their order
     shows up in emitted declaration lists *)
  let names = Array.init n (fun i -> slots.(i).name) in
  let order = Array.init n Fun.id in
  Array.stable_sort (fun i j -> String.compare names.(i) names.(j)) order;
  Array.iter (put_int sr) order;
  if Buffer.length sr.buf > size_cap then begin
    Obs.Metrics.incr m_bypass;
    None
  end
  else
    let safe =
      Array.for_all (fun v -> not (template_word v)) names
      && List.for_all (fun f -> not (STbl.mem sr.number f)) calls
    in
    Some
      {
        p_key = Digest.string (Buffer.contents sr.buf);
        p_names = names;
        p_safe = safe;
      }

(* ------------------------------------------------------------------ *)
(* The table                                                           *)
(* ------------------------------------------------------------------ *)

type 'r entry = {
  e_names : string array;
  e_stmts : Ast.stmt list;
  e_reports : 'r list;  (** newest first, as the driver records them *)
  e_fresh : (string * string) list;  (** (prefix, name) stream, in order *)
  e_exact : bool;  (** serve only to identically-named nests *)
  e_sum : string Lazy.t;
      (** digest of the marshalled value, deferred to first verification
          (every forcing site holds the table mutex, so the lazy cell is
          never raced) *)
}

type 'r t = {
  lru : 'r entry Lru.t;
  mutex : Mutex.t;
  corrupt : unit -> bool;  (* chaos hook: poison the entry being stored *)
  hits : Obs.Metrics.counter;
  misses : Obs.Metrics.counter;
  evictions : Obs.Metrics.counter;
  corruptions : Obs.Metrics.counter;
}

let create ?(capacity = 512) ?(corrupt = fun () -> false) () =
  {
    lru = Lru.create ~capacity:(max 1 capacity);
    mutex = Mutex.create ();
    corrupt;
    hits = Obs.Metrics.child m_hits;
    misses = Obs.Metrics.child m_misses;
    evictions = Obs.Metrics.child m_evictions;
    corruptions = Obs.Metrics.child m_corruptions;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let resident t = Obs.Metrics.set_gauge m_entries (float_of_int (Lru.length t.lru))

let size t = locked t (fun () -> Lru.length t.lru)

type stats = {
  st_hits : int;
  st_misses : int;
  st_evictions : int;
  st_corruptions : int;
  st_size : int;
}

let stats t =
  let v = Obs.Metrics.counter_value in
  {
    st_hits = v t.hits;
    st_misses = v t.misses;
    st_evictions = v t.evictions;
    st_corruptions = v t.corruptions;
    st_size = size t;
  }

let checksum (stmts, reports, fresh) =
  Digest.string (Marshal.to_string (stmts, reports, fresh) [ Marshal.No_sharing ])

(* Re-checksumming a resident entry on every hit costs a full marshal +
   digest of the stored result — on small nests that is the same order
   as the transformation the memo exists to skip.  Bit-rot is rare and
   persistent, so verification is amortized: every [verify_mask]+1-th
   hit re-digests (a rotted entry is still dropped within a bounded
   number of serves), and the hot hit path pays only the table lookup. *)
let verify_mask = 31

let find (t : 'r t) (prep : prep) : 'r entry option =
  let servable e =
    Array.length e.e_names = Array.length prep.p_names
    && (e.e_names = prep.p_names || not e.e_exact)
  in
  let miss () =
    Obs.Metrics.incr t.misses;
    None
  in
  locked t @@ fun () ->
  match Lru.find ~accept:servable t.lru prep.p_key with
  | Some e
    when Obs.Metrics.counter_value t.hits land verify_mask = 0
         && checksum (e.e_stmts, e.e_reports, e.e_fresh) <> Lazy.force e.e_sum ->
      (* bit-rot defense, mirroring the result cache's checksum *)
      Lru.remove t.lru prep.p_key;
      resident t;
      Obs.Metrics.incr t.corruptions;
      miss ()
  | Some e ->
      Obs.Metrics.incr t.hits;
      Some e
  | None -> miss ()

(* chaos poison: flip the first sequential DO of the stored statements to
   CDOALL — the unsafe direction, exactly what the validator gate exists
   to catch downstream *)
let rec poison_stmts stmts =
  let changed = ref false in
  let rec stmt s =
    if !changed then s
    else
      match s with
      | Ast.Do (h, blk) when h.Ast.cls = Ast.Seq ->
          changed := true;
          Ast.Do ({ h with Ast.cls = Ast.Cdoall }, blk)
      | Ast.Do (h, blk) ->
          Ast.Do (h, { blk with Ast.body = poison_stmts blk.Ast.body })
      | Ast.If (c, a, b) -> Ast.If (c, List.map stmt a, List.map stmt b)
      | Ast.Labeled (l, s) -> Ast.Labeled (l, stmt s)
      | s -> s
  in
  List.map stmt stmts

(* A fresh-name prefix in store-name space, mapped to replay-name space.
   Prefixes are either a literal (stripmine/recurrence temporaries) or
   [name ^ suffix] for a two-character suffix. *)
let rename_prefix rename prefix =
  if List.mem prefix literal_prefixes then Some prefix
  else
    let n = String.length prefix in
    if n > 2 then
      let stem = String.sub prefix 0 (n - 2)
      and suffix = String.sub prefix (n - 2) 2 in
      if suffix = "_p" || suffix = "_x" || suffix = "_r" then
        Some (rename stem ^ suffix)
      else None
    else None

let store (t : 'r t) (prep : prep) ~(stmts : Ast.stmt list)
    ~(reports : 'r list) ~(fresh : (string * string) list) : unit =
  (* a prefix we cannot map to another name space pins the entry to
     identically-named nests *)
  let id_ok p = rename_prefix (fun s -> s) p <> None in
  let exact = (not prep.p_safe) || not (List.for_all (fun (p, _) -> id_ok p) fresh) in
  let stmts = if t.corrupt () then poison_stmts stmts else stmts in
  let e =
    {
      e_names = prep.p_names;
      e_stmts = stmts;
      e_reports = reports;
      e_fresh = fresh;
      e_exact = exact;
      (* deferred: the common case is an entry that is stored once and
         replayed many times, and the rot window before the first
         verification is no wider than the verification stride *)
      e_sum = lazy (checksum (stmts, reports, fresh));
    }
  in
  locked t @@ fun () ->
  if Lru.add t.lru prep.p_key e then Obs.Metrics.incr t.evictions;
  resident t

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_'

(* rewrite the identifier tokens of a report string *)
let rename_text rename s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if is_ident_char s.[!i] then begin
      let j = ref !i in
      while !j < n && is_ident_char s.[!j] do
        incr j
      done;
      Buffer.add_string b (rename (String.sub s !i (!j - !i)));
      i := !j
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

let rec rename_expr rn (e : Ast.expr) : Ast.expr =
  match e with
  | Ast.Int _ | Ast.Num _ | Ast.Str _ | Ast.Bool _ -> e
  | Ast.Var v -> Ast.Var (rn v)
  | Ast.Idx (a, es) -> Ast.Idx (rn a, List.map (rename_expr rn) es)
  | Ast.Section (a, dims) ->
      Ast.Section (rn a, List.map (rename_section rn) dims)
  | Ast.Call (f, es) -> Ast.Call (f, List.map (rename_expr rn) es)
  | Ast.Bin (op, a, b) -> Ast.Bin (op, rename_expr rn a, rename_expr rn b)
  | Ast.Un (op, a) -> Ast.Un (op, rename_expr rn a)

and rename_section rn = function
  | Ast.Range (a, b, c) ->
      Ast.Range
        ( Option.map (rename_expr rn) a,
          Option.map (rename_expr rn) b,
          Option.map (rename_expr rn) c )
  | Ast.Elem e -> Ast.Elem (rename_expr rn e)

let rename_lhs rn = function
  | Ast.LVar v -> Ast.LVar (rn v)
  | Ast.LIdx (a, es) -> Ast.LIdx (rn a, List.map (rename_expr rn) es)
  | Ast.LSection (a, dims) ->
      Ast.LSection (rn a, List.map (rename_section rn) dims)

let rename_decl rn (d : Ast.decl) =
  {
    d with
    Ast.d_name = rn d.Ast.d_name;
    Ast.d_dims =
      List.map (fun (lo, hi) -> (rename_expr rn lo, rename_expr rn hi)) d.Ast.d_dims;
  }

let rec rename_stmt rn (s : Ast.stmt) : Ast.stmt =
  match s with
  | Ast.Assign (l, e) -> Ast.Assign (rename_lhs rn l, rename_expr rn e)
  | Ast.If (c, t, e) ->
      Ast.If
        (rename_expr rn c, List.map (rename_stmt rn) t, List.map (rename_stmt rn) e)
  | Ast.Do (h, blk) -> Ast.Do (rename_header rn h, rename_block rn blk)
  | Ast.Where (c, body) ->
      Ast.Where (rename_expr rn c, List.map (rename_stmt rn) body)
  | Ast.CallSt (f, es) -> Ast.CallSt (f, List.map (rename_expr rn) es)
  | Ast.Return | Ast.Stop | Ast.Continue | Ast.Goto _ -> s
  | Ast.Labeled (l, s) -> Ast.Labeled (l, rename_stmt rn s)
  | Ast.Print es -> Ast.Print (List.map (rename_expr rn) es)
  | Ast.Read ls -> Ast.Read (List.map (rename_lhs rn) ls)

and rename_header rn (h : Ast.do_header) =
  {
    h with
    Ast.index = rn h.Ast.index;
    Ast.lo = rename_expr rn h.Ast.lo;
    Ast.hi = rename_expr rn h.Ast.hi;
    Ast.step = Option.map (rename_expr rn) h.Ast.step;
    Ast.locals = List.map (rename_decl rn) h.Ast.locals;
  }

and rename_block rn (blk : Ast.block) =
  {
    Ast.preamble = List.map (rename_stmt rn) blk.Ast.preamble;
    Ast.body = List.map (rename_stmt rn) blk.Ast.body;
    Ast.postamble = List.map (rename_stmt rn) blk.Ast.postamble;
  }

type replayed = {
  rp_stmts : Ast.stmt list;
  rp_rename : string -> string;  (** identifier map (stored → live) *)
  rp_text : string -> string;  (** report-string map (token-wise) *)
}

(** Materialize a stored entry at the current call site: map stored names
    to the caller's, and re-draw every fresh name from the live counter
    (through [fresh], normally [Ast_utils.fresh_name]) so the numbering
    matches what a direct run would have produced. *)
let replay (entry : 'r entry) (prep : prep) ~(fresh : string -> string) :
    replayed =
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i stored ->
      let live = prep.p_names.(i) in
      if not (String.equal stored live) then Hashtbl.replace tbl stored live)
    entry.e_names;
  let base_rename v = Option.value (Hashtbl.find_opt tbl v) ~default:v in
  List.iter
    (fun (prefix, stored_name) ->
      let live_prefix =
        match rename_prefix base_rename prefix with
        | Some p -> p
        | None -> prefix (* exact-only entries never reach here renamed *)
      in
      let live_name = fresh live_prefix in
      if not (String.equal stored_name live_name) then
        Hashtbl.replace tbl stored_name live_name)
    entry.e_fresh;
  let rename v = Option.value (Hashtbl.find_opt tbl v) ~default:v in
  let stmts =
    if Hashtbl.length tbl = 0 then entry.e_stmts
    else List.map (rename_stmt rename) entry.e_stmts
  in
  {
    rp_stmts = stmts;
    rp_rename = rename;
    rp_text = (fun s -> if Hashtbl.length tbl = 0 then s else rename_text rename s);
  }
