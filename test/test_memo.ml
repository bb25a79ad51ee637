(* The nest-level memo's contract: restructuring with memoization is
   BYTE-identical to restructuring without — printer output and decision
   notes — across the whole workloads corpus and random programs, warm or
   cold, renamed or not, with or without the validator.  Plus unit tests
   for key normalization, the lookup policy and LRU bounds. *)

open Fortran
module R = Restructurer
module G = QCheck.Gen

let cedar = Machine.Config.cedar_config1
let auto = R.Options.auto_1991 cedar
let advanced = R.Options.advanced cedar
let validated = { advanced with R.Options.validate = true }

(* printed program + printed decision notes: everything a caller sees *)
let fingerprint (res : R.Driver.result) : string =
  Printer.program_to_string res.R.Driver.program
  ^ "\n--- reports ---\n"
  ^ String.concat "\n" (List.map R.Driver.report_to_string res.R.Driver.reports)

let restructure ?memo opts prog = fingerprint (R.Driver.restructure ?memo opts prog)

let corpus () = Workloads.Linalg.all @ Workloads.Perfect.all

let corpus_programs () =
  List.map
    (fun w ->
      ( w.Workloads.Workload.name,
        Parser.parse_program
          (w.Workloads.Workload.source w.Workloads.Workload.small_size) ))
    (corpus ())

(* ------------------------------------------------------------------ *)
(* Corpus equivalence: cold fill, then fully-warm replay               *)
(* ------------------------------------------------------------------ *)

let corpus_equivalence name opts () =
  let progs = corpus_programs () in
  let memo = R.Driver.create_memo ~capacity:2048 () in
  (* one shared memo across the whole corpus: cross-program reuse on the
     cold pass, pure replay on the warm pass *)
  List.iter
    (fun (n, prog) ->
      let plain = restructure opts prog in
      let cold = restructure ~memo opts prog in
      Alcotest.(check string) (n ^ " cold = plain") plain cold;
      let warm = restructure ~memo opts prog in
      Alcotest.(check string) (n ^ " warm = plain") plain warm)
    progs;
  let st = R.Driver.memo_stats memo in
  (* every program has at least one top-level nest, and a warm outer hit
     never consults inner nests — so hits ≥ programs, not ≥ misses *)
  Alcotest.(check bool)
    (name ^ ": warm pass actually hit")
    true
    (st.R.Memo.st_hits >= List.length progs)

(* ------------------------------------------------------------------ *)
(* Property: random programs, shared table across cases                 *)
(* ------------------------------------------------------------------ *)

let prop_equivalence name gen opts count =
  (* the memo table SURVIVES across cases: every generated program is
     also a cross-program collision test against all earlier ones *)
  let memo = R.Driver.create_memo ~capacity:4096 () in
  QCheck.Test.make ~count ~long_factor:50 ~name
    (QCheck.make gen ~print:(fun p -> Printer.program_to_string p))
    (fun prog ->
      let plain = restructure opts prog in
      let memoed = restructure ~memo opts prog in
      let warm = restructure ~memo opts prog in
      if plain <> memoed then
        QCheck.Test.fail_reportf "cold memo diverged:\n%s\n=== vs ===\n%s"
          plain memoed;
      if plain <> warm then
        QCheck.Test.fail_reportf "warm memo diverged:\n%s\n=== vs ===\n%s"
          plain warm;
      true)

(* ------------------------------------------------------------------ *)
(* Normalization unit tests                                            *)
(* ------------------------------------------------------------------ *)

let parse_unit src =
  match Parser.parse_program src with u :: _ -> u | [] -> Alcotest.fail "parse"

let first_nest (u : Ast.punit) =
  let rec find = function
    | Ast.Do (h, blk) :: _ -> (h, blk)
    | Ast.Labeled (_, Ast.Do (h, blk)) :: _ -> (h, blk)
    | _ :: rest -> find rest
    | [] -> Alcotest.fail "no loop in unit"
  in
  find u.Ast.u_body

(* [edit] rewrites the parsed unit before the key is built, for constants
   the parser never produces (negative literals) *)
let prep_of ?(opts = advanced) ?(edit = Fun.id) src =
  let prog = Parser.parse_program src in
  let u = edit (List.hd prog) in
  let syms = Symbols.of_unit u in
  let interproc = Analysis.Interproc.analyze prog in
  let h, blk = first_nest u in
  match
    R.Memo.prepare ~syms ~interproc ~opts ~avail:(true, true)
      ~after_reads:Ast_utils.SSet.empty ~facts:[] h blk
  with
  | Some p -> p
  | None -> Alcotest.fail "unexpected memo bypass"

let saxpy_src ~index ~arr1 ~arr2 ~scal ~stride =
  Printf.sprintf
    {|      program p
      real %s(100), %s(100)
      do 10 %s = 1, 100%s
        %s(%s) = %s(%s) + %s
 10   continue
      end
|}
    arr1 arr2 index
    (if stride = 1 then "" else Printf.sprintf ", %d" stride)
    arr1 index arr2 index scal

(* the unit with its first nest's lower bound replaced by [n] *)
let with_lo n (u : Ast.punit) =
  let rec go = function
    | Ast.Do (h, blk) :: rest -> Ast.Do ({ h with Ast.lo = Ast.Int n }, blk) :: rest
    | Ast.Labeled (l, Ast.Do (h, blk)) :: rest ->
        Ast.Labeled (l, Ast.Do ({ h with Ast.lo = Ast.Int n }, blk)) :: rest
    | s :: rest -> s :: go rest
    | [] -> []
  in
  { u with Ast.u_body = go u.Ast.u_body }

let key_alpha_invariant () =
  (* order-preserving renaming: aa<bb<i1<ss and cc<dd<j1<tt *)
  let a =
    prep_of (saxpy_src ~index:"i1" ~arr1:"aa" ~arr2:"bb" ~scal:"ss" ~stride:1)
  in
  let b =
    prep_of (saxpy_src ~index:"j1" ~arr1:"cc" ~arr2:"dd" ~scal:"tt" ~stride:1)
  in
  Alcotest.(check string)
    "alpha-renamed nests share a key" a.R.Memo.p_key b.R.Memo.p_key;
  Alcotest.(check bool)
    "names differ" true
    (a.R.Memo.p_names <> b.R.Memo.p_names);
  (* swapping aa and bb reverses their order: no order-preserving
     renaming maps one nest onto the other *)
  let swapped =
    prep_of (saxpy_src ~index:"i1" ~arr1:"bb" ~arr2:"aa" ~scal:"ss" ~stride:1)
  in
  Alcotest.(check bool)
    "order-reversing renaming splits the key" true
    (a.R.Memo.p_key <> swapped.R.Memo.p_key)

let key_sensitivity () =
  let base =
    prep_of (saxpy_src ~index:"i1" ~arr1:"aa" ~arr2:"bb" ~scal:"ss" ~stride:1)
  in
  let strided =
    prep_of (saxpy_src ~index:"i1" ~arr1:"aa" ~arr2:"bb" ~scal:"ss" ~stride:2)
  in
  Alcotest.(check bool)
    "different stride, different key" true
    (base.R.Memo.p_key <> strided.R.Memo.p_key);
  let other_opts =
    prep_of ~opts:auto
      (saxpy_src ~index:"i1" ~arr1:"aa" ~arr2:"bb" ~scal:"ss" ~stride:1)
  in
  Alcotest.(check bool)
    "different options, different key" true
    (base.R.Memo.p_key <> other_opts.R.Memo.p_key);
  let validated_opts =
    prep_of ~opts:validated
      (saxpy_src ~index:"i1" ~arr1:"aa" ~arr2:"bb" ~scal:"ss" ~stride:1)
  in
  Alcotest.(check bool)
    "validate flag is part of the key" true
    (base.R.Memo.p_key <> validated_opts.R.Memo.p_key);
  let omp_opts =
    prep_of
      ~opts:{ advanced with R.Options.target = Codegen.Target.Openmp }
      (saxpy_src ~index:"i1" ~arr1:"aa" ~arr2:"bb" ~scal:"ss" ~stride:1)
  in
  Alcotest.(check bool)
    "codegen target is part of the key" true
    (base.R.Memo.p_key <> omp_opts.R.Memo.p_key);
  (* integer constants that only a broken encoding would merge: decimal
     prefixes, sign, and bits above the low 32 *)
  let saxpy = saxpy_src ~index:"i1" ~arr1:"aa" ~arr2:"bb" ~scal:"ss" ~stride:1 in
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "lower bound %d vs %d splits the key" a b)
        true
        ((prep_of ~edit:(with_lo a) saxpy).R.Memo.p_key
        <> (prep_of ~edit:(with_lo b) saxpy).R.Memo.p_key))
    [ (1, 11); (-1, 1); (1 lsl 40, 0) ];
  let param_src =
    {|      program p
      parameter (nn = 100)
      real aa(100), bb(100)
      do 10 i1 = 1, nn
        aa(i1) = bb(i1) + 1.0
 10   continue
      end
|}
  in
  let with_param v (u : Ast.punit) = { u with Ast.u_params = [ ("nn", Ast.Int v) ] } in
  Alcotest.(check bool)
    "PARAMETER differing only in sign splits the key" true
    ((prep_of ~edit:(with_param 100) param_src).R.Memo.p_key
    <> (prep_of ~edit:(with_param (-100)) param_src).R.Memo.p_key)

(* one shared memo, two codegen targets: the second target must not be
   served the first target's nests — each fills its own entry *)
let target_isolation () =
  let prog =
    Parser.parse_program
      (saxpy_src ~index:"i1" ~arr1:"aa" ~arr2:"bb" ~scal:"ss" ~stride:1)
  in
  let omp = { advanced with R.Options.target = Codegen.Target.Openmp } in
  let memo = R.Driver.create_memo () in
  ignore (R.Driver.restructure ~memo advanced prog);
  let st1 = R.Driver.memo_stats memo in
  ignore (R.Driver.restructure ~memo omp prog);
  let st2 = R.Driver.memo_stats memo in
  Alcotest.(check int)
    "no cross-target hits" st1.R.Memo.st_hits st2.R.Memo.st_hits;
  Alcotest.(check bool)
    "second target fills its own entries" true
    (st2.R.Memo.st_size > st1.R.Memo.st_size);
  (* replaying each target now hits its own entry *)
  ignore (R.Driver.restructure ~memo advanced prog);
  ignore (R.Driver.restructure ~memo omp prog);
  let st3 = R.Driver.memo_stats memo in
  Alcotest.(check bool)
    "both targets replay as hits" true
    (st3.R.Memo.st_hits >= st2.R.Memo.st_hits + 2)

(* a renamed hit must be byte-identical with a direct run of the renamed
   program AND must actually be served from the table *)
let renamed_replay () =
  let src_a = saxpy_src ~index:"i1" ~arr1:"aa" ~arr2:"bb" ~scal:"ss" ~stride:1 in
  let src_b = saxpy_src ~index:"j1" ~arr1:"cc" ~arr2:"dd" ~scal:"tt" ~stride:1 in
  let pa = Parser.parse_program src_a and pb = Parser.parse_program src_b in
  let memo = R.Driver.create_memo () in
  ignore (R.Driver.restructure ~memo advanced pa);
  let plain = restructure advanced pb in
  let replayed = restructure ~memo advanced pb in
  Alcotest.(check string) "renamed replay byte-identical" plain replayed;
  let st = R.Driver.memo_stats memo in
  Alcotest.(check bool) "served from the table" true (st.R.Memo.st_hits >= 1)

(* ------------------------------------------------------------------ *)
(* Lookup policy                                                       *)
(* ------------------------------------------------------------------ *)

(* The memo is consulted at top-level nests only: inner nests are never
   probed, so a warm pass repeats exactly the cold pass's lookups, and
   every one of them hits. *)
let lookup_policy opts () =
  let lookups (s : R.Memo.stats) = s.R.Memo.st_hits + s.R.Memo.st_misses in
  List.iter
    (fun (n, prog) ->
      let memo = R.Driver.create_memo () in
      ignore (R.Driver.restructure ~memo opts prog);
      let cold = R.Driver.memo_stats memo in
      ignore (R.Driver.restructure ~memo opts prog);
      let warm = R.Driver.memo_stats memo in
      Alcotest.(check int)
        (n ^ ": warm pass makes the cold pass's lookups")
        (lookups cold)
        (lookups warm - lookups cold);
      Alcotest.(check int)
        (n ^ ": every warm lookup hits")
        (lookups cold)
        (warm.R.Memo.st_hits - cold.R.Memo.st_hits))
    (corpus_programs ())

(* ------------------------------------------------------------------ *)
(* LRU bounds                                                          *)
(* ------------------------------------------------------------------ *)

let lru_eviction () =
  let memo = R.Driver.create_memo ~capacity:2 () in
  let progs =
    List.map
      (fun stride ->
        Parser.parse_program
          (saxpy_src ~index:"i1" ~arr1:"aa" ~arr2:"bb" ~scal:"ss" ~stride))
      [ 1; 2; 3; 4; 5 ]
  in
  List.iter (fun p -> ignore (R.Driver.restructure ~memo advanced p)) progs;
  let st = R.Driver.memo_stats memo in
  Alcotest.(check bool)
    "size bounded by capacity" true
    (st.R.Memo.st_size <= 2);
  Alcotest.(check bool) "evictions counted" true (st.R.Memo.st_evictions >= 3);
  (* an evicted nest misses again; a resident one hits *)
  let before = R.Driver.memo_stats memo in
  ignore (R.Driver.restructure ~memo advanced (List.nth progs 4));
  let after = R.Driver.memo_stats memo in
  Alcotest.(check bool)
    "resident nest replays as a hit" true
    (after.R.Memo.st_hits > before.R.Memo.st_hits)

(* hits on one resident nest never evict, so the recency bookkeeping
   they leave behind must not accumulate in a long-running service *)
let recency_bounded () =
  let prep = prep_of (saxpy_src ~index:"i1" ~arr1:"aa" ~arr2:"bb" ~scal:"ss" ~stride:1) in
  let memo : unit R.Memo.t = R.Memo.create () in
  R.Memo.store memo prep ~stmts:[] ~reports:[] ~fresh:[];
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let before = live_words () in
  for _ = 1 to 1_000_000 do
    ignore (R.Memo.find memo prep)
  done;
  let grown = live_words () - before in
  Alcotest.(check bool)
    (Printf.sprintf "live heap flat across 1M hits (grew %d words)" grown)
    true (grown < 1 lsl 17);
  Alcotest.(check int) "every lookup hit" 1_000_000 (R.Memo.stats memo).R.Memo.st_hits

(* checksum defense: a corrupted-in-place entry is dropped, not served *)
let checksum_drop () =
  (* a(i) = a(i-1) + ... carries a distance-1 dependence: the nest stays
     a sequential DO, which is exactly what the poison flips to CDOALL *)
  let src =
    {|      program p
      real aa(100), bb(100)
      do 10 i1 = 2, 100
        aa(i1) = aa(i1-1) + bb(i1) * bb(i1)
        bb(i1) = bb(i1) + aa(i1)
 10   continue
      end
|}
  in
  let prog = Parser.parse_program src in
  (* no doacross: the carried dependence pins the nest to a plain DO *)
  let opts =
    {
      advanced with
      R.Options.techniques =
        { advanced.R.Options.techniques with R.Options.doacross = false };
    }
  in
  let corrupt_next = ref false in
  let memo = R.Driver.create_memo ~corrupt:(fun () -> !corrupt_next) () in
  corrupt_next := true;
  ignore (R.Driver.restructure ~memo opts prog);
  corrupt_next := false;
  (* the poisoned entry checksums consistently (corruption happened
     before the digest), so it IS served: the validator gate downstream
     is the real defense, exercised in test_service.  Here, prove the
     poison changed the output, i.e. the chaos site really fires. *)
  let poisoned = restructure ~memo opts prog in
  let plain = restructure opts prog in
  Alcotest.(check bool) "poison visible in replay" true (poisoned <> plain)

let tests =
  [
    Alcotest.test_case "corpus byte-identity (auto)" `Slow
      (corpus_equivalence "auto" auto);
    Alcotest.test_case "corpus byte-identity (advanced)" `Slow
      (corpus_equivalence "advanced" advanced);
    Alcotest.test_case "corpus byte-identity (validated)" `Slow
      (corpus_equivalence "validated" validated);
    QCheck_alcotest.to_alcotest ~rand:(Test_fuzz.rand ())
      (prop_equivalence "random programs: memo on = memo off"
         Test_fuzz.gen_program advanced 60);
    QCheck_alcotest.to_alcotest ~rand:(Test_fuzz.rand ())
      (prop_equivalence "random hard programs: memo on = memo off (validated)"
         Test_fuzz.gen_program_hard validated 40);
    Alcotest.test_case "normalization: alpha-renaming shares the key" `Quick
      key_alpha_invariant;
    Alcotest.test_case "normalization: stride/options split the key" `Quick
      key_sensitivity;
    Alcotest.test_case "renamed replay is byte-identical and hits" `Quick
      renamed_replay;
    Alcotest.test_case "codegen targets fill separate memo entries" `Quick
      target_isolation;
    Alcotest.test_case "lookups at top-level nests only (auto)" `Quick
      (lookup_policy auto);
    Alcotest.test_case "lookups at top-level nests only (advanced)" `Quick
      (lookup_policy advanced);
    Alcotest.test_case "LRU capacity and eviction counters" `Quick lru_eviction;
    Alcotest.test_case "recency bookkeeping bounded under hits" `Quick
      recency_bounded;
    Alcotest.test_case "chaos corrupt hook poisons the stored nest" `Quick
      checksum_drop;
  ]
