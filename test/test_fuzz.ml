(* Differential fuzzing of the restructurer.

   Generates random structured fortran77 programs (nested loops, guarded
   blocks, affine subscripts, accumulations) whose arithmetic stays on
   exactly-representable integers — so any reduction reordering still
   produces bit-identical results — and checks that restructuring under
   BOTH technique sets preserves the interpreted output, via the printed
   Cedar Fortran (print → reparse → execute). *)

open Fortran
module R = Restructurer
module G = QCheck.Gen

let cedar = Machine.Config.cedar_config1

(* ------------------------------------------------------------------ *)
(* Program generator                                                   *)
(* ------------------------------------------------------------------ *)

(* arrays a..e of size 40; loops range within 3..12 with offsets in
   [-2, 2], so subscripts stay in [1, 14] *)
let arrays = [ "a"; "b"; "c"; "d"; "e" ]
let scalars = [ "s"; "t"; "u" ]

let gen_subscript idx : Ast.expr G.t =
  G.oneof
    [
      G.return (Ast.Var idx);
      G.map
        (fun k -> Ast.Bin (Ast.Add, Ast.Var idx, Ast.Int k))
        (G.int_range 1 2);
      G.map
        (fun k -> Ast.Bin (Ast.Sub, Ast.Var idx, Ast.Int k))
        (G.int_range 1 2);
      G.map (fun k -> Ast.Int k) (G.int_range 1 14);
    ]

let ( let* ) x f = G.( >>= ) x f

(* integer-valued expressions over array elements / scalars / constants *)
let rec gen_expr idxs depth : Ast.expr G.t =
  let leaf =
    G.oneof
      ([
         G.map (fun k -> Ast.Int k) (G.int_range 0 9);
         G.map (fun v -> Ast.Var v) (G.oneofl scalars);
       ]
      @
      match idxs with
      | [] -> []
      | _ ->
          [
            (let* arr = G.oneofl arrays in
             let* idx = G.oneofl idxs in
             let* sub = gen_subscript idx in
             G.return (Ast.Idx (arr, [ sub ])));
            G.map (fun i -> Ast.Var i) (G.oneofl idxs);
          ])
  in
  if depth <= 0 then leaf
  else
    G.oneof
      [
        leaf;
        (let* op = G.oneofl [ Ast.Add; Ast.Sub; Ast.Mul ] in
         let* a = gen_expr idxs (depth - 1) in
         let* b = gen_expr idxs (depth - 1) in
         G.return (Ast.Bin (op, a, b)));
        (let* a = gen_expr idxs (depth - 1) in
         let* b = gen_expr idxs (depth - 1) in
         G.return (Ast.Call ("max", [ a; b ])));
      ]

let gen_cond idxs : Ast.expr G.t =
  let* rel = G.oneofl [ Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge; Ast.Ne; Ast.Eq ] in
  let* a = gen_expr idxs 1 in
  let* b = gen_expr idxs 1 in
  G.return (Ast.Bin (rel, a, b))

let rec gen_stmt idxs depth : Ast.stmt G.t =
  let assign =
    let* rhs = gen_expr idxs 2 in
    let* target =
      match idxs with
      | [] -> G.map (fun v -> `S v) (G.oneofl scalars)
      | _ ->
          G.oneof
            [
              G.map (fun v -> `S v) (G.oneofl scalars);
              (let* arr = G.oneofl arrays in
               let* idx = G.oneofl idxs in
               let* sub = gen_subscript idx in
               G.return (`A (arr, sub)));
            ]
    in
    G.return
      (match target with
      | `S v -> Ast.Assign (Ast.LVar v, rhs)
      | `A (arr, sub) -> Ast.Assign (Ast.LIdx (arr, [ sub ]), rhs))
  in
  let accum =
    (* x = x + e: reduction fodder *)
    match idxs with
    | [] ->
        let* e = gen_expr idxs 1 in
        G.return
          (Ast.Assign (Ast.LVar "s", Ast.Bin (Ast.Add, Ast.Var "s", e)))
    | _ ->
        let* arr = G.oneofl arrays in
        let* idx = G.oneofl idxs in
        let* sub = gen_subscript idx in
        let* e = gen_expr idxs 1 in
        let cell = Ast.Idx (arr, [ sub ]) in
        G.return (Ast.Assign (Ast.LIdx (arr, [ sub ]), Ast.Bin (Ast.Add, cell, e)))
  in
  if depth <= 0 then G.oneof [ assign; accum ]
  else
    G.oneof
      [
        assign;
        accum;
        (let* c = gen_cond idxs in
         let* t = gen_stmts idxs (depth - 1) 2 in
         let* e = G.oneof [ G.return []; gen_stmts idxs (depth - 1) 1 ] in
         G.return (Ast.If (c, t, e)));
        (let* lo = G.int_range 3 4 in
         let* hi = G.int_range 6 12 in
         let idx = Printf.sprintf "i%d" (List.length idxs + 1) in
         let* body = gen_stmts (idx :: idxs) (depth - 1) 3 in
         G.return
           (Ast.Do
              ( {
                  Ast.index = idx;
                  lo = Ast.Int lo;
                  hi = Ast.Int hi;
                  step = None;
                  cls = Ast.Seq;
                  locals = [];
                },
                Ast.seq_block body )));
      ]

and gen_stmts idxs depth n : Ast.stmt list G.t =
  let* k = G.int_range 1 n in
  let rec go k acc =
    if k = 0 then G.return (List.rev acc)
    else
      let* s = gen_stmt idxs depth in
      go (k - 1) (s :: acc)
  in
  go k []

(* ------------------------------------------------------------------ *)
(* Shared harness: deterministic init, checksum dump                   *)
(* ------------------------------------------------------------------ *)

(* initialize arrays and scalars deterministically, then dump checksums *)
let harness body =
  let init =
    List.concat_map
      (fun (k, arr) ->
        [
          Ast.Do
            ( {
                Ast.index = "i0";
                lo = Ast.Int 1;
                hi = Ast.Int 40;
                step = None;
                cls = Ast.Seq;
                locals = [];
              },
              Ast.seq_block
                [
                  Ast.Assign
                    ( Ast.LIdx (arr, [ Ast.Var "i0" ]),
                      Ast.Bin
                        (Ast.Add, Ast.Bin (Ast.Mul, Ast.Var "i0", Ast.Int (k + 1)), Ast.Int k)
                    );
                ] );
        ])
      (List.mapi (fun k a -> (k, a)) arrays)
    @ List.map (fun (k, v) -> Ast.Assign (Ast.LVar v, Ast.Int (k + 3)))
        (List.mapi (fun k v -> (k, v)) scalars)
  in
  let dump =
    [
      Ast.Do
        ( {
            Ast.index = "i0";
            lo = Ast.Int 1;
            hi = Ast.Int 40;
            step = None;
            cls = Ast.Seq;
            locals = [];
          },
          Ast.seq_block
            (List.map
               (fun arr ->
                 Ast.Assign
                   ( Ast.LVar "t",
                     Ast.Bin (Ast.Add, Ast.Var "t", Ast.Idx (arr, [ Ast.Var "i0" ]))
                   ))
               arrays) );
      Ast.Print [ Ast.Var "s"; Ast.Var "t"; Ast.Var "u" ];
    ]
  in
  let decls =
    List.map
      (fun a ->
        {
          Ast.d_name = a;
          d_type = Ast.Real;
          d_dims = [ (Ast.Int 1, Ast.Int 40) ];
          d_vis = Ast.Default;
        })
      arrays
  in
  [
    {
      Ast.u_name = "fuzz";
      u_kind = Ast.Program;
      u_decls = decls;
      u_commons = [];
      u_equivs = [];
      u_params = [];
      u_body = init @ body @ dump;
    };
  ]

let gen_body : Ast.stmt list G.t = gen_stmts [] 3 5
let gen_program : Ast.program G.t = G.map harness gen_body

(* ------------------------------------------------------------------ *)
(* Hardened generators: loop shapes aimed at the trickiest transforms  *)
(* ------------------------------------------------------------------ *)

let fresh_idx idxs = Printf.sprintf "i%d" (List.length idxs + 1)

(* subscripts valid from iteration 1 on (no negative offsets) *)
let gen_fwd_subscript idx : Ast.expr G.t =
  G.oneof
    [
      G.return (Ast.Var idx);
      G.map
        (fun k -> Ast.Bin (Ast.Add, Ast.Var idx, Ast.Int k))
        (G.int_range 1 2);
      G.map (fun k -> Ast.Int k) (G.int_range 1 14);
    ]

(* expressions that only READ: array elements from [reads], scalars,
   constants — safe inside bodies whose write sets we control exactly *)
let rec gen_rexpr ?(subs = gen_subscript) reads idx depth : Ast.expr G.t =
  let leaf =
    G.oneof
      [
        G.map (fun k -> Ast.Int k) (G.int_range 0 9);
        G.map (fun v -> Ast.Var v) (G.oneofl scalars);
        (let* arr = G.oneofl reads in
         let* sub = subs idx in
         G.return (Ast.Idx (arr, [ sub ])));
      ]
  in
  if depth <= 0 then leaf
  else
    G.oneof
      [
        leaf;
        (let* op = G.oneofl [ Ast.Add; Ast.Sub; Ast.Mul ] in
         let* a = gen_rexpr ~subs reads idx (depth - 1) in
         let* b = gen_rexpr ~subs reads idx (depth - 1) in
         G.return (Ast.Bin (op, a, b)));
      ]

(* a(i) = a(i-d) + e with d in 1..2: a distance-d carried dependence the
   advanced driver synchronizes with a CDOACROSS await/advance cascade;
   a second, independent write gives the loop parallel work worth
   pipelining *)
let gen_carried_loop idxs : Ast.stmt G.t =
  let idx = fresh_idx idxs in
  let* arr = G.oneofl arrays in
  let reads = List.filter (fun a -> a <> arr) arrays in
  let* d = G.int_range 1 2 in
  let* lo = G.int_range 3 4 in
  let* hi = G.int_range 8 14 in
  let* e = gen_rexpr reads idx 1 in
  let* extra_w = G.oneofl reads in
  let* e2 = gen_rexpr (List.filter (fun a -> a <> extra_w) reads) idx 1 in
  let body =
    [
      Ast.Assign
        ( Ast.LIdx (arr, [ Ast.Var idx ]),
          Ast.Bin
            ( Ast.Add,
              Ast.Idx (arr, [ Ast.Bin (Ast.Sub, Ast.Var idx, Ast.Int d) ]),
              e ) );
      Ast.Assign (Ast.LIdx (extra_w, [ Ast.Var idx ]), e2);
    ]
  in
  G.return
    (Ast.Do
       ( {
           Ast.index = idx;
           lo = Ast.Int lo;
           hi = Ast.Int hi;
           step = None;
           cls = Ast.Seq;
           locals = [];
         },
         Ast.seq_block body ))

(* a(j0 + (i-1)*u) with u assigned at run time: the coefficient is
   symbolic, so static analysis must assume a dependence and the driver
   emits a two-version loop under a run-time independence test *)
let gen_twoversion_stmts idxs : Ast.stmt list G.t =
  let idx = fresh_idx idxs in
  let* arr = G.oneofl arrays in
  let reads = List.filter (fun a -> a <> arr) arrays in
  let* j0 = G.int_range 1 3 in
  let* m = G.int_range 3 4 in
  let* hi = G.int_range 4 9 in
  (* the loop starts at 1: only offset-free subscripts are in bounds *)
  let* e = gen_rexpr ~subs:gen_fwd_subscript reads idx 1 in
  let sub =
    Ast.Bin
      ( Ast.Add,
        Ast.Int j0,
        Ast.Bin
          (Ast.Mul, Ast.Bin (Ast.Sub, Ast.Var idx, Ast.Int 1), Ast.Var "u") )
  in
  G.return
    [
      Ast.Assign (Ast.LVar "u", Ast.Int m);
      Ast.Do
        ( {
            Ast.index = idx;
            lo = Ast.Int 1;
            hi = Ast.Int hi;
            step = None;
            cls = Ast.Seq;
            locals = [];
          },
          Ast.seq_block [ Ast.Assign (Ast.LIdx (arr, [ sub ]), e) ] );
    ]

(* assignments guarded by element-wise IFs over a distinct read array:
   vectorization IF-converts these into WHERE blocks *)
let gen_ifwhere_loop idxs : Ast.stmt G.t =
  let idx = fresh_idx idxs in
  let* w = G.oneofl arrays in
  let reads = List.filter (fun a -> a <> w) arrays in
  let* lo = G.int_range 3 4 in
  let* hi = G.int_range 8 14 in
  let* e1 = gen_rexpr reads idx 1 in
  let* cr = G.oneofl reads in
  let* k = G.int_range 5 200 in
  let* e2 = gen_rexpr reads idx 1 in
  let body =
    [
      Ast.Assign (Ast.LIdx (w, [ Ast.Var idx ]), e1);
      Ast.If
        ( Ast.Bin (Ast.Gt, Ast.Idx (cr, [ Ast.Var idx ]), Ast.Int k),
          [ Ast.Assign (Ast.LIdx (w, [ Ast.Var idx ]), e2) ],
          [] );
    ]
  in
  G.return
    (Ast.Do
       ( {
           Ast.index = idx;
           lo = Ast.Int lo;
           hi = Ast.Int hi;
           step = None;
           cls = Ast.Seq;
           locals = [];
         },
         Ast.seq_block body ))

let gen_special_stmts : Ast.stmt list G.t =
  let* kind = G.oneofl [ `Carried; `TwoVersion; `IfWhere ] in
  match kind with
  | `Carried -> G.map (fun l -> [ l ]) (gen_carried_loop [])
  | `TwoVersion -> gen_twoversion_stmts []
  | `IfWhere -> G.map (fun l -> [ l ]) (gen_ifwhere_loop [])

let gen_body_hard : Ast.stmt list G.t =
  let* pre = gen_stmts [] 2 2 in
  let* specials = G.list_size (G.int_range 1 2) gen_special_stmts in
  let* post = gen_stmts [] 2 2 in
  G.return (pre @ List.concat specials @ post)

let gen_program_hard : Ast.program G.t = G.map harness gen_body_hard

(* ------------------------------------------------------------------ *)
(* Shrinking: the arbitraries below generate the body alone and the    *)
(* properties wrap it in [harness], so a shrunk counterexample keeps   *)
(* the initialization and the checksum dump                            *)
(* ------------------------------------------------------------------ *)

(* drop one statement, or shrink inside one DO or IF body (a DO keeps at
   least one statement, an IF at least one in its THEN branch) *)
let rec shrink_stmts (stmts : Ast.stmt list) : Ast.stmt list QCheck.Iter.t =
 fun yield ->
  List.iteri (fun i _ -> yield (List.filteri (fun j _ -> j <> i) stmts)) stmts;
  List.iteri
    (fun i s ->
      shrink_stmt s (fun s' ->
          yield (List.mapi (fun j x -> if j = i then s' else x) stmts)))
    stmts

and shrink_stmt (s : Ast.stmt) : Ast.stmt QCheck.Iter.t =
 fun yield ->
  match s with
  | Ast.Do (h, blk) ->
      shrink_stmts blk.Ast.body (fun body ->
          if body <> [] then yield (Ast.Do (h, { blk with Ast.body })))
  | Ast.If (c, t, e) ->
      shrink_stmts t (fun t -> if t <> [] then yield (Ast.If (c, t, e)));
      shrink_stmts e (fun e -> yield (Ast.If (c, t, e)))
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* The differential property                                           *)
(* ------------------------------------------------------------------ *)

let run_prog prog = (Interp.Exec.run ~cfg:cedar prog).Interp.Exec.output

(* One seed for all fuzz properties, so a failure anywhere is replayed
   with a single environment variable.  Mirrors qcheck-alcotest's own
   QCHECK_SEED handling, but keeps the value in our hands so failure
   reports can embed the repro command. *)
let seed =
  lazy
    (let s =
       match Sys.getenv_opt "QCHECK_SEED" with
       | Some s -> ( try int_of_string s with _ -> 0)
       | None ->
           Random.self_init ();
           Random.int 1_000_000_000
     in
     Printf.printf "fuzz: seed %d (repro: QCHECK_SEED=%d dune runtest)\n%!" s s;
     s)

let rand () = Random.State.make [| Lazy.force seed |]

(* Called on every failing candidate, including during shrinking — the
   artifact file is overwritten each time, so what survives on disk is
   the most-shrunk counterexample. *)
let report_failure ~prop prog detail =
  let s = Lazy.force seed in
  let text = Printer.program_to_string prog in
  Printf.eprintf
    "--- fuzz failure: %s (seed %d) ---\n%s--- program ---\n%s\nrepro: QCHECK_SEED=%d dune runtest\n%!"
    prop s detail text s;
  (match Sys.getenv_opt "FUZZ_ARTIFACT_DIR" with
  | Some dir when dir <> "" -> (
      try
        let file = Filename.concat dir (Printf.sprintf "%s-seed%d.f" prop s) in
        let oc = open_out file in
        output_string oc text;
        close_out oc;
        Printf.eprintf "fuzz: counterexample saved to %s\n%!" file
      with Sys_error _ -> ())
  | _ -> ());
  false

let preserves ~prop opts prog =
  let orig = run_prog prog in
  let res = R.Driver.restructure opts prog in
  let printed = Printer.program_to_string res.R.Driver.program in
  let reparsed = Parser.parse_program printed in
  let out = run_prog reparsed in
  if orig <> out then
    report_failure ~prop prog
      (Printf.sprintf
         "original output: %srestructured output: %s--- emitted ---\n%s" orig
         out printed)
  else true

(* the full trust-but-verify pipeline: restructure with the validator on,
   then require (a) semantics preserved, (b) the independent static
   checker accepts the printed text, (c) an instrumented run sees no
   races *)
let validated ~prop prog =
  let opts =
    { (R.Options.advanced cedar) with R.Options.validate = true }
  in
  let orig = run_prog prog in
  let res = R.Driver.restructure opts prog in
  let printed = Printer.program_to_string res.R.Driver.program in
  let reparsed = Parser.parse_program printed in
  let out = run_prog reparsed in
  if orig <> out then
    report_failure ~prop prog
      (Printf.sprintf
         "original output: %srestructured output: %s--- emitted ---\n%s" orig
         out printed)
  else
    match Validate.check_source printed with
    | Error msg ->
        report_failure ~prop prog
          (Printf.sprintf "emitted text does not reparse: %s\n" msg)
    | Ok (_ :: _ as issues) ->
        report_failure ~prop prog
          (Printf.sprintf "static validator rejected the emitted code:\n%s\n"
             (String.concat "\n"
                (List.map Validate.issue_to_string issues)))
    | Ok [] ->
        let races, _ = Validate.check_dynamic ~cfg:cedar reparsed in
        if races <> [] then
          report_failure ~prop prog
            (Printf.sprintf "dynamic races in the emitted code:\n%s\n%s\n"
               (String.concat "\n"
                  (List.map Interp.Race.issue_to_string races))
               printed)
        else true

let print_body body = Printer.program_to_string (harness body)
let arbitrary_program =
  QCheck.make gen_body ~print:print_body ~shrink:shrink_stmts

let arbitrary_hard =
  QCheck.make gen_body_hard ~print:print_body ~shrink:shrink_stmts

(* long_factor 50: the nightly job (QCHECK_LONG=1) runs each property at
   50x the PR-gate count *)
let prop_auto =
  QCheck.Test.make ~name:"fuzz: auto restructuring preserves semantics"
    ~count:120 ~long_factor:50 arbitrary_program (fun body ->
      preserves ~prop:"auto" (R.Options.auto_1991 cedar) (harness body))

let prop_advanced =
  QCheck.Test.make ~name:"fuzz: advanced restructuring preserves semantics"
    ~count:120 ~long_factor:50 arbitrary_program (fun body ->
      preserves ~prop:"advanced" (R.Options.advanced cedar) (harness body))

let prop_hard_auto =
  QCheck.Test.make
    ~name:"fuzz: hardened shapes preserve semantics (auto)" ~count:80
    ~long_factor:50 arbitrary_hard (fun body ->
      preserves ~prop:"hard-auto" (R.Options.auto_1991 cedar) (harness body))

let prop_hard_advanced =
  QCheck.Test.make
    ~name:"fuzz: hardened shapes preserve semantics (advanced)" ~count:80
    ~long_factor:50 arbitrary_hard (fun body ->
      preserves ~prop:"hard-advanced" (R.Options.advanced cedar) (harness body))

let prop_validated =
  QCheck.Test.make
    ~name:"fuzz: validated output passes the checker and is race-free"
    ~count:60 ~long_factor:50 arbitrary_hard (fun body ->
      validated ~prop:"validated" (harness body))

let prop_roundtrip =
  QCheck.Test.make ~name:"fuzz: printed programs reparse equal" ~count:120
    ~long_factor:50 arbitrary_program (fun body ->
      let prog = harness body in
      let printed = Printer.program_to_string prog in
      let p2 = Parser.parse_program printed in
      let strip u =
        { u with Ast.u_body = List.map Ast_utils.strip_labels_stmt u.Ast.u_body }
      in
      Ast.equal_program (List.map strip prog) (List.map strip p2))

let tests =
  [
    QCheck_alcotest.to_alcotest ~rand:(rand ()) prop_roundtrip;
    QCheck_alcotest.to_alcotest ~rand:(rand ()) prop_auto;
    QCheck_alcotest.to_alcotest ~rand:(rand ()) prop_advanced;
    QCheck_alcotest.to_alcotest ~rand:(rand ()) prop_hard_auto;
    QCheck_alcotest.to_alcotest ~rand:(rand ()) prop_hard_advanced;
    QCheck_alcotest.to_alcotest ~rand:(rand ()) prop_validated;
  ]

(* ------------------------------------------------------------------ *)
(* Engine agreement: perfmodel vs DES on straight-line/loop programs   *)
(* ------------------------------------------------------------------ *)

(* no IFs: the analytic model averages unknown branches, which would make
   the comparison meaningless; loops and assignments track closely *)
let rec gen_stmt_noif idxs depth : Ast.stmt G.t =
  if depth <= 0 then gen_plain_assign idxs
  else
    G.oneof
      [
        gen_plain_assign idxs;
        (let* lo = G.int_range 3 4 in
         let* hi = G.int_range 8 14 in
         let idx = Printf.sprintf "i%d" (List.length idxs + 1) in
         let* body = gen_stmts_noif (idx :: idxs) (depth - 1) 3 in
         G.return
           (Ast.Do
              ( {
                  Ast.index = idx;
                  lo = Ast.Int lo;
                  hi = Ast.Int hi;
                  step = None;
                  cls = Ast.Seq;
                  locals = [];
                },
                Ast.seq_block body )));
      ]

and gen_plain_assign idxs =
  let* rhs = gen_expr idxs 2 in
  match idxs with
  | [] -> G.return (Ast.Assign (Ast.LVar "s", rhs))
  | _ ->
      let* arr = G.oneofl arrays in
      let* idx = G.oneofl idxs in
      let* sub = gen_subscript idx in
      G.return (Ast.Assign (Ast.LIdx (arr, [ sub ]), rhs))

and gen_stmts_noif idxs depth n =
  let* k = G.int_range 1 n in
  let rec go k acc =
    if k = 0 then G.return (List.rev acc)
    else
      let* s = gen_stmt_noif idxs depth in
      go (k - 1) (s :: acc)
  in
  go k []

let gen_loop_program : Ast.program G.t =
  let* body = gen_stmts_noif [] 3 4 in
  G.return (harness body)

let prop_engines_agree =
  QCheck.Test.make ~name:"perfmodel tracks the DES within 3x on loop programs"
    ~count:60 ~long_factor:50
    (QCheck.make gen_loop_program ~print:Printer.program_to_string)
    (fun prog ->
      let des = (Interp.Exec.run ~cfg:cedar prog).Interp.Exec.cycles in
      let model = (Perfmodel.Model.evaluate ~cfg:cedar prog).Perfmodel.Model.cycles in
      let ratio = model /. des in
      if ratio < 0.33 || ratio > 3.0 then begin
        Printf.eprintf "engine divergence: model %.0f vs des %.0f (%.2fx)\n%s\n"
          model des ratio
          (Printer.program_to_string prog);
        false
      end
      else true)

let tests = tests @ [ QCheck_alcotest.to_alcotest ~rand:(rand ()) prop_engines_agree ]
