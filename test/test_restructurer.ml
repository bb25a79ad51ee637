(* Restructurer integration tests: decisions per technique set, and
   semantics preservation (original vs restructured outputs must match
   under the DES interpreter). *)

open Fortran
module R = Restructurer
module Mach = Machine
module SMap = Ast_utils.SMap

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let cedar = Mach.Config.cedar_config1
let auto = R.Options.auto_1991 cedar
let adv = R.Options.advanced cedar

let restructure opts src = R.Driver.restructure opts (Parser.parse_program src)

let run_src ?(input = []) src =
  (Interp.Exec.run ~input ~cfg:cedar (Parser.parse_program src)).Interp.Exec.output

let run_prog ?(input = []) prog =
  (Interp.Exec.run ~input ~cfg:cedar prog).Interp.Exec.output

(** The central property: restructuring must preserve program output. *)
let check_semantics ?(opts = adv) name src =
  let res = restructure opts src in
  let printed = Printer.program_to_string res.R.Driver.program in
  let reparsed =
    try Parser.parse_program printed
    with Parser.Error (m, l) ->
      Alcotest.failf "%s: restructured source unparsable at %d: %s\n%s" name l m
        printed
  in
  let orig = run_src src in
  let xformed =
    try run_prog reparsed
    with e ->
      Alcotest.failf "%s: restructured program failed: %s\n%s" name
        (Printexc.to_string e) printed
  in
  if orig <> xformed then
    Alcotest.failf "%s: output changed\noriginal : %srestructured: %s\n%s" name
      orig xformed printed;
  res

let decision_of res index =
  match
    List.find_opt
      (fun r -> r.R.Driver.r_index = index)
      res.R.Driver.reports
  with
  | Some r -> r.R.Driver.r_decision
  | None -> "no report"

let has_parallel_loop prog =
  List.exists
    (fun u ->
      Ast_utils.exists_stmt
        (function
          | Ast.Do (h, _) -> Ast.is_parallel h.Ast.cls
          | _ -> false)
        u.Ast.u_body)
    prog

(* ---------- the paper's running example (§3.2) ---------- *)

let paper_example =
  {|
      program p
      real a(200), b(200)
      do i = 1, 200
        b(i) = i*0.5
      enddo
      do i = 1, 200
        t = b(i)
        a(i) = sqrt(t)
      enddo
      s = 0.0
      do i = 1, 200
        s = s + a(i)
      enddo
      print *, s
      end
|}

let test_paper_example () =
  let res = check_semantics "paper example" ~opts:auto paper_example in
  (* the privatization loop must become an XDOALL with expanded t *)
  let printed = Printer.program_to_string res.R.Driver.program in
  Alcotest.(check bool) "contains xdoall" true
    (contains ~affix:"xdoall" (String.lowercase_ascii printed)
     ||
     (* fall back: any parallel loop *)
     has_parallel_loop res.R.Driver.program)

(* ---------- privatization ---------- *)

let test_scalar_privatization_required () =
  (* without scalar privatization the loop must stay serial *)
  let src =
    {|
      program p
      real a(100), b(100)
      do i = 1, 100
        b(i) = i*1.0
      enddo
      do i = 1, 100
        t = b(i)*2.0
        a(i) = t + 1.0
      enddo
      print *, a(100)
      end
|}
  in
  let no_priv =
    R.Options.make
      ~techniques:
        { R.Options.base_techniques with R.Options.scalar_privatization = false }
      cedar
  in
  let res = restructure no_priv src in
  Alcotest.(check bool) "t blocks without privatization" true
    (List.exists
       (fun r ->
         List.exists
           (fun b -> contains ~affix:"scalar t" b)
           r.R.Driver.r_blockers)
       res.R.Driver.reports);
  ignore (check_semantics "privatization" ~opts:auto src)

(* ---------- array privatization (advanced only) ---------- *)

let array_priv_src =
  {|
      program p
      real a(20, 30), b(20, 30), w(30)
      do i = 1, 20
        do j = 1, 30
          a(i, j) = i + j*0.5
        enddo
      enddo
      do i = 1, 20
        do j = 1, 30
          w(j) = a(i, j)*2.0
        enddo
        do j = 1, 30
          b(i, j) = w(j) + w(1)
        enddo
      enddo
      print *, b(20, 30), b(1, 1)
      end
|}

let test_array_privatization () =
  let res_auto = restructure auto array_priv_src in
  let res_adv = check_semantics "array privatization" array_priv_src in
  (* auto blocks on w; advanced privatizes it *)
  let blocked_auto =
    List.exists
      (fun r ->
        List.exists
          (fun b -> contains ~affix:"array w" b)
          r.R.Driver.r_blockers)
      res_auto.R.Driver.reports
  in
  Alcotest.(check bool) "auto blocks on w" true blocked_auto;
  let priv_adv =
    List.exists
      (fun r ->
        List.mem "array privatization" r.R.Driver.r_techniques
        && r.R.Driver.r_decision = "parallelized")
      res_adv.R.Driver.reports
  in
  Alcotest.(check bool) "advanced privatizes w" true priv_adv

(* ---------- array reductions (MDG/BDNA pattern) ---------- *)

let array_red_src =
  {|
      program p
      real a(30), f(20, 30)
      do i = 1, 20
        do j = 1, 30
          f(i, j) = i*0.1 + j
        enddo
      enddo
      do j = 1, 30
        a(j) = 0.0
      enddo
      do i = 1, 20
        do j = 1, 30
          a(j) = a(j) + f(i, j)
          a(j) = a(j) + f(i, j)*0.5
        enddo
      enddo
      s = 0.0
      do j = 1, 30
        s = s + a(j)
      enddo
      print *, s
      end
|}

let test_array_reduction () =
  let res_auto = restructure auto array_red_src in
  let res_adv = check_semantics "array reduction" array_red_src in
  let blocked_auto =
    List.exists
      (fun r ->
        List.exists
          (fun b -> contains ~affix:"array a" b)
          r.R.Driver.r_blockers)
      res_auto.R.Driver.reports
  in
  Alcotest.(check bool) "auto blocks multi-statement array reduction" true
    blocked_auto;
  Alcotest.(check bool) "advanced recognizes array reduction" true
    (List.exists
       (fun r -> List.mem "array reduction" r.R.Driver.r_techniques)
       res_adv.R.Driver.reports)

(* ---------- generalized induction variables (TRFD pattern) ---------- *)

let giv_src =
  {|
      program p
      real a(210)
      kk = 0
      do i = 1, 20
        do j = 1, i
          kk = kk + 1
          a(kk) = i*100.0 + j
        enddo
      enddo
      print *, a(1), a(210), kk
      end
|}

let test_giv_triangular () =
  let res_auto = restructure auto giv_src in
  let res_adv = check_semantics "triangular giv" giv_src in
  let auto_blocked =
    List.exists
      (fun r -> r.R.Driver.r_blockers <> [])
      res_auto.R.Driver.reports
  in
  Alcotest.(check bool) "auto blocks triangular giv" true auto_blocked;
  Alcotest.(check bool) "advanced uses giv" true
    (List.exists
       (fun r ->
         List.mem "generalized induction variable" r.R.Driver.r_techniques)
       res_adv.R.Driver.reports)

(* A v = v + k update under an IF executes a data-dependent number of
   times: it has no closed form and must NOT be recognized as a GIV
   (regression: the substitution used to hoist the guarded update out of
   its IF and drop the variable's final value). *)
let guarded_giv_src =
  {|
      program p
      real a(40)
      do i0 = 1, 40
        a(i0) = i0*2.0
      enddo
      t = 4
      do i = 4, 11
        do j = 3, 10
          if (a(i - 2) .le. a(j + 2)) then
            t = i + 2 + t
          endif
          do k = 4, 7
            s = max(s, t)
          enddo
        enddo
      enddo
      print *, s, t
      end
|}

let test_giv_guarded_update () =
  let res = check_semantics "guarded giv" guarded_giv_src in
  Alcotest.(check bool) "guarded update is not substituted" false
    (List.exists
       (fun r ->
         List.mem "generalized induction variable" r.R.Driver.r_techniques)
       res.R.Driver.reports)

(* ---------- run-time dependence test (OCEAN pattern) ---------- *)

let rt_src =
  {|
      program p
      real a(4000)
      integer n, m, ld
      n = 20
      m = 30
      ld = 40
      do k = 1, 4000
        a(k) = 0.0
      enddo
      do i = 1, n
        do j = 1, m
          a(j + (i - 1)*ld) = a(j + (i - 1)*ld)*0.99 + i + j*0.5
        enddo
      enddo
      s = 0.0
      do k = 1, 4000
        s = s + a(k)
      enddo
      print *, s
      end
|}

let test_runtime_test () =
  let res_adv = check_semantics "runtime dep test" rt_src in
  Alcotest.(check bool) "advanced inserts run-time test" true
    (List.exists
       (fun r ->
         contains ~affix:"two-version" r.R.Driver.r_decision)
       res_adv.R.Driver.reports);
  (* the generated program must contain an IF over the condition *)
  let printed = Printer.program_to_string res_adv.R.Driver.program in
  Alcotest.(check bool) "emits guard" true
    (contains ~affix:".ge." printed)

(* ---------- doacross ---------- *)

let doacross_src =
  {|
      program p
      real a(60), b(60), c(60), d(60), e(60), f(60), g(60), h(60)
      do i = 1, 60
        a(i) = i*0.5
        d(i) = 1.0
        e(i) = 2.0
        f(i) = 0.5
        h(i) = 2.0
      enddo
      b(1) = 1.0
      do i = 2, 60
        c(i) = d(i) + e(i)
        g(i) = f(i)*h(i)
        b(i) = a(i) + b(i - 1)
      enddo
      print *, b(60), c(30), g(30)
      end
|}

let test_doacross () =
  let res = check_semantics "doacross" ~opts:auto doacross_src in
  Alcotest.(check bool) "doacross chosen" true
    (List.exists
       (fun r -> r.R.Driver.r_decision = "doacross")
       res.R.Driver.reports);
  let printed = Printer.program_to_string res.R.Driver.program in
  Alcotest.(check bool) "await emitted" true
    (contains ~affix:"await" printed)

(* ---------- recurrence library substitution ---------- *)

let recurrence_src =
  {|
      program p
      real x(100), b(100), c(100)
      do i = 1, 100
        b(i) = 0.99
        c(i) = 0.01
      enddo
      x(1) = 1.0
      do i = 2, 100
        x(i) = x(i - 1)*b(i) + c(i)
      enddo
      print *, x(100)
      end
|}

let test_recurrence_substitution () =
  let res = check_semantics "recurrence library" ~opts:auto recurrence_src in
  let printed = Printer.program_to_string res.R.Driver.program in
  Alcotest.(check bool) "library call emitted" true
    (contains ~affix:"cedar_slr1" printed)

(* ---------- dotproduct substitution ---------- *)

let dotp_src =
  {|
      program p
      real x(500), y(500)
      do i = 1, 500
        x(i) = 0.5
        y(i) = 2.0
      enddo
      d = 0.0
      do i = 1, 500
        d = d + x(i)*y(i)
      enddo
      print *, d
      end
|}

let test_dotp_substitution () =
  let res = check_semantics "dotp library" ~opts:auto dotp_src in
  let printed = Printer.program_to_string res.R.Driver.program in
  Alcotest.(check bool) "cedar_dotp emitted" true
    (contains ~affix:"cedar_dotp" printed)

(* ---------- fusion (FLO52 pattern) ---------- *)

let fusion_src =
  {|
      program p
      real a(100), b(100), c(100)
      do i = 1, 100
        c(i) = i*1.0
      enddo
      do i = 1, 100
        a(i) = c(i)*2.0
      enddo
      scale = 3.0
      do i = 1, 100
        b(i) = a(i) + scale
      enddo
      print *, b(100)
      end
|}

let test_fusion () =
  let res = check_semantics "fusion" fusion_src in
  (* count parallel loops in output: fusion should have merged bodies *)
  let count_loops prog =
    List.fold_left
      (fun acc u ->
        Ast_utils.fold_stmts
          (fun acc s -> match s with Ast.Do _ -> acc + 1 | _ -> acc)
          acc u.Ast.u_body)
      0 prog
  in
  let res_nofuse = restructure auto fusion_src in
  Alcotest.(check bool) "fusion reduces loop count" true
    (count_loops res.R.Driver.program
     < count_loops res_nofuse.R.Driver.program)

(* ---------- nested loops become SDOALL/CDOALL ---------- *)

let nest_src =
  {|
      program p
      real c(200, 200), d(200, 200)
      do i = 1, 200
        do j = 1, 200
          d(i, j) = i + j*0.1
        enddo
      enddo
      do i = 1, 200
        do j = 1, 200
          c(i, j) = d(i, j)*2.0
        enddo
      enddo
      print *, c(200, 200)
      end
|}

let test_nest_modes () =
  let res = check_semantics "nest modes" ~opts:auto nest_src in
  let printed = String.lowercase_ascii (Printer.program_to_string res.R.Driver.program) in
  Alcotest.(check bool) "spread loop used" true
    (contains ~affix:"sdoall" printed
    || contains ~affix:"xdoall" printed)

(* ---------- semantics preservation corpus ---------- *)

let corpus =
  [
    ("paper example", paper_example);
    ("array priv", array_priv_src);
    ("array red", array_red_src);
    ("giv", giv_src);
    ("runtime", rt_src);
    ("doacross", doacross_src);
    ("recurrence", recurrence_src);
    ("dotp", dotp_src);
    ("fusion", fusion_src);
    ("nest", nest_src);
  ]

let test_corpus_auto () =
  List.iter (fun (n, src) -> ignore (check_semantics (n ^ " [auto]") ~opts:auto src)) corpus

let test_corpus_advanced () =
  List.iter (fun (n, src) -> ignore (check_semantics (n ^ " [adv]") src)) corpus

(* ---------- minimized fuzz counterexamples ---------- *)

(* The fuzz harness cut down to what these programs need: a(i0) = i0,
   s = 3, t = 4, then [body], then s and t printed.  Each body once
   changed the printed output (or made the restructured program raise). *)
let fuzz_case body =
  Printf.sprintf
    {|
      program p
      real a(40)
      do i0 = 1, 40
        a(i0) = i0
      enddo
      s = 3
      t = 4
%s
      print *, s, t
      end
|}
    body

let check_fuzz_case ?(sets = [ ("auto", auto); ("advanced", adv) ]) name body
    =
  List.iter
    (fun (set, opts) ->
      ignore
        (check_semantics
           (Printf.sprintf "%s [%s]" name set)
           ~opts (fuzz_case body)))
    sets

(* a max search whose operand reads the accumulator is no search *)
let test_max_reads_accumulator () =
  check_fuzz_case "max reads its accumulator"
    {|
      do i2 = 3, 9
        t = max(t, a(i2)*t)
      enddo|}

(* nor is s = s + x*s a dot product *)
let test_dot_reads_accumulator () =
  check_fuzz_case "dot product reads its accumulator"
    {|
      do i1 = 4, 9
        do i2 = 3, 9
          s = s + a(i2)*s
        enddo
      enddo|}

(* a scalar operand of a dot product has no vector length *)
let test_dot_scalar_operand () =
  check_fuzz_case "dot product with a scalar operand"
    {|
      do i1 = 4, 9
        do i2 = 3, 9
          s = s + 1*a(i2)
        enddo
      enddo|}

(* the induction variable s is substituted in DO i1 and read after it *)
let test_giv_final_value () =
  check_fuzz_case ~sets:[ ("advanced", adv) ] "induction final value"
    {|
      do i1 = 3, 10
        s = s - t
        do i2 = 3, 12
          a(i2 - 2) = a(i2 - 2) + (s - t)
        enddo
      enddo|}

(* t advances in DO i2 and keeps advancing across DO i1's iterations *)
let test_giv_across_nest () =
  check_fuzz_case ~sets:[ ("advanced", adv) ] "induction across a nest"
    {|
      do i1 = 3, 12
        do i2 = 3, 11
          a(i1 + 2) = a(i1 + 2) + 9
          t = t + (i1 + i1)
          a(i2 + 1) = a(i2 + 1) + t
        enddo
      enddo|}

(* ---------- DOACROSS exits ---------- *)

(* A DOACROSS loop goes through the DOALL path's exits: its induction
   variables are substituted (paper §4.1.4), not raced on, and a live
   index gets its exit value.  The loop must stay a DOACROSS with the
   validator on, so the plan's await lands before the first sink of the
   substituted body. *)
let check_doacross_exits name src =
  List.iter
    (fun (set, opts) ->
      let label = Printf.sprintf "%s [%s]" name set in
      ignore (check_semantics label ~opts src);
      let res = restructure { opts with R.Options.validate = true } src in
      Alcotest.(check (list string))
        (label ^ ": DO i decisions under validation")
        [ "doacross"; "parallelized" ]
        (List.filter_map
           (fun r ->
             if r.R.Driver.r_index = "i" then Some r.R.Driver.r_decision
             else None)
           res.R.Driver.reports))
    [ ("auto", auto); ("advanced", adv) ]

let test_doacross_induction () =
  check_doacross_exits "doacross substitutes its induction variable"
    {|
      program p
      real a(40), b(40), c(40)
      do i = 1, 40
        a(i) = i
        b(i) = 2*i
        c(i) = 0
      enddo
      k = 0
      do 20 i = 3, 40
        k = k + 1
        a(i) = a(i - 1) + b(k)
        c(i) = a(i)*2.0 + b(i)*3.0 + a(i)*b(i) + k
   20 continue
      print *, k, a(40), c(40)
      end
|}

(* the c(i) statement lies outside the synchronized region, which keeps
   the DOACROSS profitable however the loop is spelled *)
let live_index_src =
  {|
      program p
      real a(40), b(40), c(40)
      do i = 1, 40
        a(i) = i
        b(i) = 2*i
      enddo
      do 20 i = 3, 40
        a(i) = a(i - 1) + b(i)
        b(i) = a(i)*2.0 + b(i)*3.0 + a(i)*b(i) + b(i - 1)*a(i)
        c(i) = a(i)*b(i) + a(i)*3.0 + b(i)*5.0
   20 continue
      print *, i, a(40), b(40), c(40)
      end
|}

let test_doacross_live_index () =
  check_doacross_exits "doacross restores a live index" live_index_src

(* the same loop with its whole body synchronized *)
let all_synchronized_src =
  {|
      program p
      real a(40), b(40)
      do i = 1, 40
        a(i) = i
        b(i) = 2*i
      enddo
      do 20 i = 3, 40
        a(i) = a(i - 1) + b(i)
        b(i) = a(i)*2.0 + b(i)*3.0 + a(i)*b(i) + b(i - 1)*a(i)
   20 continue
      print *, i, a(40), b(40)
      end
|}

(* [DO 20 i ... 20 CONTINUE] respelled [DO i ... ENDDO] *)
let enddo_spelling src =
  String.split_on_char '\n' src
  |> List.map (fun line ->
         match String.trim line with
         | "20 continue" -> "      enddo"
         | t when String.length t > 6 && String.sub t 0 6 = "do 20 " ->
             "      do " ^ String.sub t 6 (String.length t - 6)
         | _ -> line)
  |> String.concat "\n"

(* A label and a CONTINUE are no work: both spellings of a loop get the
   same synchronization fraction and the same decision.  The labelled
   spelling of the fully synchronized loop used to weigh its CONTINUE and
   label, get a fraction of 0.5 and run as a DOACROSS, while ENDDO got
   1.0 and stayed serial. *)
let test_doacross_spelling () =
  List.iter
    (fun (name, src) ->
      let respelled = enddo_spelling src in
      Alcotest.(check bool) (name ^ ": respelled") true (respelled <> src);
      let body_of src =
        match Parser.parse_program src with
        | [ u ] -> (
            match
              List.filter_map
                (function
                  | Ast.Do (_, blk) | Ast.Labeled (_, Ast.Do (_, blk)) ->
                      Some blk.Ast.body
                  | _ -> None)
                u.Ast.u_body
            with
            | [ _; body ] -> body
            | _ -> Alcotest.fail "expected two loops")
        | _ -> Alcotest.fail "expected one unit"
      in
      let plan =
        {
          Transform.Doacross.dx_first_sink = 0;
          dx_last_source = 1;
          dx_distance = 1;
        }
      in
      Alcotest.(check (float 1e-12))
        (name ^ ": sync fraction")
        (Transform.Doacross.sync_fraction plan (body_of src))
        (Transform.Doacross.sync_fraction plan (body_of respelled));
      List.iter
        (fun (set, opts) ->
          let verdicts src =
            List.filter_map
              (fun r ->
                if r.R.Driver.r_index = "i" then
                  Some
                    ( r.R.Driver.r_decision,
                      Option.fold ~none:"-" ~some:R.Cost_model.show_mode
                        r.R.Driver.r_mode )
                else None)
              (restructure opts src).R.Driver.reports
          in
          Alcotest.(check (list (pair string string)))
            (Printf.sprintf "%s [%s]: DO i verdicts" name set)
            (verdicts src) (verdicts respelled))
        [ ("auto", auto); ("advanced", adv) ])
    [
      ("partly synchronized", live_index_src);
      ("wholly synchronized", all_synchronized_src);
    ];
  Alcotest.(check string) "wholly synchronized stays serial"
    "serial (doacross unprofitable)"
    (decision_of (restructure auto all_synchronized_src) "i")

(* ---------- an explicitly REAL I-N scalar keeps its type ---------- *)

(* Globalization used to mark the [real k] record itself, which then read
   as a bare CLUSTER line: K was typed INTEGER by the implicit rule, and
   the program printed 1 instead of 1.5. *)
let real_k_src =
  {|
      program p
      real k
      k = 2.0
      print *, (k + 1) / 2
      end
|}

let test_real_in_scalar () =
  let orig = run_src real_k_src in
  Alcotest.(check string) "original output" "1.5 \n" orig;
  List.iter
    (fun (set, opts) ->
      let res = check_semantics ("real k [" ^ set ^ "]") ~opts real_k_src in
      Alcotest.(check string)
        (set ^ ": output of the restructured AST")
        orig (run_prog res.R.Driver.program);
      let omp =
        Codegen.Emit.program_to_string ~target:Codegen.Target.Openmp
          res.R.Driver.program
      in
      let k_decls =
        String.split_on_char '\n' omp
        |> List.map String.trim
        |> List.filter (String.ends_with ~suffix:" k")
      in
      Alcotest.(check (list string))
        (set ^ ": OpenMP declares k once")
        [ "real k" ] k_decls)
    [ ("auto", auto); ("advanced", adv) ]

(* ---------- output pinned beyond the corpus goldens ---------- *)

(* MD5 over a job's emitted text, its loop reports and its modelled
   cycles (as %h) *)
let job_digest memo (r : Service.Server.request) =
  let opts = r.Service.Server.req_options in
  let prog = Parser.parse_program r.Service.Server.req_source in
  let res = R.Driver.restructure ~memo opts prog in
  let text =
    Codegen.Emit.program_to_string ~target:opts.R.Options.target
      res.R.Driver.program
  in
  let cycles =
    match
      Perfmodel.Model.evaluate ~cfg:opts.R.Options.machine res.R.Driver.program
    with
    | run -> Printf.sprintf "%h" run.Perfmodel.Model.cycles
    | exception _ -> "-"
  in
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (text :: cycles
          :: List.map R.Driver.report_to_string res.R.Driver.reports)))

(* One digest per request, recorded before each unit's symbol table was
   built once and liveness walked in one pass: the first 64 requests of
   seed 1 in the benchmark's cold shape (Cedar, jitter 32, batch 4) and
   rebatch shape (OpenMP, validate on, jitter 0, batch 4), all through
   one memo.  Cold requests 0, 15, 16, 22, 30, 44 and 58, the
   advanced-set batches holding OCEAN, were pinned again once a
   substituted induction variable's final value was emitted only when
   live (OCEAN's [kk = kk*2**7] is dead). *)
let pinned_cold =
  [
    "b67b57085847f4912ddaba304e3954dd";
    "a389797aef235426bddc005e9d795a42";
    "46745a7d648328304b260502fa9b1146";
    "b3aedb6ff4bfa08e6aca62ee98f06340";
    "f4a00ff36b9b1495cbb45cbcc8b41540";
    "6b498da32933cece69a4e0744174b3f9";
    "cab12bb99736fa156f0f43f05059d3dd";
    "98cae62718ebb88a22fb7560246b107b";
    "caa06a1010a8a435d9c9ab87552a0b93";
    "248239a95e030449633558e0b55133a2";
    "c122d7315cb7d701a233fb1f02ffb076";
    "822a4814a5b0983079e2f2d04344c3bb";
    "f4d8281375a52ebc48a16e5009902537";
    "1232ae76c408d911268ee67e02cd66cc";
    "96f9918159e456cbdade09b4eed1b1be";
    "c535ae4b636595f476f0562195b4e5ed";
    "7d013108c3e064fac72c039ea77e2773";
    "71c87118994eca7c84ca1aef30e9c3c9";
    "d2d680ecbe51c385d3cb96426cdd1383";
    "054b4b342ff50fab5ccaca6364db32f7";
    "8d59521456ade90701529ec9bda02501";
    "eb6fd4fda3f8cdd54411e9babe2ef812";
    "59997332151902c766230b6b4f20ad62";
    "5ae9913b16c0215aa9a780a35c0913f6";
    "b39b9efb5e4c007ca33688a610a76a0c";
    "6921f56fe28de0575f5ef3e836b78948";
    "3907312140fbd0f0c6067daf9b59ffc5";
    "07562cbd30656d784d70093cc929c9cc";
    "b398eb23782d76617e0ef0469ae1463e";
    "f74dd02ccfecb8445d083fdff25327d7";
    "53dfdbdd7b12a39c59a5a1b6772739c6";
    "3ff07c7868a0e494de6053122c22d51a";
    "c4ecae08beedaf2c7fecbc93926da0c8";
    "06867e9a597fcf5516eec86b47ad9c01";
    "9a28ba535720b7afde282d34d610cfd2";
    "6e3c6438fbd3bd8a718c55819a27648e";
    "273d0f44d57a064d0631323de00b8817";
    "89dd15027ea08491e2a22901c0b757c3";
    "d8c4387a2ecb77d810a94c4dc3f1b46c";
    "937b09dc15debdb05f73052068c305f5";
    "83b204c7329d1e26d7bae77b33098a06";
    "9b09d67e7d5e148e5d633dace0c579d8";
    "8a86ffe7b2a0f44dd7650b2288944c51";
    "5ef8f6005b81ff8dccc8fdebc0b98cde";
    "f80de0c65c47309d5b056e857ebfd6b8";
    "a9aebb5e5f12754b563e6074a1dd2cf8";
    "1ee94a87e1bf7c5bc23ebbda672ca962";
    "3b5b7946cd21a6befceac5d2a78a3278";
    "f3d1cc6240b2dbbc50dbd84b27c1d83f";
    "53aa16d7b092094181cbcdac10332e9f";
    "4c29699bf3024ad554d6d35e399674aa";
    "710588c214d0714762f3082a566832e6";
    "7b324a521a87aab2415427ee5e8a0218";
    "42e1e20a4c1b6ba9ff7e5adddc3c6d00";
    "0c6c46ba24e45914055127d582cfdeb2";
    "309a75bd1aca7bc0431c945a8f07a287";
    "4147cd2e2d7f1bc23fc31ff7f38cb1a1";
    "7c0ef63806e3dd7d6d838d9be4f39a2f";
    "85547d4c035ada7b01e5de0b782ec159";
    "d2a3165267799856841b4bee53a2c588";
    "e8ef0b66915d646e7eb114186c41a482";
    "49937531ba47dc4c767a32a9263b77b7";
    "260e009ba8bc8fa85d40ff7b694e537b";
    "124c29aa846b9585cfcf1c70de9e99d8";
  ]

let pinned_rebatch =
  [
    "4d075bd477722d392529bda59987545b";
    "3d16bac65ad5e5d13fda9a80c51fa42e";
    "bf97fdfc218bf9e507ad658017ab547d";
    "17323083cc89978943f7bf2cb51b2830";
    "28cd2be8cee3f30131877aaea76f4d12";
    "3832d597925a0c20e90e0b5629f4b490";
    "bf26f452c527ea258762f197752d50e9";
    "7e1c9b4cbaea19615c99349c4c71ff31";
    "012d320c49f75bc669dfa2f2c9e9cc1a";
    "d43ec8e6d6d56fe838e19200fffccf20";
    "a87a694dabda9f0fd8c4cbaf421edb47";
    "ccddb71d36272cd3f7ae7087208f37c8";
    "ca7dacd110668d8f8de8b27c10de8d1f";
    "03b89e9de1f7799834cb11c485db4de4";
    "40cc38ca31d4eeca0b459c0131e14571";
    "30b4e8ead8c155777d1b1232717fd55a";
    "1cd5581585fba9a38eddab8a7deb31e3";
    "c93377a7d60881ff1f0576f7b1f3a64f";
    "4e292e245b4c5607499b486b5e63491a";
    "44be96eb3f4b6e2a6aa3d517b22e7815";
    "3dce87e52d9747cb5911d5e9e4048671";
    "d4ae8e369ae5ca40cb87defa1d7fb2f0";
    "d76dd4d89c02e2b00f544ebdb4050195";
    "2b132bf93ce2bc7d742275b07cb44418";
    "ebc71376df35292e0e3febeca2b6e2cf";
    "b9d3df11b5d4eadeb9cd59f08ca7f1d7";
    "b7951642a8a5fc850b1d0aef3018f09f";
    "362424e23cd627ecbb46cb23d2278ba3";
    "b89e188d56aadf23c5489facf80529e3";
    "585aa6010ba9ca1d5a7daa2f5102465a";
    "34a97cbf6f4182da33152dd8e264ba52";
    "673944ae1d80caf4b8ae27b3ee4ce86a";
    "bddbe4a449adeeb2950c395b68cf18df";
    "549a333463f2b19172162e2f4d442ff8";
    "7c972121293f1ed382980e97b5a04bdb";
    "66cd424c92c8ffa5b8f9e3ffcfa492df";
    "b4ceae43c71de3ca7f3355e0b35288e2";
    "8cd6169f2cc305e80b7c825e88db69ed";
    "27b42e68d664c8bf5db25c301f9006e8";
    "4d8e04b7a8556077fa6a3b901dede469";
    "db9b505ab53c65fce0b4a624bb2e82d9";
    "45628d829c42ef029ffc02f1f11aaf5a";
    "5e229450f67b7e6a3010f4096190ff22";
    "74fea01500828c7b312eb6cfd1969803";
    "d79a2d0cbc0fb87a8660b26fe030ce2f";
    "f29042f610425ede884cd6a72b40b4e4";
    "9ef4181f892f35615f21f5fd1ca3b383";
    "caacfda12435f51312cfec95e5d753bc";
    "2fb165c60e12a922f14045c1ab5bd06a";
    "32ad9b16e189a8a2a8b3b00fc3c4b772";
    "bb94b37962c725db6d2fcf0028a983d0";
    "582c196abb6fc95dba9826b2fa59f7fc";
    "550607d4a23c8cb172d6874b8f18d31c";
    "0e792442e1a0e80fca51578afe130b5f";
    "5518813b149215d04c171964b7762bf6";
    "cc0e69150154c59d325f75f77eedec3e";
    "90d5e614e4ab45eb6af480fd1d219182";
    "b7853c8d5ac1582fed76211e7174fe5a";
    "2214f91ccd81a5229178ec38ec570535";
    "ef709af111ff62aa2bb5de10b1c3a835";
    "5742a9fec3da4316acad94969347d1bf";
    "c3057409286488f59a9601766405c8a4";
    "8572fc2a5348751059c1cf8984f39b48";
    "dfa563a155566f012d1df068e666788f";
  ]

let test_output_pinned () =
  let memo = R.Driver.create_memo () in
  let shape label ~validate ~target ~jitter pins =
    List.iteri
      (fun i want ->
        let r =
          Service.Traffic.nth_request ~validate ~target ~seed:1
            ~size_jitter:jitter ~batch:4 i
        in
        Alcotest.(check string)
          (Printf.sprintf "%s request %d" label i)
          want (job_digest memo r))
      pins
  in
  shape "cold" ~validate:false ~target:Codegen.Target.Cedar ~jitter:32
    pinned_cold;
  shape "rebatch" ~validate:true ~target:Codegen.Target.Openmp ~jitter:0
    pinned_rebatch;
  (* the memo's partition of these nests, captured when the key renamed
     names to their sorted rank: a key that merged or split nests
     differently moves these counts *)
  let st = R.Driver.memo_stats memo in
  Alcotest.(check (list int))
    "memo hits, misses, evictions" [ 708; 1100; 553 ]
    [ st.R.Memo.st_hits; st.R.Memo.st_misses; st.R.Memo.st_evictions ]

(* ---------- what the validator reads, pinned ---------- *)

(* The 64 rebatch-shaped requests above, each restructured and printed
   for both targets, with its OpenMP text lifted back to Cedar and the
   validator's verdict on it. *)
type validated_job = {
  vj_source : string;
  vj_cedar : string;
  vj_omp : string;
  vj_lifted : string;
  vj_verdict : string;
}

let validated_jobs =
  lazy
    (let memo = R.Driver.create_memo () in
     List.init 64 (fun i ->
         let r =
           Service.Traffic.nth_request ~validate:true
             ~target:Codegen.Target.Openmp ~seed:1 ~size_jitter:0 ~batch:4 i
         in
         let opts = r.Service.Server.req_options in
         let prog =
           (R.Driver.restructure ~memo opts
              (Parser.parse_program r.Service.Server.req_source))
             .R.Driver.program
         in
         let emit target = Codegen.Emit.program_to_string ~target prog in
         let omp = emit Codegen.Target.Openmp in
         {
           vj_source = r.Service.Server.req_source;
           vj_cedar = emit Codegen.Target.Cedar;
           vj_omp = omp;
           vj_lifted =
             (match Codegen.Openmp.lift_source omp with
             | Ok s -> s
             | Error m -> "lift error: " ^ m);
           vj_verdict =
             (match Validate.check_output ~target:Codegen.Target.Openmp omp with
             | Ok issues ->
                 String.concat "\n" ("ok" :: List.map Validate.issue_to_string issues)
             | Error m -> "error: " ^ m);
         }))

let md5 s = Digest.to_hex (Digest.string s)

let check_pins label want got =
  if want <> got then
    Alcotest.failf "%s moved; now:\n%s" label
      (String.concat "\n" (List.map (Printf.sprintf "    %S;") got))

(* Per request: MD5 of the lifted text, MD5 of the verdict.  Recorded
   before the text path was rewritten to lex by index and print into
   the buffer. *)
let pinned_lift =
  [
    "0149b6c628c75e58d67ae184c587bb4c 444bcb3a3fcf8389296c49467f27e1d6";
    "38cc573316fff70c30140f199e8d5000 444bcb3a3fcf8389296c49467f27e1d6";
    "b13b41f2d57f15938d8bc2c1f92dbaa7 444bcb3a3fcf8389296c49467f27e1d6";
    "470990ce840e85e2f5dce25b81b1839c 444bcb3a3fcf8389296c49467f27e1d6";
    "284387f5ed11ae398100542faea13498 444bcb3a3fcf8389296c49467f27e1d6";
    "6a19b2715c63ac162bfc6ff868990092 444bcb3a3fcf8389296c49467f27e1d6";
    "c5958339daaee8c739877dadcb6566a4 444bcb3a3fcf8389296c49467f27e1d6";
    "1e978698e5c1424b3837ccb5f33ed99e 444bcb3a3fcf8389296c49467f27e1d6";
    "6823a691a4692aca360df128183305f4 444bcb3a3fcf8389296c49467f27e1d6";
    "768dfa2b07c782e4176a4b7679c08151 444bcb3a3fcf8389296c49467f27e1d6";
    "df47b0f310ce0c4251d28700c10942b4 444bcb3a3fcf8389296c49467f27e1d6";
    "9d06ca01bb3b9638fa87bfdc71672e2f 444bcb3a3fcf8389296c49467f27e1d6";
    "90f1bfb3d1b6f279784c8b7c0cd344f0 444bcb3a3fcf8389296c49467f27e1d6";
    "5583ace35eda498be188c4751b7561f0 444bcb3a3fcf8389296c49467f27e1d6";
    "22c248029584ed47fd2e9b7eea8cfaf2 444bcb3a3fcf8389296c49467f27e1d6";
    "1eccf49ec7420f75e29ca59a04319c27 444bcb3a3fcf8389296c49467f27e1d6";
    "11e5360fba6047bd7b38a16d620e5ec4 444bcb3a3fcf8389296c49467f27e1d6";
    "f14174dd96c1dbed148d873e0bb4a26c 444bcb3a3fcf8389296c49467f27e1d6";
    "b9ffa0278357eccb6df1459c05dbbada 444bcb3a3fcf8389296c49467f27e1d6";
    "e5212696d24c10f26be2085f9f4ace6b 444bcb3a3fcf8389296c49467f27e1d6";
    "50a1a729a49bfa2ee998b4f5e0cd6242 444bcb3a3fcf8389296c49467f27e1d6";
    "f9af629915862213719a50423bafa9d9 444bcb3a3fcf8389296c49467f27e1d6";
    "412e82eddc984848783ccfce1b81c7f3 444bcb3a3fcf8389296c49467f27e1d6";
    "a8a4e40bf0cd5c12b9e36d6bf239447a 444bcb3a3fcf8389296c49467f27e1d6";
    "7a5f91c42ad9d260000262377e8a7e0e 444bcb3a3fcf8389296c49467f27e1d6";
    "ca7ff5ed76779225d4755319f665bc02 444bcb3a3fcf8389296c49467f27e1d6";
    "979c965fd2f994fc8679fdcda782bfa4 444bcb3a3fcf8389296c49467f27e1d6";
    "09a41e71a6c06d191d04ea8eef2b10d1 444bcb3a3fcf8389296c49467f27e1d6";
    "b596ade1b140100d49cb614c74ed9449 444bcb3a3fcf8389296c49467f27e1d6";
    "b8a247bcaec77e5edca2a17b48030cd1 444bcb3a3fcf8389296c49467f27e1d6";
    "6b857be9e0682e37df312e30f339b2be 444bcb3a3fcf8389296c49467f27e1d6";
    "662a28417fc46cd83c426ba495073501 444bcb3a3fcf8389296c49467f27e1d6";
    "a3db62b90a3ff10b4982310f6a9ee453 444bcb3a3fcf8389296c49467f27e1d6";
    "3616dc6cd642ffc903bf80e20544d81f 444bcb3a3fcf8389296c49467f27e1d6";
    "e1c2e96304c9b15a63cc2260f017673a 444bcb3a3fcf8389296c49467f27e1d6";
    "92367a1317a2f3509c233b1dacc93e5d 444bcb3a3fcf8389296c49467f27e1d6";
    "846271b6147f319e189b22680321a1a4 444bcb3a3fcf8389296c49467f27e1d6";
    "5f0c691eec5b5d41819ff8b5f6e83950 444bcb3a3fcf8389296c49467f27e1d6";
    "4c512f584027cd6b45e666f635f45ece 444bcb3a3fcf8389296c49467f27e1d6";
    "f418147c94a2af931e0a34649fa541c4 444bcb3a3fcf8389296c49467f27e1d6";
    "b595d26a6e1059a062d4de6888a87cb5 444bcb3a3fcf8389296c49467f27e1d6";
    "34d1b97d71c50fae785cab96363bae96 444bcb3a3fcf8389296c49467f27e1d6";
    "b0e0d225ef95f913375f801e2b435682 444bcb3a3fcf8389296c49467f27e1d6";
    "b67bdc1578412a061b5d15364da91e9b 444bcb3a3fcf8389296c49467f27e1d6";
    "52dd717198ab17839109443a7f1e5155 444bcb3a3fcf8389296c49467f27e1d6";
    "806598301c2e285c83c6a852c4566c0d 444bcb3a3fcf8389296c49467f27e1d6";
    "ef5ab5455a4423c8023495a9bb5a8588 444bcb3a3fcf8389296c49467f27e1d6";
    "4b4297524384cf4b8b25f196009506a8 444bcb3a3fcf8389296c49467f27e1d6";
    "3b768bce5f800e45cd5e13381d0bcd94 444bcb3a3fcf8389296c49467f27e1d6";
    "ecb08a46f227c2968df3d642f1ee9e6f 444bcb3a3fcf8389296c49467f27e1d6";
    "2b1310099345cb438aaee07bced9f24d 444bcb3a3fcf8389296c49467f27e1d6";
    "267b45e2ef638dc499d5e5c53080ec5d 444bcb3a3fcf8389296c49467f27e1d6";
    "53ce8bc8c12342fea220d735e07b3b4f 444bcb3a3fcf8389296c49467f27e1d6";
    "beedd9a594cfc2aec0d6df2008391a38 444bcb3a3fcf8389296c49467f27e1d6";
    "c1e924aae8d0c2f2feb2e801383aa869 444bcb3a3fcf8389296c49467f27e1d6";
    "48253ba20036921671ab8dde1d9b7817 444bcb3a3fcf8389296c49467f27e1d6";
    "49750423d272235575ac75c097bef3a4 444bcb3a3fcf8389296c49467f27e1d6";
    "7a94fa9a7d6c5c68e0127554717da53d 444bcb3a3fcf8389296c49467f27e1d6";
    "c123fcfa4974839661111be1363d9215 444bcb3a3fcf8389296c49467f27e1d6";
    "cca9dae40c9624f180b6968a6f6a9183 444bcb3a3fcf8389296c49467f27e1d6";
    "5f14c9005fdcceb1ed8ea67aef0f7ab7 444bcb3a3fcf8389296c49467f27e1d6";
    "a4603ccfef343a6bf77982f417722355 444bcb3a3fcf8389296c49467f27e1d6";
    "4beeed091fd807267d3bf416dbe08eac 444bcb3a3fcf8389296c49467f27e1d6";
    "101dbef0f212544872dae2618b7f5fd5 444bcb3a3fcf8389296c49467f27e1d6";
  ]

let test_lift_pinned () =
  check_pins "lift and verdict digests" pinned_lift
    (List.map
       (fun j -> md5 j.vj_lifted ^ " " ^ md5 j.vj_verdict)
       (Lazy.force validated_jobs))

(* A deterministic PRNG of our own, so the mutants do not depend on the
   standard library's generator. *)
let lcg seed =
  let s = ref seed in
  fun bound ->
    s := (!s * 0x5DEECE66D + 0xB) land ((1 lsl 48) - 1);
    (!s lsr 16) mod bound

(* [count] small mutants: a run of 1-12 lines cut from one of [bases],
   then 1-4 edits drawn from characters and snippets the lexer treats
   specially (continuations, quotes, comments, labels, dots). *)
let lexer_mutants ~seed ~count bases =
  let rand = lcg seed in
  let bases = Array.of_list bases in
  let alphabet = " &'!\n\tc*.0123456789aeEdD=(),+-/:<>@_x\rC" in
  let snippets =
    [| "\n     &"; " &\n"; "\n& "; "''"; ".and."; ".foo."; "!"; "\nc";
       "\n100 "; "\n     0"; "1.5d-3"; ".5e"; "'it''s'"; "\n*"; "&";
       "\n  12 "; "\n\n"; "      " |]
  in
  List.init count (fun _ ->
      let base = bases.(rand (Array.length bases)) in
      let lines = Array.of_list (String.split_on_char '\n' base) in
      let first = rand (Array.length lines) in
      let len = min (1 + rand 12) (Array.length lines - first) in
      let b =
        Buffer.of_seq
          (String.to_seq (String.concat "\n" (Array.to_list (Array.sub lines first len))))
      in
      for _ = 0 to rand 4 do
        let s = Buffer.contents b in
        let n = String.length s in
        let p = rand (n + 1) in
        let ins =
          match rand 3 with
          | 0 -> String.make 1 alphabet.[rand (String.length alphabet)]
          | 1 -> snippets.(rand (Array.length snippets))
          | _ -> ""
        in
        let drop = if rand 2 = 0 && p < n then 1 + rand (min 3 (n - p)) else 0 in
        Buffer.clear b;
        Buffer.add_string b (String.sub s 0 p);
        Buffer.add_string b ins;
        Buffer.add_string b (String.sub s (p + drop) (n - p - drop))
      done;
      Buffer.contents b)

(* a 19-digit run can overflow an OCaml int, which the lexer once raised
   as [Failure]; such inputs are left to the typed-error tests *)
let has_long_digit_run s =
  let run = ref 0 and long = ref false in
  String.iter
    (fun c ->
      if c >= '0' && c <= '9' then (
        incr run;
        if !run >= 19 then long := true)
      else run := 0)
    s;
  !long

let lex_text src =
  let b = Buffer.create 4096 in
  (match Lexer.lex src with
  | lines ->
      List.iter
        (fun (l : Token.line) ->
          Printf.bprintf b "%d %d" l.Token.label l.Token.lineno;
          List.iter
            (fun t ->
              Buffer.add_char b ' ';
              match t with
              | Token.RealLit f -> Printf.bprintf b "RealLit %h" f
              | t -> Buffer.add_string b (Token.show t))
            l.Token.tokens;
          Buffer.add_char b '\n')
        lines
  | exception Lexer.Error (m, l) -> Printf.bprintf b "error %d %s\n" l m);
  Buffer.contents b

let lexer_inputs () =
  let corpus =
    List.map
      (fun w -> w.Workloads.Workload.source w.Workloads.Workload.small_size)
      (Service.Traffic.corpus ())
  in
  let jobs =
    List.concat_map
      (fun j -> [ j.vj_source; j.vj_cedar; j.vj_omp; j.vj_lifted ])
      (Lazy.force validated_jobs)
  in
  let bases = corpus @ jobs in
  bases
  @ List.filter
      (fun s -> not (has_long_digit_run s))
      (lexer_mutants ~seed:19 ~count:4000 bases)

(* One MD5 over the token lines (or the error) of every input: the
   corpus, the 64 requests' sources and their emitted Cedar, OpenMP and
   lifted texts, and 4000 mutants of them.  Recorded before the lexer
   was rewritten to scan the source once by index. *)
let pinned_tokens = "320f0d72b8309492aa5d1e58afb42041"

let test_tokens_pinned () =
  let inputs = lexer_inputs () in
  let digest = md5 (String.concat "" (List.map (fun s -> md5 (lex_text s)) inputs)) in
  Alcotest.(check string)
    (Printf.sprintf "token lines of %d inputs" (List.length inputs))
    pinned_tokens digest

let workload_programs () =
  List.map
    (fun w ->
      ( w.Workloads.Workload.name,
        Parser.parse_program
          (w.Workloads.Workload.source w.Workloads.Workload.small_size) ))
    (Workloads.Linalg.all @ Workloads.Perfect.all)

let same_table label (a : Symbols.t) (b : Symbols.t) =
  Alcotest.(check bool)
    label true
    (SMap.bindings a.Symbols.syms = SMap.bindings b.Symbols.syms
    && a.Symbols.params = b.Symbols.params
    && a.Symbols.unit_name = b.Symbols.unit_name
    && a.Symbols.formals = b.Symbols.formals)

(* The tables Interproc hands out are the ones [Symbols.of_unit] builds,
   and globalizing with the driver's table (built before the body was
   transformed) equals globalizing with a fresh one: the unit before
   globalization is the inlined unit with the driver's output body. *)
let test_shared_tables () =
  List.iter
    (fun (name, prog) ->
      List.iter
        (fun (set, (opts : R.Options.t)) ->
          let label u = Printf.sprintf "%s/%s [%s]" name u.Ast.u_name set in
          let out = (R.Driver.restructure opts prog).R.Driver.program in
          let ip = Analysis.Interproc.analyze prog in
          List.iter2
            (fun u out_u ->
              same_table (label u ^ ": interproc table")
                (Analysis.Interproc.symbols ip u)
                (Symbols.of_unit u);
              Ast_utils.reset_fresh ();
              let inlined =
                if opts.R.Options.techniques.R.Options.inline_expansion then
                  fst
                    (Transform.Inline.inline_unit
                       ~limits:opts.R.Options.inline_limits
                       ~syms:(Analysis.Interproc.symbols ip) prog u)
                else u
              in
              let before = { inlined with Ast.u_body = out_u.Ast.u_body } in
              let globalize syms =
                Transform.Globalize.apply
                  ~default:opts.R.Options.placement_default ~syms before
              in
              let with_driver =
                globalize (Analysis.Interproc.symbols ip inlined)
              in
              Alcotest.(check bool)
                (label u ^ ": driver's table globalizes as a fresh one")
                true
                (with_driver = globalize (Symbols.of_unit before));
              Alcotest.(check bool)
                (label u ^ ": reconstruction matches the driver")
                true (with_driver = out_u))
            prog out;
          let ip_out = Analysis.Interproc.analyze out in
          List.iter
            (fun u ->
              same_table (label u ^ ": interproc table of the output")
                (Analysis.Interproc.symbols ip_out u)
                (Symbols.of_unit u))
            out)
        [ ("auto", auto); ("advanced", adv) ])
    (workload_programs ())

(* ---------- one counter bump per decision ---------- *)

(* Every loop decision bumps its verdict's counter once, on a direct run
   and on a memo replay alike: over the corpus, under both technique
   sets, each driver_decision_*_total moves by the number of reports
   with that decision, and no other one moves. *)
let test_decision_counters () =
  let name decision =
    let slug =
      String.map
        (function
          | ('a' .. 'z' | '0' .. '9') as c -> c
          | 'A' .. 'Z' as c -> Char.lowercase_ascii c
          | _ -> '_')
        decision
      |> String.split_on_char '_'
      |> List.filter (( <> ) "")
      |> String.concat "_"
    in
    "driver_decision_" ^ slug ^ "_total"
  in
  let counters () =
    String.split_on_char '\n' (Obs.Metrics.dump Obs.Metrics.global)
    |> List.filter_map (fun line ->
           match String.split_on_char ' ' line with
           | [ n; v ] when String.starts_with ~prefix:"driver_decision_" n ->
               Some (n, int_of_string v)
           | _ -> None)
  in
  let before = counters () in
  let expected = Hashtbl.create 16 in
  let programs = workload_programs () in
  List.iter
    (fun opts ->
      let memo = R.Driver.create_memo () in
      (* without the memo, then twice through it: the second pass replays *)
      List.iter
        (fun memo ->
          List.iter
            (fun (_, prog) ->
              List.iter
                (fun r ->
                  let n = name r.R.Driver.r_decision in
                  Hashtbl.replace expected n
                    (1 + Option.value ~default:0 (Hashtbl.find_opt expected n)))
                (R.Driver.restructure ?memo opts prog).R.Driver.reports)
            programs)
        [ None; Some memo; Some memo ];
      Alcotest.(check bool) "the memo replayed nests" true
        ((R.Driver.memo_stats memo).R.Memo.st_hits > 0))
    [ auto; adv ];
  let moved =
    List.filter_map
      (fun (n, v) ->
        let d = v - Option.value ~default:0 (List.assoc_opt n before) in
        if d = 0 then None else Some (n, d))
      (counters ())
  in
  let expected = Hashtbl.fold (fun n c acc -> (n, c) :: acc) expected [] in
  Alcotest.(check (list (pair string int)))
    "counter deltas equal report counts"
    (List.sort compare expected) (List.sort compare moved)

let tests =
  [
    Alcotest.test_case "paper example" `Quick test_paper_example;
    Alcotest.test_case "scalar privatization gate" `Quick
      test_scalar_privatization_required;
    Alcotest.test_case "array privatization" `Quick test_array_privatization;
    Alcotest.test_case "array reduction" `Quick test_array_reduction;
    Alcotest.test_case "giv triangular" `Quick test_giv_triangular;
    Alcotest.test_case "giv guarded update" `Quick test_giv_guarded_update;
    Alcotest.test_case "runtime test" `Quick test_runtime_test;
    Alcotest.test_case "doacross" `Quick test_doacross;
    Alcotest.test_case "recurrence substitution" `Quick
      test_recurrence_substitution;
    Alcotest.test_case "dotp substitution" `Quick test_dotp_substitution;
    Alcotest.test_case "fusion" `Quick test_fusion;
    Alcotest.test_case "nest modes" `Quick test_nest_modes;
    Alcotest.test_case "corpus semantics [auto]" `Quick test_corpus_auto;
    Alcotest.test_case "corpus semantics [advanced]" `Quick test_corpus_advanced;
    Alcotest.test_case "fuzz case: max reads its accumulator" `Quick
      test_max_reads_accumulator;
    Alcotest.test_case "fuzz case: dot product reads its accumulator" `Quick
      test_dot_reads_accumulator;
    Alcotest.test_case "fuzz case: dot product with a scalar operand" `Quick
      test_dot_scalar_operand;
    Alcotest.test_case "fuzz case: induction final value" `Quick
      test_giv_final_value;
    Alcotest.test_case "fuzz case: induction across a nest" `Quick
      test_giv_across_nest;
    Alcotest.test_case "doacross substitutes its induction variable" `Quick
      test_doacross_induction;
    Alcotest.test_case "doacross restores a live index" `Quick
      test_doacross_live_index;
    Alcotest.test_case "doacross decision does not depend on spelling" `Quick
      test_doacross_spelling;
    Alcotest.test_case "explicit REAL I-N scalar keeps its type" `Quick
      test_real_in_scalar;
    Alcotest.test_case "output pinned per request" `Quick test_output_pinned;
    Alcotest.test_case "lift and verdict pinned per request" `Quick
      test_lift_pinned;
    Alcotest.test_case "token lines pinned" `Quick test_tokens_pinned;
    Alcotest.test_case "interproc and driver tables match of_unit" `Quick
      test_shared_tables;
    Alcotest.test_case "one counter bump per decision" `Quick
      test_decision_counters;
  ]
