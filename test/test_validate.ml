(* Trust-but-verify tests: hand-written Cedar Fortran programs with
   seeded concurrency bugs, each of which must be flagged by the static
   re-verifier and/or the dynamic race detector — plus clean programs
   that must pass both, and the driver's validator-demotion path. *)

open Fortran
module R = Restructurer

let cedar = Machine.Config.cedar_config1

let static_issues src =
  match Validate.check_source src with
  | Ok issues -> issues
  | Error msg -> Alcotest.failf "program does not parse: %s" msg

let dynamic_races src =
  let prog = Parser.parse_program src in
  fst (Validate.check_dynamic ~cfg:cedar prog)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let any_issue_mentions affix issues =
  List.exists (fun i -> contains ~affix (Validate.issue_to_string i)) issues

(* ---------------- seeded bugs: each must be flagged ---------------- *)

(* distance-1 carried dependence in a CDOALL, no synchronization *)
let racy_doall =
  {|
      program p
      real a(50)
      cluster a
      do i = 1, 50
        a(i) = i
      enddo
      cdoall i = 2, 50
        a(i) = a(i - 1) + 1.0
      end cdoall
      print *, a(50)
      end
|}

let test_racy_doall_static () =
  let issues = static_issues racy_doall in
  Alcotest.(check bool) "flagged" true (issues <> []);
  Alcotest.(check bool) "names the carried dep on a" true
    (any_issue_mentions "loop-carried" issues && any_issue_mentions "a" issues)

let test_racy_doall_dynamic () =
  let races = dynamic_races racy_doall in
  Alcotest.(check bool) "dynamic race observed" true (races <> []);
  let r = List.hd races in
  Alcotest.(check bool) "race names array a" true
    (contains ~affix:"a(" (Interp.Race.issue_to_string r))

(* CDOACROSS whose await delay (2) exceeds the dependence distance (1):
   the predecessor iteration is not waited for *)
let bad_delay_doacross =
  {|
      program p
      real a(50), b(50)
      cluster a, b
      b(1) = 1.0
      do i = 1, 50
        a(i) = i
      enddo
      cdoacross i = 2, 50
        call await(1, 2)
        b(i) = b(i - 1) + a(i)
        call advance(1)
      end cdoacross
      print *, b(50)
      end
|}

let test_bad_delay_static () =
  let issues = static_issues bad_delay_doacross in
  Alcotest.(check bool) "flagged" true
    (any_issue_mentions "delay" issues)

let test_bad_delay_dynamic () =
  let races = dynamic_races bad_delay_doacross in
  Alcotest.(check bool) "dynamic race observed" true (races <> [])

(* CDOACROSS with carried dependences but no await at all *)
let no_await_doacross =
  {|
      program p
      real b(50)
      cluster b
      b(1) = 1.0
      cdoacross i = 2, 50
        b(i) = b(i - 1) + 1.0
        call advance(1)
      end cdoacross
      print *, b(50)
      end
|}

let test_no_await_static () =
  Alcotest.(check bool) "flagged" true
    (any_issue_mentions "no await" (static_issues no_await_doacross))

(* scalar temporary written and read per iteration without privatization *)
let unprivatized_scalar =
  {|
      program p
      real a(50), b(50)
      cluster a, b
      do i = 1, 50
        a(i) = i
      enddo
      cdoall i = 1, 50
        t = a(i)*2.0
        b(i) = t + 1.0
      end cdoall
      print *, b(50)
      end
|}

let test_unprivatized_scalar_static () =
  Alcotest.(check bool) "flagged" true
    (any_issue_mentions "not privatized" (static_issues unprivatized_scalar))

let test_unprivatized_scalar_dynamic () =
  let races = dynamic_races unprivatized_scalar in
  Alcotest.(check bool) "dynamic race observed" true (races <> []);
  Alcotest.(check bool) "race names t" true
    (List.exists
       (fun r -> contains ~affix:"t" (Interp.Race.issue_to_string r))
       races)

(* every iteration writes the same element: write/write race *)
let ww_race =
  {|
      program p
      real c(50)
      cluster c
      cdoall i = 1, 50
        c(5) = i
      end cdoall
      print *, c(5)
      end
|}

let test_ww_race_dynamic () =
  let races = dynamic_races ww_race in
  Alcotest.(check bool) "dynamic race observed" true (races <> []);
  Alcotest.(check bool) "write/write" true
    (List.exists
       (fun r -> contains ~affix:"write/write" (Interp.Race.issue_to_string r))
       races)

let test_ww_race_static () =
  Alcotest.(check bool) "flagged" true (static_issues ww_race <> [])

(* shared reduction merged in the postamble WITHOUT the lock bracket *)
let unlocked_merge =
  {|
      program p
      real a(100)
      global a, s
      do i = 1, 100
        a(i) = 1.0
      enddo
      s = 0.0
      xdoall i = 1, 100
        real sp
      sp = 0.0
      loop
        sp = sp + a(i)
      endloop
        s = s + sp
      end xdoall
      print *, s
      end
|}

let test_unlocked_merge_static () =
  Alcotest.(check bool) "flagged" true
    (any_issue_mentions "lock" (static_issues unlocked_merge))

(* ---------------- calls: the summaries must prove them safe -------- *)

(* the callee writes COMMON data: concurrent calls race on it *)
let impure_call =
  {|
      program p
      common /cnt/ n
      n = 0
      cdoall i = 1, 50
        call bump(i)
      end cdoall
      print *, n
      end
      subroutine bump(k)
      common /cnt/ n
      n = n + k
      end
|}

(* the callee is not in the program: nothing is known of its effects *)
let unknown_call =
  {|
      program p
      real a(50)
      cluster a
      cdoall i = 1, 50
        call ext(a, i)
      end cdoall
      print *, a(1)
      end
|}

(* a pure callee writes its first argument, which every iteration
   passes as the same element *)
let invariant_arg_call =
  {|
      program p
      real a(50)
      cluster a
      cdoall i = 1, 50
        call put(a(1), i)
      end cdoall
      print *, a(1)
      end
      subroutine put(x, k)
      x = k
      end
|}

(* the same callee given the iteration's own element *)
let indexed_arg_call =
  {|
      program p
      real a(50)
      cluster a
      cdoall i = 1, 50
        call put(a(i), i)
      end cdoall
      print *, a(1)
      end
      subroutine put(x, k)
      x = k
      end
|}

let test_impure_call () =
  Alcotest.(check bool) "flagged" true
    (any_issue_mentions "call bump is not pure" (static_issues impure_call))

let test_unknown_call () =
  Alcotest.(check bool) "flagged" true
    (any_issue_mentions "call ext has no summary" (static_issues unknown_call))

let test_invariant_arg_call () =
  Alcotest.(check bool) "flagged" true
    (any_issue_mentions "call put writes argument 1 at a loop-invariant location"
       (static_issues invariant_arg_call))

let test_indexed_arg_call () =
  match static_issues indexed_arg_call with
  | [] -> ()
  | issues ->
      Alcotest.failf "rejected a call writing a(i):\n%s"
        (String.concat "\n" (List.map Validate.issue_to_string issues))

(* ---------------- clean programs: both checkers pass --------------- *)

let clean_doacross =
  {|
      program p
      real a(50), b(50), d(50)
      cluster a, b, d
      b(1) = 1.0
      do i = 1, 50
        a(i) = i
        d(i) = 0.0
      enddo
      cdoacross i = 2, 50
        d(i) = a(i)*2.0
        call await(1, 1)
        b(i) = b(i - 1) + a(i)
        call advance(1)
      end cdoacross
      print *, b(50), d(17)
      end
|}

let clean_reduction =
  {|
      program p
      real a(100)
      global a, s
      do i = 1, 100
        a(i) = 1.0
      enddo
      s = 0.0
      xdoall i = 1, 100
        real sp
      sp = 0.0
      loop
        sp = sp + a(i)
      endloop
        call lock(1)
        s = s + sp
        call unlock(1)
      end xdoall
      print *, s
      end
|}

let clean_independent =
  {|
      program p
      real a(50), b(50)
      cluster a, b
      do i = 1, 50
        a(i) = i
      enddo
      cdoall i = 1, 50
        real t
        t = a(i)*2.0
        b(i) = t + 1.0
      end cdoall
      print *, b(50)
      end
|}

let check_clean name src () =
  let issues = static_issues src in
  if issues <> [] then
    Alcotest.failf "%s: static checker rejected a clean program:\n%s" name
      (String.concat "\n" (List.map Validate.issue_to_string issues));
  let races = dynamic_races src in
  if races <> [] then
    Alcotest.failf "%s: dynamic detector flagged a clean program:\n%s" name
      (String.concat "\n" (List.map Interp.Race.issue_to_string races))

(* ---------------- driver demotion under --validate ----------------- *)

(* an input program that is ALREADY (wrongly) parallel: the validator
   must catch the race and the driver must demote the loop to serial,
   preserving the serial semantics *)
let test_driver_demotes () =
  let opts = { (R.Options.advanced cedar) with R.Options.validate = true } in
  let prog = Parser.parse_program racy_doall in
  let res = R.Driver.restructure opts prog in
  Alcotest.(check bool) "demotion reported" true
    (List.exists
       (fun r -> contains ~affix:"demoted (validator)" r.R.Driver.r_decision)
       res.R.Driver.reports);
  (* the shipped output re-verifies cleanly ... *)
  (match Validate.reverify res.R.Driver.program with
  | Ok [] -> ()
  | Ok issues ->
      Alcotest.failf "demoted output still rejected:\n%s"
        (String.concat "\n" (List.map Validate.issue_to_string issues))
  | Error msg -> Alcotest.failf "demoted output does not reparse: %s" msg);
  (* ... is race-free, and computes the serial result *)
  let races, out = Validate.check_dynamic ~cfg:cedar res.R.Driver.program in
  Alcotest.(check bool) "no races after demotion" true (races = []);
  Alcotest.(check string) "serial semantics" "50 \n" out

(* restructurer-produced parallel code passes its own validator *)
let test_driver_output_validates () =
  let opts = { (R.Options.advanced cedar) with R.Options.validate = true } in
  let src = (Workloads.Linalg.find "CG").Workloads.Workload.source 12 in
  let res = R.Driver.restructure opts (Parser.parse_program src) in
  (match Validate.reverify res.R.Driver.program with
  | Ok [] -> ()
  | Ok issues ->
      Alcotest.failf "validator rejected CG output:\n%s"
        (String.concat "\n" (List.map Validate.issue_to_string issues))
  | Error msg -> Alcotest.failf "CG output does not reparse: %s" msg);
  let races, _ = Validate.check_dynamic ~cfg:cedar res.R.Driver.program in
  Alcotest.(check bool) "CG output race-free" true (races = [])

(* The checker reads only [Symbols.is_array] and [params] of a unit's
   table, so a table built from the declarations alone gives the issues a
   table of every mentioned name gives: on every unit of the reparsed
   output of the corpus (both technique sets, both targets) and of the
   seeded programs above. *)
let test_declaration_tables () =
  let reparsed (w : Workloads.Workload.t) =
    let prog = Parser.parse_program (w.Workloads.Workload.source w.Workloads.Workload.small_size) in
    List.concat_map
      (fun opts ->
        List.map
          (fun target ->
            let out = (R.Driver.restructure { opts with R.Options.target } prog).R.Driver.program in
            let text = Codegen.Emit.program_to_string ~target out in
            match target with
            | Codegen.Target.Cedar -> Parser.parse_program text
            | Codegen.Target.Openmp -> (
                match Codegen.Openmp.lift_source text with
                | Ok t -> Parser.parse_program t
                | Error m -> Alcotest.failf "%s: lift: %s" w.Workloads.Workload.name m))
          [ Codegen.Target.Cedar; Codegen.Target.Openmp ])
      [ R.Options.advanced cedar; R.Options.auto_1991 cedar ]
  in
  let seeded =
    List.map Parser.parse_program
      [ racy_doall; bad_delay_doacross; no_await_doacross; unprivatized_scalar; ww_race;
        unlocked_merge; impure_call; unknown_call; invariant_arg_call; indexed_arg_call;
        clean_doacross; clean_reduction; clean_independent ]
  in
  let units = ref 0 in
  List.iter
    (fun prog ->
      let interproc = Analysis.Interproc.analyze prog in
      List.iter
        (fun (u : Ast.punit) ->
          let check syms =
            Validate.check_stmts_in ~syms ~interproc ~unit_name:u.Ast.u_name u.Ast.u_body
          in
          incr units;
          if
            check (Symbols.of_decls u ~used:Ast_utils.SSet.empty) <> check (Symbols.of_unit u)
          then Alcotest.failf "unit %s: the tables' issues differ" u.Ast.u_name)
        prog)
    (List.concat_map reparsed (Workloads.Linalg.all @ Workloads.Perfect.all) @ seeded);
  Alcotest.(check bool) "units checked" true (!units > 100)

let tests =
  [
    Alcotest.test_case "racy CDOALL: static" `Quick test_racy_doall_static;
    Alcotest.test_case "racy CDOALL: dynamic" `Quick test_racy_doall_dynamic;
    Alcotest.test_case "bad DOACROSS delay: static" `Quick
      test_bad_delay_static;
    Alcotest.test_case "bad DOACROSS delay: dynamic" `Quick
      test_bad_delay_dynamic;
    Alcotest.test_case "DOACROSS without await: static" `Quick
      test_no_await_static;
    Alcotest.test_case "unprivatized scalar: static" `Quick
      test_unprivatized_scalar_static;
    Alcotest.test_case "unprivatized scalar: dynamic" `Quick
      test_unprivatized_scalar_dynamic;
    Alcotest.test_case "write/write race: static" `Quick test_ww_race_static;
    Alcotest.test_case "write/write race: dynamic" `Quick test_ww_race_dynamic;
    Alcotest.test_case "unlocked postamble merge: static" `Quick
      test_unlocked_merge_static;
    Alcotest.test_case "clean DOACROSS passes" `Quick
      (check_clean "doacross" clean_doacross);
    Alcotest.test_case "clean locked reduction passes" `Quick
      (check_clean "reduction" clean_reduction);
    Alcotest.test_case "clean privatized loop passes" `Quick
      (check_clean "independent" clean_independent);
    Alcotest.test_case "driver demotes racy input loop" `Quick
      test_driver_demotes;
    Alcotest.test_case "driver output self-validates" `Quick
      test_driver_output_validates;
    Alcotest.test_case "call to an impure routine: static" `Quick test_impure_call;
    Alcotest.test_case "call with no summary: static" `Quick test_unknown_call;
    Alcotest.test_case "call writing an invariant argument" `Quick
      test_invariant_arg_call;
    Alcotest.test_case "pure call writing a(i) passes" `Quick test_indexed_arg_call;
    Alcotest.test_case "declaration-only tables, same issues" `Quick
      test_declaration_tables;
  ]
