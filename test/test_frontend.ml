(* Front-end tests: lexer, parser, printer round-trip. *)

open Fortran

let sample_program =
  {|
      program demo
      parameter (n = 100)
      real a(n), b(n), c(n, n)
      integer i, j
      real t
c     a comment line
      do 100 i = 1, n
        do 100 j = 1, n
          c(i, j) = 0.0
 100  continue
      do i = 1, n
        t = b(i)
        a(i) = sqrt(t) + 2.0*t
      enddo
      if (a(1) .gt. 0.0) then
        print *, 'positive', a(1)
      else
        a(1) = -a(1)
      endif
      end
|}

let cedar_program =
  {|
      subroutine saxpy(a, x, y, n)
      real x(n), y(n)
      global x, y
      xdoall i = 1, n, 32
        integer i3
        real t(32)
      loop
        i3 = min(32, n - i + 1)
        t(1:i3) = x(i:i + i3 - 1)
        y(i:i + i3 - 1) = y(i:i + i3 - 1) + a*t(1:i3)
      endloop
      end xdoall
      return
      end
|}

let doacross_program =
  {|
      subroutine cascade(a, b, c, d, e, f, g, h, n)
      real a(n), b(n), c(n), d(n), e(n), f(n), g(n), h(n)
      cdoacross i = 2, n
        c(i) = d(i) + e(i)
        g(i) = f(i)*h(i)
        call await(1, 1)
        b(i) = a(i) + b(i - 1)
        call advance(1)
      end cdoacross
      return
      end
|}

let parse_ok name src () =
  match Parser.parse_program src with
  | [] -> Alcotest.failf "%s: no units parsed" name
  | _ -> ()

let roundtrip name src () =
  let p1 = Parser.parse_program src in
  let printed = Printer.program_to_string p1 in
  let p2 =
    try Parser.parse_program printed
    with Parser.Error (m, l) ->
      Alcotest.failf "reparse of printed %s failed at line %d: %s\n%s" name l m
        printed
  in
  (* compare modulo labels *)
  let strip u =
    { u with Ast.u_body = List.map Ast_utils.strip_labels_stmt u.Ast.u_body }
  in
  let n1 = List.map strip p1 and n2 = List.map strip p2 in
  if not (Ast.equal_program n1 n2) then
    Alcotest.failf "round-trip mismatch for %s:\n-- printed --\n%s\n-- ast1 --\n%s\n-- ast2 --\n%s"
      name printed
      (Ast.show_program n1) (Ast.show_program n2)

let test_expr () =
  let e = Parser.parse_expr_string "a(i) + 2*b(i,j)**2 - c/d" in
  let s = Printer.expr_str e in
  let e2 = Parser.parse_expr_string s in
  Alcotest.(check bool) "expr round trip" true (Ast.equal_expr e e2)

let test_precedence () =
  let open Ast in
  let e = Parser.parse_expr_string "1 + 2*3" in
  Alcotest.(check bool) "mul binds tighter" true
    (equal_expr e (Bin (Add, Int 1, Bin (Mul, Int 2, Int 3))));
  let e = Parser.parse_expr_string "-a**2" in
  Alcotest.(check bool) "neg of power" true
    (equal_expr e (Un (Neg, Bin (Pow, Var "a", Int 2))));
  let e = Parser.parse_expr_string "a .lt. b .and. c .ge. d" in
  Alcotest.(check bool) "rel then and" true
    (equal_expr e
       (Bin (And, Bin (Lt, Var "a", Var "b"), Bin (Ge, Var "c", Var "d"))));
  let e = Parser.parse_expr_string "2**3**2" in
  Alcotest.(check bool) "pow right assoc" true
    (equal_expr e (Bin (Pow, Int 2, Bin (Pow, Int 3, Int 2))))

let test_labeled_do_shared () =
  let src =
    {|
      program p
      real c(10, 10)
      do 100 i = 1, 10
      do 100 j = 1, 10
      c(i, j) = 1.0
 100  continue
      end
|}
  in
  let p = Parser.parse_program src in
  match p with
  | [ u ] -> (
      match u.Ast.u_body with
      | [ Ast.Do (h1, b1) ] -> (
          Alcotest.(check string) "outer index" "i" h1.Ast.index;
          match b1.Ast.body with
          | [ Ast.Do (h2, b2) ] ->
              Alcotest.(check string) "inner index" "j" h2.Ast.index;
              Alcotest.(check int) "inner body has assign + terminator" 2
                (List.length b2.Ast.body)
          | _ -> Alcotest.fail "expected nested do")
      | _ -> Alcotest.fail "expected single outer do")
  | _ -> Alcotest.fail "expected one unit"

let test_cedar_loop_structure () =
  let p = Parser.parse_program cedar_program in
  match p with
  | [ u ] -> (
      let rec find_do = function
        | [] -> None
        | Ast.Do (h, b) :: _ -> Some (h, b)
        | _ :: rest -> find_do rest
      in
      match find_do u.Ast.u_body with
      | Some (h, b) ->
          Alcotest.(check bool) "is xdoall" true (h.Ast.cls = Ast.Xdoall);
          Alcotest.(check int) "two locals" 2 (List.length h.Ast.locals);
          Alcotest.(check int) "body stmts" 3 (List.length b.Ast.body)
      | None -> Alcotest.fail "no loop found")
  | _ -> Alcotest.fail "expected one unit"

let test_lexer_continuation () =
  let src = "      x = 1 +\n     & 2\n      y = 3 &\n      + 4" in
  let lines = Lexer.lex src in
  Alcotest.(check int) "two logical lines" 2 (List.length lines)

let test_symbols () =
  let p = Parser.parse_program sample_program in
  match p with
  | [ u ] ->
      let t = Symbols.of_unit u in
      Alcotest.(check bool) "a is array" true (Symbols.is_array t "a");
      Alcotest.(check int) "c rank 2" 2 (Symbols.rank t "c");
      Alcotest.(check (option int)) "c size" (Some (100 * 100))
        (Symbols.size_elems t "c");
      Alcotest.(check bool) "i is integer" true
        (Symbols.dtype_of t "i" = Ast.Integer);
      Alcotest.(check bool) "t is real" true (Symbols.dtype_of t "t" = Ast.Real)
  | _ -> Alcotest.fail "expected one unit"

(* qcheck: random expression generator, printer/parser round trip.  The
   logical levels are mostly generated in the shapes the parser builds:
   .or. and .and. nest to the right, and a relational operator compares
   two arithmetic operands.  The rest are shapes only the printer's
   parentheses can carry through: the driver's left-nested .and. chains
   of run-time tests, and relational or logical operands of a
   relational operator. *)
let gen_expr =
  let open QCheck.Gen in
  let var = oneofl [ "a"; "b"; "c"; "i"; "j"; "n" ] in
  let atom =
    oneof
      [
        map (fun n -> Ast.Int (abs n mod 1000)) int;
        map (fun v -> Ast.Var v) var;
        return (Ast.Num 1.5);
        map (fun s -> Ast.Str s) (oneofl [ "it's"; "'"; "''"; ""; "a b"; "x'y'z" ]);
        map (fun b -> Ast.Bool b) bool;
      ]
  in
  (* each level draws its children only when it is run *)
  let rec arith size st =
    if size <= 1 then atom st
    else
      match int_bound 4 st with
      | 0 -> atom st
      | 1 ->
          let op = oneofl Ast.[ Add; Sub; Mul; Div; Pow ] st in
          let a = arith (size / 2) st in
          Ast.Bin (op, a, arith (size / 2) st)
      | 2 -> Ast.Un (Ast.Neg, arith (size - 1) st)
      | 3 ->
          let a = arith (size / 2) st in
          Ast.Idx (oneofl [ "arr"; "mat" ] st, [ a; arith (size / 2) st ])
      | _ -> Ast.Call ("f", List.init (int_bound 2 st) (fun _ -> logical (size / 2) st))
  and rel size st =
    if size <= 1 || bool st then arith size st
    else
      let op = oneofl Ast.[ Eq; Ne; Lt; Le; Gt; Ge ] st in
      let a = arith (size / 2) st in
      Ast.Bin (op, a, arith (size / 2) st)
  and negation size st =
    if size <= 1 || bool st then rel size st
    else Ast.Un (Ast.Not, negation (size - 1) st)
  and conj size st =
    if size <= 1 || bool st then negation size st
    else
      let a = negation (size / 2) st in
      Ast.Bin (Ast.And, a, conj (size / 2) st)
  and logical size st =
    if size <= 1 || bool st then conj size st
    else if int_bound 2 st = 0 then
      let op = oneofl Ast.[ And; Or; Eq; Ne; Lt; Le; Gt; Ge ] st in
      let a = logical (size / 2) st in
      Ast.Bin (op, a, logical (size / 2) st)
    else
      let a = conj (size / 2) st in
      Ast.Bin (Ast.Or, a, logical (size / 2) st)
  in
  sized logical

let arbitrary_expr = QCheck.make gen_expr ~print:Printer.expr_str

let prop_expr_roundtrip =
  QCheck.Test.make ~name:"printed expr reparses to same ast" ~count:500
    arbitrary_expr (fun e ->
      (* the printer/parser pair treats arr/mat as calls when undeclared:
         normalize Idx to Call for comparison *)
      let norm =
        Ast_utils.map_expr (function
          | Ast.Idx (n, args) -> Ast.Call (n, args)
          | e -> e)
      in
      let s = Printer.expr_str e in
      let e2 = Parser.parse_expr_string s in
      Ast.equal_expr (norm e) (norm e2))

(* The name tests answer what the set they avoid building would, on the
   expressions above and on a section holding one as an element and as
   a range bound. *)
let prop_name_tests =
  QCheck.Test.make ~name:"mentions and exists_var agree with expr_vars"
    ~count:500
    (QCheck.pair arbitrary_expr
       (QCheck.make ~print:Fun.id
          (QCheck.Gen.oneofl [ "a"; "b"; "i"; "n"; "arr"; "mat"; "f"; "s"; "x" ])))
    (fun (e, v) ->
      List.for_all
        (fun e ->
          let vars = Ast_utils.expr_vars e in
          Ast_utils.mentions v e = Ast_utils.SSet.mem v vars
          && List.for_all
               (fun p -> Ast_utils.exists_var p e = Ast_utils.SSet.exists p vars)
               [ String.equal v; (fun x -> String.length x > 1); (fun x -> x < v) ])
        [
          e;
          Ast.Section
            ("s", [ Ast.Elem e; Ast.Range (Some (Ast.Int 1), Some e, None) ]);
        ])

(* Totality: on any input the front end raises [Parser.Error] or
   returns; never another exception. *)
let corpus_sources =
  lazy
    (List.map
       (fun w -> w.Workloads.Workload.source w.Workloads.Workload.small_size)
       (Workloads.Linalg.all @ Workloads.Perfect.all))

let gen_front_end_input =
  let open QCheck.Gen in
  let insertion =
    oneof
      [
        map (String.make 1) char;
        oneofl
          [ "&"; "'"; "''"; "\n"; "!"; "("; ")"; "."; ".q."; "@"; "\n     &";
            "\n 99 "; "do "; "end"; "="; "12345678901234567890123" ];
      ]
  in
  let mutate src edits =
    List.fold_left
      (fun s (pos, drop, ins) ->
        let n = String.length s in
        let p = pos mod (n + 1) in
        let drop = min drop (n - p) in
        String.sub s 0 p ^ ins ^ String.sub s (p + drop) (n - p - drop))
      src edits
  in
  oneof
    [
      string_size ~gen:char (int_bound 200);
      (fun st ->
        let srcs = Lazy.force corpus_sources in
        let src = List.nth srcs (int_bound (List.length srcs - 1) st) in
        mutate src
          (list_size (int_range 1 6)
             (triple (int_bound 1_000_000) (int_bound 3) insertion)
             st));
    ]

let prop_front_end_total =
  QCheck.Test.make ~name:"front end raises only Parser.Error" ~count:1000
    ~long_factor:50
    (QCheck.make gen_front_end_input ~print:(Printf.sprintf "%S"))
    (fun src ->
      match Parser.parse_program src with
      | _ -> true
      | exception Parser.Error _ -> true)

let test_quote_roundtrip () =
  let p = Parser.parse_program "      program p\n      print *, 'it''s'\n      end\n" in
  let printed = Printer.program_to_string p in
  Alcotest.(check string) "quote doubled" "      program p\n        print *, 'it''s'\n      end\n"
    printed;
  Alcotest.(check bool) "reparses to the same program" true
    (Parser.parse_program printed = p)

let tests =
  [
    Alcotest.test_case "parse sample" `Quick (parse_ok "sample" sample_program);
    Alcotest.test_case "parse cedar" `Quick (parse_ok "cedar" cedar_program);
    Alcotest.test_case "parse doacross" `Quick
      (parse_ok "doacross" doacross_program);
    Alcotest.test_case "roundtrip sample" `Quick
      (roundtrip "sample" sample_program);
    Alcotest.test_case "roundtrip cedar" `Quick
      (roundtrip "cedar" cedar_program);
    Alcotest.test_case "roundtrip doacross" `Quick
      (roundtrip "doacross" doacross_program);
    Alcotest.test_case "expr roundtrip" `Quick test_expr;
    Alcotest.test_case "precedence" `Quick test_precedence;
    Alcotest.test_case "shared labeled do" `Quick test_labeled_do_shared;
    Alcotest.test_case "cedar loop structure" `Quick test_cedar_loop_structure;
    Alcotest.test_case "lexer continuation" `Quick test_lexer_continuation;
    Alcotest.test_case "symbols" `Quick test_symbols;
    Alcotest.test_case "string literal with a quote round-trips" `Quick
      test_quote_roundtrip;
    QCheck_alcotest.to_alcotest prop_expr_roundtrip;
    QCheck_alcotest.to_alcotest prop_name_tests;
    QCheck_alcotest.to_alcotest prop_front_end_total;
  ]
