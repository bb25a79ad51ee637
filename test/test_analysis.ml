(* Analysis tests: affine forms, dependence testing (incl. brute-force
   soundness), scalar classification, GIVs, array privatization,
   array reductions, recurrences, interprocedural summaries, runtime test. *)

open Fortran
open Analysis
module SMap = Ast_utils.SMap

let expr = Parser.parse_expr_string

let body_of_loop src =
  match Parser.parse_program src with
  | [ u ] -> (
      let rec find = function
        | [] -> Alcotest.fail "no loop in unit"
        | Ast.Do (h, blk) :: _ -> (h, blk.Ast.body)
        | Ast.Labeled (_, s) :: rest -> find (s :: rest)
        | _ :: rest -> find rest
      in
      find u.Ast.u_body)
  | _ -> Alcotest.fail "expected one unit"

(* ---------------- affine ---------------- *)

let test_affine_basic () =
  let a = Option.get (Affine.of_expr (expr "2*i + 3*j - 4")) in
  Alcotest.(check int) "coeff i" 2 (Affine.coeff "i" a);
  Alcotest.(check int) "coeff j" 3 (Affine.coeff "j" a);
  Alcotest.(check int) "const" (-4) a.Affine.const;
  Alcotest.(check bool) "nonlinear fails" true
    (Affine.of_expr (expr "i*j") = None);
  Alcotest.(check bool) "div exact" true
    (match Affine.of_expr (expr "(4*i + 8)/4") with
    | Some x -> Affine.coeff "i" x = 1 && x.Affine.const = 2
    | None -> false);
  Alcotest.(check bool) "div inexact fails" true
    (Affine.of_expr (expr "(4*i + 7)/4") = None)

let test_affine_roundtrip () =
  let e = expr "3*i - 2*j + 7" in
  let a = Option.get (Affine.of_expr e) in
  let e2 = Affine.to_expr a in
  let a2 = Option.get (Affine.of_expr e2) in
  Alcotest.(check bool) "roundtrip" true (Affine.equal a a2)

(* ---------------- dependence: unit cases ---------------- *)

let deps_of ?(inner = []) ?(trip = None) ~index refs =
  Depend.dependences ~env:SMap.empty ~index ~inner ~trip refs

let mkref array subs access path =
  {
    Loops.r_array = array;
    r_subs = List.map expr subs;
    r_access = access;
    r_path = path;
    r_conditional = false;
  }

let test_dep_independent () =
  (* a(i) = b(i): write a(i), no other ref to a *)
  let refs = [ mkref "a" [ "i" ] Loops.Write [ 0 ] ] in
  let deps = deps_of ~index:"i" refs in
  Alcotest.(check int) "self write a(i) no carried dep" 0
    (List.length (Depend.carried deps))

let test_dep_flow_distance () =
  (* b(i) = a(i) + b(i-1): write b(i) stmt0, read b(i-1) stmt0 *)
  let refs =
    [ mkref "b" [ "i" ] Loops.Write [ 0 ]; mkref "b" [ "i - 1" ] Loops.Read [ 0 ] ]
  in
  let deps = deps_of ~index:"i" refs in
  let carried = Depend.carried deps in
  Alcotest.(check int) "one carried dep" 1 (List.length carried);
  let d = List.hd carried in
  Alcotest.(check bool) "flow" true (d.Depend.d_kind = Depend.Flow);
  Alcotest.(check bool) "distance 1" true (d.Depend.d_distance = Depend.Dist 1)

let test_dep_anti () =
  (* a(i) = a(i+1): anti distance 1 *)
  let refs =
    [ mkref "a" [ "i" ] Loops.Write [ 0 ]; mkref "a" [ "i + 1" ] Loops.Read [ 0 ] ]
  in
  let carried = Depend.carried (deps_of ~index:"i" refs) in
  Alcotest.(check int) "one carried" 1 (List.length carried);
  let d = List.hd carried in
  Alcotest.(check bool) "anti" true (d.Depend.d_kind = Depend.Anti)

let test_dep_ziv () =
  (* write a(1) every iteration: carried output dep *)
  let refs = [ mkref "a" [ "1" ] Loops.Write [ 0 ] ] in
  let carried = Depend.carried (deps_of ~index:"i" refs) in
  Alcotest.(check int) "ziv carried output" 1 (List.length carried);
  (* a(1) vs a(2): independent (ignore a(1)'s self output dep) *)
  let refs =
    [ mkref "a" [ "1" ] Loops.Write [ 0 ]; mkref "a" [ "2" ] Loops.Read [ 1 ] ]
  in
  Alcotest.(check int) "ziv different" 0
    (List.length
       (List.filter
          (fun d -> d.Depend.d_src <> d.Depend.d_dst)
          (deps_of ~index:"i" refs)))

let test_dep_gcd () =
  (* a(2*i) vs a(2*i+1): gcd proves independence *)
  let refs =
    [
      mkref "a" [ "2*i" ] Loops.Write [ 0 ];
      mkref "a" [ "2*i + 1" ] Loops.Read [ 1 ];
    ]
  in
  Alcotest.(check int) "gcd independent" 0
    (List.length (deps_of ~index:"i" refs))

let test_dep_trip_bound () =
  (* a(i) vs a(i+100) in a loop of 10 iterations *)
  let refs =
    [
      mkref "a" [ "i" ] Loops.Write [ 0 ];
      mkref "a" [ "i + 100" ] Loops.Read [ 1 ];
    ]
  in
  Alcotest.(check int) "distance beyond trip" 0
    (List.length (deps_of ~index:"i" ~trip:(Some 10) refs));
  Alcotest.(check bool) "without trip: dependent" true
    (List.length (deps_of ~index:"i" refs) > 0)

let test_dep_symbolic () =
  (* a(i + k) vs a(i): symbolic k blocks *)
  let refs =
    [
      mkref "a" [ "i + k" ] Loops.Write [ 0 ]; mkref "a" [ "i" ] Loops.Read [ 1 ];
    ]
  in
  let deps = deps_of ~index:"i" refs in
  Alcotest.(check bool) "symbolic reason" true
    (List.exists
       (fun d -> match d.Depend.d_reason with Depend.Symbolic _ -> true | _ -> false)
       deps)

let test_dep_2d () =
  (* c(i,j) = c(i,j) elementwise: no carried dep on i *)
  let refs =
    [
      mkref "c" [ "i"; "j" ] Loops.Write [ 0 ];
      mkref "c" [ "i"; "j" ] Loops.Read [ 0 ];
    ]
  in
  Alcotest.(check int) "2d elementwise" 0
    (List.length (Depend.carried (deps_of ~index:"i" ~inner:[ "j" ] refs)));
  (* c(i+1,j) read vs c(i,j) write: carried *)
  let refs =
    [
      mkref "c" [ "i"; "j" ] Loops.Write [ 0 ];
      mkref "c" [ "i - 1"; "j" ] Loops.Read [ 0 ];
    ]
  in
  Alcotest.(check int) "2d carried" 1
    (List.length (Depend.carried (deps_of ~index:"i" ~inner:[ "j" ] refs)))

(* ---------------- dependence: brute-force soundness ---------------- *)

(* random 1-d subscript: c1*i + c2*j + c0 *)
let gen_sub =
  QCheck.Gen.(
    map3
      (fun c1 c2 c0 -> (c1 - 2, c2 - 2, c0 - 5))
      (int_bound 4) (int_bound 4) (int_bound 10))

let eval_sub (c1, c2, c0) i j = (c1 * i) + (c2 * j) + c0

let sub_to_expr (c1, c2, c0) =
  expr (Printf.sprintf "%d*i + %d*j + (%d)" c1 c2 c0)

(* brute force: does there exist i1<>i2 in [1..n], j1,j2 in [1..m] with
   sub1(i1,j1) = sub2(i2,j2)? *)
let brute_force_carried s1 s2 n m =
  let found = ref false in
  for i1 = 1 to n do
    for i2 = 1 to n do
      if i1 <> i2 then
        for j1 = 1 to m do
          for j2 = 1 to m do
            if eval_sub s1 i1 j1 = eval_sub s2 i2 j2 then found := true
          done
        done
    done
  done;
  !found

(* 3 to 6 references over two arrays, each with a random subscript and
   access kind and its own statement path: the tester must report every
   pair the brute force finds carried, whatever the pair's place in the
   scan or its partner's array *)
let gen_refs =
  QCheck.Gen.(
    int_range 3 6 >>= fun n ->
    list_repeat n (triple (oneofl [ "a"; "b" ]) bool gen_sub))

let print_refs refs =
  String.concat "; "
    (List.map
       (fun (arr, w, s) ->
         Printf.sprintf "%s %s(%s)" (if w then "write" else "read") arr
           (Printer.expr_str (sub_to_expr s)))
       refs)

let prop_dep_sound =
  QCheck.Test.make ~name:"dependence test is sound vs brute force" ~count:300
    ~long_factor:50
    (QCheck.make ~print:print_refs gen_refs)
    (fun spec ->
      let n = 8 and m = 4 in
      let refs =
        List.mapi
          (fun k (arr, w, s) ->
            mkref arr
              [ Printer.expr_str (sub_to_expr s) ]
              (if w then Loops.Write else Loops.Read)
              [ k ])
          spec
      in
      let deps =
        Depend.dependences ~env:SMap.empty ~index:"i" ~inner:[ "j" ]
          ~trip:(Some n) refs
      in
      let reported p q =
        List.exists
          (fun d ->
            d.Depend.d_carried
            && ((d.Depend.d_src = [ p ] && d.Depend.d_dst = [ q ])
               || (d.Depend.d_src = [ q ] && d.Depend.d_dst = [ p ])))
          deps
      in
      (* soundness: every actual carried dependence must be reported *)
      let numbered = List.mapi (fun k r -> (k, r)) spec in
      List.for_all
        (fun (p, (a1, w1, s1)) ->
          List.for_all
            (fun (q, (a2, w2, s2)) ->
              q < p || a1 <> a2
              || not (w1 || w2)
              || (p = q && not w1)
              || (not (brute_force_carried s1 s2 n m))
              || reported p q)
            numbered)
        numbered)

(* ---------------- scalar classification ---------------- *)

let classify_loop src =
  let h, body = body_of_loop src in
  (h, body, Scalars.classify ~index:h.Ast.index ~live_after:(fun _ -> false) body)

let test_scalar_private () =
  let _, _, r =
    classify_loop
      {|
      subroutine s(a, b, n)
      real a(n), b(n)
      do i = 1, n
        t = b(i)
        a(i) = sqrt(t)
      enddo
      end
|}
  in
  Alcotest.(check bool) "t privatizable" true
    (SMap.find_opt "t" r.Scalars.classes
    = Some (Scalars.Privatizable { live_out = false }))

let test_scalar_shared () =
  let _, _, r =
    classify_loop
      {|
      subroutine s(a, n)
      real a(n)
      do i = 1, n
        a(i) = t
        t = a(i) + 1.0
      enddo
      end
|}
  in
  Alcotest.(check bool) "t shared" true
    (SMap.find_opt "t" r.Scalars.classes = Some Scalars.Shared_dep)

let test_scalar_reduction () =
  let _, _, r =
    classify_loop
      {|
      subroutine s(a, n, sum)
      real a(n)
      do i = 1, n
        sum = sum + a(i)
      enddo
      end
|}
  in
  Alcotest.(check bool) "sum reduction" true
    (SMap.find_opt "sum" r.Scalars.classes = Some (Scalars.Reduction { op = Scalars.Rsum; sites = 1 }))

let test_scalar_minmax_reduction () =
  let _, _, r =
    classify_loop
      {|
      subroutine s(a, n, big)
      real a(n)
      do i = 1, n
        big = max(big, a(i))
      enddo
      end
|}
  in
  Alcotest.(check bool) "max reduction" true
    (SMap.find_opt "big" r.Scalars.classes = Some (Scalars.Reduction { op = Scalars.Rmax; sites = 1 }))

(* the one accumulation recognizer: an operand that reads its own
   accumulator makes no reduction, and either operand order does *)
let test_reduction_form () =
  let _, body =
    body_of_loop
      {|
      subroutine s(a, b, n, s, t)
      real a(n), b(n)
      do i = 1, n
        t = max(t, a(i)*t)
        s = s + a(i)*s
        s = a(i)*b(i) + s
      enddo
      end
|}
  in
  match body with
  | [ max_t; dot_s; commuted ] ->
      Alcotest.(check bool) "t = max(t, a(i)*t) rejected" true
        (Scalars.reduction_form "t" max_t = None);
      Alcotest.(check bool) "s = s + a(i)*s rejected" true
        (Scalars.reduction_form "s" dot_s = None);
      Alcotest.(check bool) "s = a(i)*b(i) + s accepted" true
        (match Scalars.reduction_form "s" commuted with
        | Some (Scalars.Rsum, Ast.Bin (Ast.Mul, Ast.Idx ("a", _), Ast.Idx ("b", _)))
          ->
            true
        | _ -> false)
  | _ -> Alcotest.fail "expected three statements"

let test_scalar_induction () =
  let _, _, r =
    classify_loop
      {|
      subroutine s(a, n)
      real a(2*n)
      kk = 0
      do i = 1, n
        kk = kk + 2
        a(kk) = 1.0
      enddo
      end
|}
  in
  Alcotest.(check bool) "kk induction" true
    (match SMap.find_opt "kk" r.Scalars.classes with
    | Some (Scalars.Induction (Scalars.Additive (Ast.Int 2))) -> true
    | _ -> false)

let test_inner_sum_private () =
  (* accumulator of an inner loop is privatizable at the outer level *)
  let _, _, r =
    classify_loop
      {|
      subroutine s(a, b, n)
      real a(n, n), b(n)
      do i = 1, n
        s1 = 0.0
        do j = 1, n
          s1 = s1 + a(i, j)
        enddo
        b(i) = s1
      enddo
      end
|}
  in
  Alcotest.(check bool) "inner accumulator privatizable at outer" true
    (SMap.find_opt "s1" r.Scalars.classes
    = Some (Scalars.Privatizable { live_out = false }))

let test_conditional_def_not_private () =
  let _, _, r =
    classify_loop
      {|
      subroutine s(a, b, n)
      real a(n), b(n)
      do i = 1, n
        if (b(i) .gt. 0.0) then
          t = b(i)
        endif
        a(i) = t
      enddo
      end
|}
  in
  Alcotest.(check bool) "conditional def blocks privatization" true
    (SMap.find_opt "t" r.Scalars.classes = Some Scalars.Shared_dep)

(* ---------------- GIV ---------------- *)

let test_giv_flat () =
  let h, body = body_of_loop
      {|
      subroutine s(a, n)
      real a(3*n)
      kk = 0
      do i = 1, n
        kk = kk + 3
        a(kk) = 1.0
      enddo
      end
|}
  in
  let lvl = Loops.level_of_header h in
  match Giv.recognize ~lvl "kk" body with
  | Some cf ->
      Alcotest.(check bool) "monotonic" true cf.Giv.g_monotonic;
      (* at i, after update: kk0 + 3*(i - 1 + 1) = kk0 + 3*i *)
      let expect = expr "kk + 3*(i - 1 + 1)" in
      let a1 = Option.get (Affine.of_expr cf.Giv.g_at_use) in
      let a2 = Option.get (Affine.of_expr expect) in
      Alcotest.(check bool) "closed form" true (Affine.equal a1 a2)
  | None -> Alcotest.fail "kk not recognized as giv"

let test_giv_triangular () =
  let h, body = body_of_loop
      {|
      subroutine s(a, n)
      real a(n*n)
      kk = 0
      do i = 1, n
        do j = 1, i
          kk = kk + 1
          a(kk) = 1.0
        enddo
      enddo
      end
|}
  in
  let lvl = Loops.level_of_header h in
  match Giv.recognize ~lvl "kk" body with
  | Some cf ->
      Alcotest.(check bool) "triangular monotonic" true cf.Giv.g_monotonic;
      (* check closed form numerically: kk(i,j) = (i-1)*i/2 + j for kk0=0 *)
      let check i j =
        let e =
          Ast_utils.subst_var "kk" (Ast.Int 0)
            (Ast_utils.subst_var "i" (Ast.Int i)
               (Ast_utils.subst_var "j" (Ast.Int j) cf.Giv.g_at_use))
        in
        match Ast_utils.const_eval [] (Ast_utils.simplify e) with
        | Some v -> v
        | None -> Alcotest.failf "not const: %s" (Printer.expr_str e)
      in
      Alcotest.(check int) "kk(1,1)" 1 (check 1 1);
      Alcotest.(check int) "kk(3,2)" 5 (check 3 2);
      Alcotest.(check int) "kk(4,4)" 10 (check 4 4)
  | None -> Alcotest.fail "triangular giv not recognized"

let test_giv_multiplicative () =
  let h, body = body_of_loop
      {|
      subroutine s(a, n)
      real a(1000)
      m = 1
      do i = 1, n
        m = m*2
        a(m) = 1.0
      enddo
      end
|}
  in
  let lvl = Loops.level_of_header h in
  match Giv.recognize ~lvl "m" body with
  | Some cf -> Alcotest.(check bool) "geometric monotonic" true cf.Giv.g_monotonic
  | None -> Alcotest.fail "multiplicative giv not recognized"

(* ---------------- array privatization ---------------- *)

let test_array_private_yes () =
  let h, body = body_of_loop
      {|
      subroutine s(a, b, n, m)
      real a(n, m), b(n, m), w(100)
      do i = 1, n
        do j = 1, m
          w(j) = a(i, j)*2.0
        enddo
        do j = 1, m
          b(i, j) = w(j) + w(1)
        enddo
      enddo
      end
|}
  in
  Alcotest.(check bool) "w privatizable" true
    (Array_private.privatizable ~outer_index:h.Ast.index "w" body)

let test_array_private_no () =
  let h, body = body_of_loop
      {|
      subroutine s(a, b, n, m)
      real a(n, m), b(n, m), w(100)
      do i = 1, n
        do j = 1, m
          b(i, j) = w(j)
        enddo
        do j = 1, m
          w(j) = a(i, j)
        enddo
      enddo
      end
|}
  in
  Alcotest.(check bool) "read-before-write not privatizable" false
    (Array_private.privatizable ~outer_index:h.Ast.index "w" body)

let test_array_private_conditional_write () =
  let h, body = body_of_loop
      {|
      subroutine s(a, b, n, m)
      real a(n, m), b(n, m), w(100)
      do i = 1, n
        do j = 1, m
          if (a(i, j) .gt. 0.0) then
            w(j) = a(i, j)
          endif
        enddo
        do j = 1, m
          b(i, j) = w(j)
        enddo
      enddo
      end
|}
  in
  Alcotest.(check bool) "conditional write not privatizable" false
    (Array_private.privatizable ~outer_index:h.Ast.index "w" body)

(* ---------------- array reduction ---------------- *)

let test_array_reduction () =
  let _, body = body_of_loop
      {|
      subroutine s(a, f, n, m)
      real a(m), f(n, m)
      do i = 1, n
        do j = 1, m
          a(j) = a(j) + f(i, j)
          a(j) = a(j) + f(i, j)*2.0
        enddo
      enddo
      end
|}
  in
  match Array_reduction.recognize "a" body with
  | Some r ->
      Alcotest.(check bool) "sum op" true (r.Array_reduction.ar_op = Scalars.Rsum);
      Alcotest.(check int) "two sites" 2 r.Array_reduction.ar_sites
  | None -> Alcotest.fail "array reduction not recognized"

let test_array_reduction_mixed_refused () =
  let _, body = body_of_loop
      {|
      subroutine s(a, f, n, m)
      real a(m), f(n, m)
      do i = 1, n
        do j = 1, m
          a(j) = a(j) + f(i, j)
          f(i, j) = a(j)
        enddo
      enddo
      end
|}
  in
  Alcotest.(check bool) "plain read blocks reduction" true
    (Array_reduction.recognize "a" body = None)

(* ---------------- recurrence ---------------- *)

let test_recurrence () =
  let _, body = body_of_loop
      {|
      subroutine s(x, b, c, n)
      real x(n), b(n), c(n)
      do i = 2, n
        x(i) = x(i - 1)*b(i) + c(i)
      enddo
      end
|}
  in
  match Recurrence.recognize "i" body with
  | Some (Recurrence.Linear_recurrence { x; _ }) ->
      Alcotest.(check string) "recurrence var" "x" x
  | _ -> Alcotest.fail "linear recurrence not recognized"

let test_dotproduct () =
  let _, body = body_of_loop
      {|
      subroutine s(x, y, n, d)
      real x(n), y(n)
      do i = 1, n
        d = d + x(i)*y(i)
      enddo
      end
|}
  in
  match Recurrence.recognize "i" body with
  | Some (Recurrence.Dotproduct { acc; _ }) ->
      Alcotest.(check string) "dot acc" "d" acc
  | _ -> Alcotest.fail "dotproduct not recognized"

(* ---------------- interprocedural ---------------- *)

let test_interproc () =
  let prog =
    Parser.parse_program
      {|
      program main
      common /shared/ s(100)
      real a(100)
      do i = 1, 100
        call work(a(i))
      enddo
      call touch
      end

      subroutine work(x)
      x = x*2.0
      return
      end

      subroutine touch
      common /shared/ s(100)
      s(1) = 0.0
      call work(s(2))
      return
      end
|}
  in
  let t = Interproc.analyze prog in
  let w = Option.get (Interproc.find t "work") in
  Alcotest.(check bool) "work defines formal 0" true w.Interproc.s_formal_def.(0);
  Alcotest.(check bool) "work is pure" true w.Interproc.s_pure;
  let tch = Option.get (Interproc.find t "touch") in
  Alcotest.(check bool) "touch defines common s" true
    (Ast_utils.SSet.mem "s" tch.Interproc.s_common_def);
  Alcotest.(check bool) "touch not pure" false tch.Interproc.s_pure

(* ---------------- runtime test ---------------- *)

let test_runtime_condition () =
  let h, body = body_of_loop
      {|
      subroutine s(a, n, m, ld)
      real a(1)
      do i = 1, n
        do j = 1, m
          a(j + (i - 1)*ld) = a(j + (i - 1)*ld) + 1.0
        enddo
      enddo
      end
|}
  in
  let inner = List.hd (Loops.inner_loops body) in
  let levels = [ Loops.level_of_header h; Loops.level_of_header inner ] in
  match Runtime_test.candidate_for ~levels ~body "a" with
  | Some c ->
      (* condition should be satisfied when ld >= m, violated when ld < m *)
      let eval ld m =
        let e =
          Ast_utils.subst_var "n" (Ast.Int 20)
            (Ast_utils.subst_var "ld" (Ast.Int ld)
               (Ast_utils.subst_var "m" (Ast.Int m) c.Runtime_test.rt_condition))
        in
        let rec ev e =
          match Ast_utils.simplify e with
          | Ast.Bool b -> b
          | Ast.Bin (Ast.And, a, b) -> ev a && ev b
          | Ast.Bin (Ast.Or, a, b) -> ev a || ev b
          | Ast.Bin (Ast.Ge, a, b) -> (
              match
                (Ast_utils.const_eval [] a, Ast_utils.const_eval [] b)
              with
              | Some x, Some y -> x >= y
              | _ -> Alcotest.failf "unexpected cond %s" (Printer.expr_str e))
          | e -> Alcotest.failf "unexpected cond %s" (Printer.expr_str e)
        in
        ev e
      in
      Alcotest.(check bool) "ld = m passes" true (eval 64 64);
      Alcotest.(check bool) "ld > m passes" true (eval 100 64);
      Alcotest.(check bool) "ld < m fails" false (eval 10 64)
  | None -> Alcotest.fail "no runtime test candidate"

(* ---------------- dependence-test metrics ---------------- *)

let counter_value name =
  match Obs.Metrics.find Obs.Metrics.global name with
  | `Counter n -> n
  | _ -> 0

let test_depend_counters_advance () =
  let pairs0 = counter_value "depend_pairs_tested_total" in
  let deps0 = counter_value "depend_deps_found_total" in
  let deps =
    deps_of ~index:"i"
      [
        mkref "a" [ "i" ] Loops.Write [];
        mkref "a" [ "i - 1" ] Loops.Read [];
      ]
  in
  Alcotest.(check bool) "a dependence was found" true
    (Depend.carried deps <> []);
  Alcotest.(check bool) "pairs-tested counter advanced" true
    (counter_value "depend_pairs_tested_total" > pairs0);
  Alcotest.(check bool) "deps-found counter advanced" true
    (counter_value "depend_deps_found_total" > deps0)

let test_depend_proof_counters () =
  (* a(1) vs a(2): constant subscripts differ — the ZIV proof; a(2i) vs
     a(2i+1): non-integral distance — the SIV proof; a(2i) vs a(4i+1):
     parity via gcd(2,4)=2 — the GCD proof.  Each independence verdict
     must be attributed to its proof's counter *)
  let ziv0 = counter_value "depend_indep_ziv_total" in
  let siv0 = counter_value "depend_indep_siv_total" in
  let gcd0 = counter_value "depend_indep_gcd_total" in
  let d1 =
    deps_of ~index:"i"
      [ mkref "a" [ "1" ] Loops.Write []; mkref "a" [ "2" ] Loops.Read [] ]
  in
  Alcotest.(check int) "constant subscripts independent" 0
    (List.length
       (List.filter
          (fun d -> d.Depend.d_src <> d.Depend.d_dst)
          (Depend.carried d1)));
  Alcotest.(check bool) "ziv proof counted" true
    (counter_value "depend_indep_ziv_total" > ziv0);
  let d2 =
    deps_of ~index:"i"
      [
        mkref "a" [ "2*i" ] Loops.Write [];
        mkref "a" [ "2*i + 1" ] Loops.Read [];
      ]
  in
  Alcotest.(check int) "parity-disjoint subscripts independent" 0
    (List.length (Depend.carried d2));
  Alcotest.(check bool) "siv proof counted" true
    (counter_value "depend_indep_siv_total" > siv0);
  let d3 =
    deps_of ~index:"i"
      [
        mkref "a" [ "2*i" ] Loops.Write [];
        mkref "a" [ "4*i + 1" ] Loops.Read [];
      ]
  in
  Alcotest.(check int) "gcd-disjoint subscripts independent" 0
    (List.length (Depend.carried d3));
  Alcotest.(check bool) "gcd proof counted" true
    (counter_value "depend_indep_gcd_total" > gcd0)

(* the pair counter, then one per independence proof *)
let depend_counters =
  "depend_pairs_tested_total"
  :: List.map
       (fun p -> Printf.sprintf "depend_indep_%s_total" p)
       [ "ziv"; "gcd"; "siv"; "trip"; "disequal"; "distance" ]

(* Every DO of every unit of every corpus program and synthetic kernel,
   tested with its index, inner indices, constant trip count and
   references, once without and once with the body's invariance: one
   MD5 over the shown dependence lists, and the counter deltas, each
   captured when the tester still converted every pair's subscripts. *)
let test_dependences_pinned () =
  let counters = depend_counters in
  let before = List.map counter_value counters in
  let buf = Buffer.create 65536 in
  let rec walk stmts = List.iter stmt stmts
  and stmt = function
    | Ast.Do (h, blk) ->
        let body = blk.Ast.body in
        let index = h.Ast.index in
        let inner = List.map (fun h -> h.Ast.index) (Loops.inner_loops body) in
        let trip = Loops.trip_count_const (Loops.level_of_header h) in
        let refs = Loops.collect_refs body in
        let written = Ast_utils.writes_of body in
        List.iter
          (fun invariant ->
            List.iter
              (fun d ->
                Buffer.add_string buf (Depend.show_dep d);
                Buffer.add_char buf '\n')
              (Depend.dependences ~invariant ~env:SMap.empty ~index ~inner
                 ~trip refs);
            Buffer.add_string buf "--\n")
          [ (fun _ -> false); (fun v -> not (Ast_utils.SSet.mem v written)) ];
        walk blk.Ast.preamble;
        walk body;
        walk blk.Ast.postamble
    | Ast.If (_, t, e) ->
        walk t;
        walk e
    | Ast.Where (_, b) -> walk b
    | Ast.Labeled (_, s) -> stmt s
    | _ -> ()
  in
  List.iter
    (fun w ->
      let prog =
        Parser.parse_program
          (w.Workloads.Workload.source w.Workloads.Workload.small_size)
      in
      List.iter (fun u -> walk u.Ast.u_body) prog)
    (Workloads.Linalg.all @ Workloads.Perfect.all);
  List.iter
    (fun k ->
      List.iter
        (fun u -> walk u.Ast.u_body)
        (Parser.parse_program (Workloads.Synthetic.program_of k)))
    Workloads.Synthetic.kernels;
  let deltas =
    List.map2 (fun c b -> counter_value c - b) counters before
  in
  Alcotest.(check string)
    "MD5 of the corpus dependence lists" "2d8444e1f63d98b1cc62ffc92e320160"
    (Digest.to_hex (Digest.string (Buffer.contents buf)));
  Alcotest.(check (list int))
    "pairs tested, then independence proofs (ziv gcd siv trip disequal \
     distance)"
    [ 2288; 2; 0; 0; 0; 0; 0 ] deltas

(* Seeded reference lists that reach every subscript test and override:
   affine terms in the tested index, an inner index and symbolic names,
   products and exact quotients, shared and reshaped subscripts, a
   closed form and an injectivity fact for k, an i <> m disequality and
   a trip bound.  Pinned like the corpus, from the same capture. *)
let test_dependences_pinned_seeded () =
  let st = Random.State.make [| 24 |] in
  let int lo hi = lo + Random.State.int st (hi - lo + 1) in
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let coin () = Random.State.bool st in
  let term () =
    match int 0 7 with
    | 0 -> Ast.Int (int (-3) 3)
    | 1 | 2 ->
        let c = int (-2) 3 in
        if c = 1 then Ast.Var "i" else Ast.Bin (Ast.Mul, Ast.Int c, Ast.Var "i")
    | 3 -> Ast.Bin (Ast.Mul, Ast.Int (int 1 2), Ast.Var "j")
    | 4 -> Ast.Var (pick [ "n"; "k"; "m" ])
    | 5 -> Ast.Bin (Ast.Mul, Ast.Var "i", Ast.Var "j")
    | 6 ->
        let c = 2 * int 0 2 in
        let two_i = Ast.Bin (Ast.Mul, Ast.Int 2, Ast.Var "i") in
        Ast.Bin (Ast.Div, Ast.Bin (Ast.Add, two_i, Ast.Int c), Ast.Int 2)
    | _ -> Ast.Un (Ast.Neg, Ast.Var (pick [ "i"; "n" ]))
  in
  let sub () =
    let rec more k acc =
      if k = 0 then acc
      else
        let op = pick [ Ast.Add; Ast.Sub ] in
        more (k - 1) (Ast.Bin (op, acc, term ()))
    in
    let first = term () in
    more (int 0 2) first
  in
  let counters = depend_counters in
  let before = List.map counter_value counters in
  let buf = Buffer.create 65536 in
  for _ = 1 to 3000 do
    let p1 = sub () in
    let p2 = sub () in
    let pool = [ p1; p2; Ast.Var "k"; Ast.Var (pick [ "i"; "m" ]) ] in
    let refs =
      List.init (int 2 7) (fun _ ->
          let array = pick [ "a"; "b" ] in
          (* a is mostly one-dimensional, b two; one in four reshaped *)
          let rank = if array = "a" then 1 else 2 in
          let rank = if int 0 3 = 0 then 3 - rank else rank in
          let subs = List.init rank (fun _ -> pick pool) in
          let access = if coin () then Loops.Write else Loops.Read in
          let top = int 0 3 in
          let path = if coin () then [ top ] else [ top; int 0 1 ] in
          {
            Loops.r_array = array;
            r_subs = subs;
            r_access = access;
            r_path = path;
            r_conditional = false;
          })
    in
    let inner = pick [ []; [ "j" ] ] in
    let trip = pick [ None; Some 8; Some 3 ] in
    let env =
      if coin () then
        SMap.singleton "k"
          (Option.get (Affine.of_expr (expr "2*i + 1")))
      else SMap.empty
    in
    let injective =
      if coin () then Ast_utils.SSet.singleton "k" else Ast_utils.SSet.empty
    in
    let disequal = if coin () then [ ("i", "m") ] else [] in
    let invariant =
      if coin () then fun v -> v <> "k" else fun _ -> false
    in
    List.iter
      (fun d ->
        Buffer.add_string buf (Depend.show_dep d);
        Buffer.add_char buf '\n')
      (Depend.dependences ~injective ~disequal ~invariant ~env ~index:"i"
         ~inner ~trip refs);
    Buffer.add_string buf "--\n"
  done;
  let deltas =
    List.map2 (fun c b -> counter_value c - b) counters before
  in
  Alcotest.(check string)
    "MD5 of the seeded dependence lists" "5196af6ebb9409b6de3cd0eae2ae31ea"
    (Digest.to_hex (Digest.string (Buffer.contents buf)));
  Alcotest.(check (list int))
    "pairs tested, then independence proofs (ziv gcd siv trip disequal \
     distance)"
    [ 16937; 15; 139; 49; 2; 8; 12 ] deltas

(* [Ast_utils.names_of] walks once what [reads_of] and [writes_of] walk
   twice: over every statement of the corpus, before and after
   restructuring (which adds calls, sections and parallel loops), the
   one-walk set equals the union. *)
let test_names_of_one_walk () =
  let checked = ref 0 in
  let check label prog =
    List.iter
      (fun u ->
        Ast_utils.fold_stmts
          (fun () s ->
            let one = Ast_utils.names_of [ s ] in
            let two =
              Ast_utils.SSet.union
                (Ast_utils.reads_of [ s ])
                (Ast_utils.writes_of [ s ])
            in
            if not (Ast_utils.SSet.equal one two) then
              Alcotest.failf "%s: names_of differs on\n%s" label
                (Printer.stmt_to_string s);
            incr checked)
          () u.Ast.u_body)
      prog
  in
  List.iter
    (fun w ->
      let prog =
        Parser.parse_program
          (w.Workloads.Workload.source w.Workloads.Workload.small_size)
      in
      check w.Workloads.Workload.name prog;
      List.iter
        (fun (set, opts) ->
          check
            (w.Workloads.Workload.name ^ " [" ^ set ^ "]")
            (Restructurer.Driver.restructure
               (opts Machine.Config.cedar_config1)
               prog)
              .Restructurer.Driver.program)
        [
          ("auto", Restructurer.Options.auto_1991);
          ("advanced", Restructurer.Options.advanced);
        ])
    (Workloads.Linalg.all @ Workloads.Perfect.all);
  Printf.printf "%d statements checked\n" !checked;
  Alcotest.(check bool) "over a thousand statements checked" true
    (!checked > 1000)

(* [Ast_utils.body_facts] walks a unit body once for what Interproc's
   summary walked it four times for, and the table Interproc builds from
   its reads and writes is the one [Symbols.of_unit] builds: over every
   unit of the corpus (before and after restructuring), the synthetic
   kernels and 200 programs from each fuzz generator. *)
let test_body_facts_one_walk () =
  let module SSet = Ast_utils.SSet in
  (* the calls fold the summary used to run *)
  let calls_of body =
    Ast_utils.fold_stmts
      (fun acc s ->
        match s with
        | Ast.CallSt (n, _) -> n :: acc
        | Ast.Assign (_, e) ->
            Ast_utils.fold_expr
              (fun acc e ->
                match e with
                | Ast.Call (n, _) when not (Ast.is_intrinsic n) -> n :: acc
                | _ -> acc)
              acc e
        | _ -> acc)
      [] body
    |> List.sort_uniq compare
  in
  let units = ref 0 in
  let check label prog =
    let ip = Interproc.analyze prog in
    List.iter
      (fun (u : Ast.punit) ->
        let body = u.Ast.u_body and what = label ^ "/" ^ u.Ast.u_name in
        let f = Ast_utils.body_facts body in
        let set name a b =
          if not (SSet.equal a b) then Alcotest.failf "%s: %s differ" what name
        in
        set "reads" f.Ast_utils.reads (Ast_utils.reads_of body);
        set "writes" f.Ast_utils.writes (Ast_utils.writes_of body);
        if f.Ast_utils.calls <> calls_of body then Alcotest.failf "%s: calls differ" what;
        if f.Ast_utils.io <> Ast_utils.contains_io body then Alcotest.failf "%s: I/O differs" what;
        let a = Interproc.symbols ip u and b = Symbols.of_unit u in
        if
          SMap.bindings a.Symbols.syms <> SMap.bindings b.Symbols.syms
          || (a.Symbols.params, a.Symbols.unit_name, a.Symbols.formals)
             <> (b.Symbols.params, b.Symbols.unit_name, b.Symbols.formals)
        then Alcotest.failf "%s: table differs from of_unit" what;
        incr units)
      prog
  in
  List.iter
    (fun w ->
      let name = w.Workloads.Workload.name in
      let prog = Parser.parse_program (w.Workloads.Workload.source w.Workloads.Workload.small_size) in
      check name prog;
      List.iter
        (fun (set, opts) ->
          check (name ^ " [" ^ set ^ "]")
            (Restructurer.Driver.restructure (opts Machine.Config.cedar_config1) prog)
              .Restructurer.Driver.program)
        [ ("auto", Restructurer.Options.auto_1991); ("advanced", Restructurer.Options.advanced) ])
    (Workloads.Linalg.all @ Workloads.Perfect.all);
  List.iter
    (fun k ->
      check k.Workloads.Synthetic.k_name
        (Parser.parse_program (Workloads.Synthetic.program_of k)))
    Workloads.Synthetic.kernels;
  let rand = Random.State.make [| 28 |] in
  List.iter
    (fun (name, gen) ->
      List.iteri (fun i p -> check (Printf.sprintf "%s %d" name i) p)
        (QCheck.Gen.generate ~rand ~n:200 gen))
    [ ("fuzz", Test_fuzz.gen_program); ("fuzz hard", Test_fuzz.gen_program_hard) ];
  Printf.printf "%d units checked\n" !units;
  Alcotest.(check bool) "500 units checked" true (!units >= 500)

(* ---------------- one-pass liveness ---------------- *)

(* The driver derives liveness with one backward step per statement
   ([Scalars.exposed_before]).  Over every statement list at every
   nesting level — corpus units before and after restructuring under
   both technique sets, and the synthetic kernels — each suffix's set
   must equal a direct [Scalars.upward_exposed] walk of that suffix. *)
let test_liveness_one_pass () =
  let checked = ref 0 in
  let rec check_list label stmts =
    ignore
      (List.fold_right
         (fun s (suffix, exposed) ->
           let suffix = s :: suffix in
           let exposed = Scalars.exposed_before s exposed in
           let direct = Scalars.upward_exposed suffix in
           if not (Ast_utils.SSet.equal exposed direct) then
             Alcotest.failf "%s: one-pass {%s} <> per-suffix {%s}\n%s" label
               (String.concat " " (Ast_utils.SSet.elements exposed))
               (String.concat " " (Ast_utils.SSet.elements direct))
               (String.concat "" (List.map Printer.stmt_to_string suffix));
           incr checked;
           (suffix, exposed))
         stmts ([], Ast_utils.SSet.empty));
    List.iter (check_stmt label) stmts
  and check_stmt label = function
    | Ast.If (_, t, e) ->
        check_list label t;
        check_list label e
    | Ast.Do (_, blk) ->
        check_list label blk.Ast.preamble;
        check_list label blk.Ast.body;
        check_list label blk.Ast.postamble
    | Ast.Where (_, b) -> check_list label b
    | Ast.Labeled (_, s) -> check_stmt label s
    | _ -> ()
  in
  let check_program label prog =
    List.iter
      (fun u -> check_list (label ^ "/" ^ u.Ast.u_name) u.Ast.u_body)
      prog
  in
  let cedar = Machine.Config.cedar_config1 in
  let sources =
    List.map
      (fun w ->
        ( w.Workloads.Workload.name,
          w.Workloads.Workload.source w.Workloads.Workload.small_size ))
      (Workloads.Linalg.all @ Workloads.Perfect.all)
    @ List.map
        (fun k -> (k.Workloads.Synthetic.k_name, Workloads.Synthetic.program_of k))
        Workloads.Synthetic.kernels
  in
  List.iter
    (fun (name, src) ->
      let prog = Parser.parse_program src in
      check_program name prog;
      List.iter
        (fun (set, opts) ->
          check_program (name ^ " [" ^ set ^ "]")
            (Restructurer.Driver.restructure opts prog).Restructurer.Driver.program)
        [
          ("auto", Restructurer.Options.auto_1991 cedar);
          ("advanced", Restructurer.Options.advanced cedar);
        ])
    sources;
  Printf.printf "%d suffixes checked\n" !checked;
  Alcotest.(check bool) "thousands of suffixes checked" true (!checked > 2000)

let tests =
  [
    Alcotest.test_case "affine basic" `Quick test_affine_basic;
    Alcotest.test_case "affine roundtrip" `Quick test_affine_roundtrip;
    Alcotest.test_case "dep independent" `Quick test_dep_independent;
    Alcotest.test_case "dep flow distance" `Quick test_dep_flow_distance;
    Alcotest.test_case "dep anti" `Quick test_dep_anti;
    Alcotest.test_case "dep ziv" `Quick test_dep_ziv;
    Alcotest.test_case "dep gcd" `Quick test_dep_gcd;
    Alcotest.test_case "dep trip bound" `Quick test_dep_trip_bound;
    Alcotest.test_case "dep symbolic" `Quick test_dep_symbolic;
    Alcotest.test_case "dep 2d" `Quick test_dep_2d;
    Alcotest.test_case "dep counters advance" `Quick
      test_depend_counters_advance;
    Alcotest.test_case "dep proof counters" `Quick test_depend_proof_counters;
    Alcotest.test_case "dependences pinned over the corpus" `Quick
      test_dependences_pinned;
    Alcotest.test_case "dependences pinned over seeded references" `Quick
      test_dependences_pinned_seeded;
    QCheck_alcotest.to_alcotest prop_dep_sound;
    Alcotest.test_case "scalar private" `Quick test_scalar_private;
    Alcotest.test_case "scalar shared" `Quick test_scalar_shared;
    Alcotest.test_case "scalar reduction" `Quick test_scalar_reduction;
    Alcotest.test_case "scalar minmax" `Quick test_scalar_minmax_reduction;
    Alcotest.test_case "reduction form" `Quick test_reduction_form;
    Alcotest.test_case "scalar induction" `Quick test_scalar_induction;
    Alcotest.test_case "inner sum private" `Quick test_inner_sum_private;
    Alcotest.test_case "conditional def" `Quick test_conditional_def_not_private;
    Alcotest.test_case "giv flat" `Quick test_giv_flat;
    Alcotest.test_case "giv triangular" `Quick test_giv_triangular;
    Alcotest.test_case "giv multiplicative" `Quick test_giv_multiplicative;
    Alcotest.test_case "array private yes" `Quick test_array_private_yes;
    Alcotest.test_case "array private no" `Quick test_array_private_no;
    Alcotest.test_case "array private conditional" `Quick
      test_array_private_conditional_write;
    Alcotest.test_case "array reduction" `Quick test_array_reduction;
    Alcotest.test_case "array reduction refused" `Quick
      test_array_reduction_mixed_refused;
    Alcotest.test_case "recurrence" `Quick test_recurrence;
    Alcotest.test_case "dotproduct" `Quick test_dotproduct;
    Alcotest.test_case "interproc" `Quick test_interproc;
    Alcotest.test_case "runtime condition" `Quick test_runtime_condition;
    Alcotest.test_case "one-pass liveness equals per-suffix walks" `Quick
      test_liveness_one_pass;
    Alcotest.test_case "names_of is reads_of and writes_of in one walk" `Quick
      test_names_of_one_walk;
    Alcotest.test_case "body_facts is the summary's walks in one" `Quick
      test_body_facts_one_walk;
  ]
