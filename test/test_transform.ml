(* Unit tests for the individual transformations. *)

open Fortran
module T = Transform

let expr = Parser.parse_expr_string

let stmts_of src =
  let decls =
    "      real a(100), b(100), f(100)\n      real c(100, 100)\n"
  in
  match
    Parser.parse_program ("      program p\n" ^ decls ^ src ^ "      end\n")
  with
  | [ u ] -> u.Ast.u_body
  | _ -> Alcotest.fail "expected one unit"

let loop_of src =
  match stmts_of src with
  | [ Ast.Do (h, blk) ] -> (h, blk)
  | _ -> Alcotest.fail "expected a single loop"

(* ---------------- stripmine ---------------- *)

let test_stripmine_structure () =
  let h, blk =
    loop_of {|
      do i = 1, 100
        t = b(i)
        a(i) = t*2.0
      enddo
|}
  in
  match
    T.Stripmine.apply ~strip:32 ~cls:Ast.Xdoall ~private_scalars:[ "t" ] h
      blk.Ast.body
  with
  | Some (Ast.Do (h', blk')) ->
      Alcotest.(check bool) "xdoall" true (h'.Ast.cls = Ast.Xdoall);
      Alcotest.(check bool) "step 32" true (h'.Ast.step = Some (Ast.Int 32));
      Alcotest.(check int) "locals: i3, upper, t-expansion" 3
        (List.length h'.Ast.locals);
      (* body: i3 =, upper =, two vector statements *)
      Alcotest.(check int) "4 statements" 4 (List.length blk'.Ast.body)
  | _ -> Alcotest.fail "stripmine failed"

let test_stripmine_rejects_diagonal () =
  let h, blk = loop_of {|
      do i = 1, 50
        c(i, i) = 0.0
      enddo
|} in
  Alcotest.(check bool) "diagonal refused" true
    (T.Stripmine.apply ~cls:Ast.Xdoall ~private_scalars:[] h blk.Ast.body
    = None)

(* ---------------- vectorize ---------------- *)

let test_vectorize_iota () =
  let h, blk = loop_of {|
      do i = 1, 10
        a(i) = i*2
      enddo
|} in
  match T.Vectorize.vectorize_loop h blk.Ast.body with
  | Some [ Ast.Assign (Ast.LSection _, rhs) ] ->
      Alcotest.(check bool) "iota appears" true
        (Ast_utils.fold_expr
           (fun acc e ->
             acc
             || match e with Ast.Call ("cedar_iota", _) -> true | _ -> false)
           false rhs)
  | _ -> Alcotest.fail "vectorization failed"

let test_vectorize_rejects_user_call () =
  let h, blk = loop_of {|
      do i = 1, 10
        a(i) = foo(b(i))
      enddo
|} in
  Alcotest.(check bool) "user call refused" true
    (T.Vectorize.vectorize_loop h blk.Ast.body = None)

let test_vectorize_symbolic_offset () =
  (* affine in the index even with a nonlinear symbolic offset *)
  let h, blk = loop_of {|
      do j = 1, 10
        a(kk + (i - 1)*i/2 + j) = 1.0
      enddo
|} in
  match T.Vectorize.vectorize_loop h blk.Ast.body with
  | Some [ Ast.Assign (Ast.LSection ("a", _), _) ] -> ()
  | _ -> Alcotest.fail "symbolic-offset vectorization failed"

(* ---------------- fusion ---------------- *)

let fuse2 src =
  match stmts_of src with
  | [ s1; s2 ] -> T.Fusion.fuse_region s1 [] s2
  | [ s1; m; s2 ] -> T.Fusion.fuse_region s1 [ m ] s2
  | _ -> Alcotest.fail "expected 2-3 statements"

let test_fusion_legal () =
  match
    fuse2
      {|
      do i = 1, 10
        a(i) = i*1.0
      enddo
      do i = 1, 10
        b(i) = a(i)*2.0
      enddo
|}
  with
  | Some (Ast.Do (_, blk)) ->
      Alcotest.(check int) "fused body" 2 (List.length blk.Ast.body)
  | _ -> Alcotest.fail "legal fusion refused"

let test_fusion_rejects_shifted () =
  Alcotest.(check bool) "shifted access refused" true
    (fuse2
       {|
      do i = 2, 10
        a(i) = i*1.0
      enddo
      do i = 2, 10
        b(i) = a(i - 1)
      enddo
|}
    = None)

let test_fusion_rejects_inner_accumulator () =
  (* SPEC77's bug class: the shared array does not move with the fused
     index *)
  Alcotest.(check bool) "inner-indexed accumulator refused" true
    (fuse2
       {|
      do k = 1, 10
        a(k) = 0.0
      enddo
      do j = 1, 10
        do k = 1, 10
          a(k) = a(k) + c(k, j)
        enddo
      enddo
|}
    = None)

let test_fusion_rejects_capture () =
  Alcotest.(check bool) "index capture refused" true
    (fuse2
       {|
      do k = 1, 10
        a(k) = 0.0
      enddo
      do j = 1, 10
        b(j) = k*1.0
      enddo
|}
    = None)

let test_fusion_mid_replication () =
  match
    fuse2
      {|
      do i = 1, 10
        a(i) = i*1.0
      enddo
      sc = 3.0
      do i = 1, 10
        b(i) = a(i) + sc
      enddo
|}
  with
  | Some (Ast.Do (_, blk)) ->
      Alcotest.(check int) "mid replicated into body" 3
        (List.length blk.Ast.body)
  | _ -> Alcotest.fail "replication fusion refused"

(* ---------------- distribution ---------------- *)

let test_distribution_forward_array () =
  let h, blk =
    loop_of
      {|
      do i = 1, 10
        a(i) = i*2.0
        b(i) = a(i) + 1.0
      enddo
|}
  in
  match T.Distribution.distribute h blk.Ast.body [ 1; 1 ] with
  | Some [ Ast.Do _; Ast.Do _ ] -> ()
  | _ -> Alcotest.fail "elementwise forward flow should distribute"

let test_distribution_rejects_scalar_flow () =
  (* QCD's seed: a scalar carried between the groups *)
  let h, blk =
    loop_of
      {|
      do i = 1, 10
        s = s + 1.0
        a(i) = s
      enddo
|}
  in
  Alcotest.(check bool) "scalar forward flow refused" true
    (T.Distribution.distribute h blk.Ast.body [ 1; 1 ] = None)

let test_distribution_rejects_backward () =
  let h, blk =
    loop_of
      {|
      do i = 1, 10
        b(i) = a(i)
        a(i) = i*1.0
      enddo
|}
  in
  Alcotest.(check bool) "backward dep refused" true
    (T.Distribution.distribute h blk.Ast.body [ 1; 1 ] = None)

(* ---------------- interchange ---------------- *)

let test_interchange () =
  let stmts = stmts_of {|
      do i = 1, 10
        do j = 1, 20
          c(i, j) = 1.0
        enddo
      enddo
|} in
  match T.Interchange.swap (List.hd stmts) with
  | Some (Ast.Do (h2, blk)) -> (
      Alcotest.(check string) "outer is j" "j" h2.Ast.index;
      match blk.Ast.body with
      | [ Ast.Do (h1, _) ] -> Alcotest.(check string) "inner is i" "i" h1.Ast.index
      | _ -> Alcotest.fail "inner loop missing")
  | _ -> Alcotest.fail "interchange failed"

let test_interchange_rejects_triangular () =
  let stmts = stmts_of {|
      do i = 1, 10
        do j = 1, i
          c(i, j) = 1.0
        enddo
      enddo
|} in
  Alcotest.(check bool) "triangular refused" true
    (T.Interchange.swap (List.hd stmts) = None)

(* ---------------- inline ---------------- *)

let inline_program src =
  let prog = Parser.parse_program src in
  let main = List.hd prog in
  T.Inline.inline_unit ~syms:Symbols.of_unit prog main

let test_inline_basic () =
  let u, fails =
    inline_program
      {|
      program p
      real a(10)
      call fill(a, 10)
      print *, a(3)
      end

      subroutine fill(x, n)
      real x(n)
      do i = 1, n
        x(i) = i*1.0
      enddo
      return
      end
|}
  in
  Alcotest.(check int) "no failures" 0 (List.length fails);
  Alcotest.(check bool) "call replaced" true
    (not
       (Ast_utils.exists_stmt
          (function Ast.CallSt ("fill", _) -> true | _ -> false)
          u.Ast.u_body))

let test_inline_column_anchor () =
  (* conc(1, j) passed to a rank-1 formal becomes conc(k, j) inside *)
  let u, fails =
    inline_program
      {|
      program p
      real m(8, 8)
      do j = 1, 8
        call col(m(1, j), 8)
      enddo
      print *, m(2, 5)
      end

      subroutine col(c, n)
      real c(n)
      do k = 1, n
        c(k) = k*1.0
      enddo
      return
      end
|}
  in
  Alcotest.(check int) "no failures" 0 (List.length fails);
  let has_2d_ref =
    Ast_utils.exists_stmt
      (function
        | Ast.Assign (Ast.LIdx ("m", [ _; Ast.Var "j" ]), _) -> true
        | _ -> false)
      u.Ast.u_body
  in
  Alcotest.(check bool) "column-anchored subscripts rebuilt" true has_2d_ref

let test_inline_goto_fails () =
  let _, fails =
    inline_program
      {|
      program p
      call f
      end

      subroutine f
      if (1 .eq. 0) goto 10
  10  continue
      return
      end
|}
  in
  Alcotest.(check bool) "goto refusal recorded" true
    (List.exists
       (function T.Inline.Unsupported_body _ -> true | _ -> false)
       fails)

let test_inline_size_limit () =
  let body =
    String.concat ""
      (List.init 60 (fun i -> Printf.sprintf "      x = x + %d\n" i))
  in
  let _, fails =
    inline_program
      (Printf.sprintf
         {|
      program p
      call f
      end

      subroutine f
%s      return
      end
|}
         body)
  in
  Alcotest.(check bool) "too-large refusal recorded" true
    (List.exists (function T.Inline.Too_large _ -> true | _ -> false) fails)

(* ---------------- expand ---------------- *)

let test_expand () =
  let h, blk = loop_of {|
      do i = 1, 10
        t = b(i)
        a(i) = t
      enddo
|} in
  let loop', decls =
    T.Expand.apply
      [ { T.Expand.e_name = "t"; e_type = Ast.Real; e_dims = [] } ]
      h blk
  in
  Alcotest.(check int) "one new global decl" 1 (List.length decls);
  Alcotest.(check bool) "decl is global" true
    ((List.hd decls).Ast.d_vis = Ast.Global);
  (* t's uses became t_x(i) *)
  let uses_expanded =
    Ast_utils.exists_stmt
      (function
        | Ast.Assign (Ast.LIdx (n, [ Ast.Var "i" ]), _) ->
            n = (List.hd decls).Ast.d_name
        | _ -> false)
      [ loop' ]
  in
  Alcotest.(check bool) "scalar expanded by iteration dim" true uses_expanded

(* ---------------- reductions ---------------- *)

let test_reduction_par_vector_merge () =
  let h, blk = loop_of {|
      do i = 1, 20
        f(3) = f(3) + 1.0
      enddo
|} in
  let s =
    T.Reduction_par.apply ~scalars:[]
      ~arrays:
        [
          {
            T.Reduction_par.arr_name = "f";
            arr_op = Analysis.Scalars.Rsum;
            arr_type = Ast.Real;
            arr_dims = [ (Ast.Int 1, Ast.Int 20) ];
          };
        ]
      { h with Ast.cls = Ast.Xdoall }
      blk
  in
  match s with
  | Ast.Do (h', blk') ->
      Alcotest.(check int) "partial array local" 1 (List.length h'.Ast.locals);
      Alcotest.(check bool) "lock in postamble" true
        (List.exists
           (function Ast.CallSt ("lock", _) -> true | _ -> false)
           blk'.Ast.postamble);
      Alcotest.(check bool) "vector merge in postamble" true
        (List.exists
           (function
             | Ast.Assign (Ast.LSection ("f", _), _) -> true
             | _ -> false)
           blk'.Ast.postamble)
  | _ -> Alcotest.fail "reduction transform failed"

(* ---------------- doacross ---------------- *)

let test_doacross_plan () =
  let deps =
    [
      {
        Analysis.Depend.d_array = "b";
        d_kind = Analysis.Depend.Flow;
        d_src = [ 2 ];
        d_dst = [ 2 ];
        d_carried = true;
        d_distance = Analysis.Depend.Dist 1;
        d_reason = Analysis.Depend.Affine;
      };
    ]
  in
  match T.Doacross.plan_of_deps deps with
  | Some p ->
      Alcotest.(check int) "distance" 1 p.T.Doacross.dx_distance;
      Alcotest.(check int) "sink stmt" 2 p.T.Doacross.dx_first_sink
  | None -> Alcotest.fail "plan not built"

let test_doacross_rejects_star () =
  let deps =
    [
      {
        Analysis.Depend.d_array = "b";
        d_kind = Analysis.Depend.Flow;
        d_src = [ 0 ];
        d_dst = [ 1 ];
        d_carried = true;
        d_distance = Analysis.Depend.Star;
        d_reason = Analysis.Depend.Non_affine;
      };
    ]
  in
  Alcotest.(check bool) "unknown distance refused" true
    (T.Doacross.plan_of_deps deps = None)

(* ---------------- vector reductions ---------------- *)

let test_vector_reduce_dotproduct () =
  let h, blk = loop_of {|
      do j = 1, 30
        s = s + a(j)*b(j)
      enddo
|} in
  match T.Recurrence_sub.vector_reduce h blk.Ast.body with
  | Some [ Ast.Assign (Ast.LVar "s", rhs) ] ->
      Alcotest.(check bool) "uses dotproduct" true
        (Ast_utils.fold_expr
           (fun acc e ->
             acc || match e with Ast.Call ("dotproduct", _) -> true | _ -> false)
           false rhs)
  | _ -> Alcotest.fail "dotproduct intrinsic not produced"

let test_vector_reduce_maxval_guard () =
  let h, blk =
    loop_of
      {|
      do l = 2, 30
        if (abs(a(l)) .ge. big) then
          big = abs(a(l))
          irow = j
        endif
      enddo
|}
  in
  match T.Recurrence_sub.vector_reduce h blk.Ast.body with
  | Some [ Ast.Assign (Ast.LVar t, Ast.Call ("maxval", _)); Ast.If (_, updates, []) ]
    ->
      Alcotest.(check bool) "temp used in guard" true (String.length t > 0);
      Alcotest.(check int) "guarded updates" 2 (List.length updates)
  | _ -> Alcotest.fail "maxval search not produced"

let test_vector_reduce_rejects_variant_index () =
  (* icol = l assigns the loop index: not invariant, must refuse *)
  let h, blk =
    loop_of
      {|
      do l = 2, 30
        if (abs(a(l)) .ge. big) then
          big = abs(a(l))
          icol = l
        endif
      enddo
|}
  in
  Alcotest.(check bool) "index-valued update refused" true
    (T.Recurrence_sub.vector_reduce h blk.Ast.body = None)

(* ---------------- rt two-version ---------------- *)

let test_rt_twoversion () =
  match
    T.Rt_twoversion.apply ~condition:(expr "ld .ge. m")
      ~parallel:[ Ast.Continue ] ~serial:[ Ast.Stop ]
  with
  | Ast.If (_, [ Ast.Continue ], [ Ast.Stop ]) -> ()
  | _ -> Alcotest.fail "wrong two-version structure"

let tests =
  [
    Alcotest.test_case "stripmine structure" `Quick test_stripmine_structure;
    Alcotest.test_case "stripmine diagonal" `Quick test_stripmine_rejects_diagonal;
    Alcotest.test_case "vectorize iota" `Quick test_vectorize_iota;
    Alcotest.test_case "vectorize user call" `Quick test_vectorize_rejects_user_call;
    Alcotest.test_case "vectorize symbolic offset" `Quick
      test_vectorize_symbolic_offset;
    Alcotest.test_case "fusion legal" `Quick test_fusion_legal;
    Alcotest.test_case "fusion shifted" `Quick test_fusion_rejects_shifted;
    Alcotest.test_case "fusion inner accumulator" `Quick
      test_fusion_rejects_inner_accumulator;
    Alcotest.test_case "fusion capture" `Quick test_fusion_rejects_capture;
    Alcotest.test_case "fusion mid replication" `Quick test_fusion_mid_replication;
    Alcotest.test_case "distribution forward array" `Quick
      test_distribution_forward_array;
    Alcotest.test_case "distribution scalar flow" `Quick
      test_distribution_rejects_scalar_flow;
    Alcotest.test_case "distribution backward" `Quick
      test_distribution_rejects_backward;
    Alcotest.test_case "interchange" `Quick test_interchange;
    Alcotest.test_case "interchange triangular" `Quick
      test_interchange_rejects_triangular;
    Alcotest.test_case "inline basic" `Quick test_inline_basic;
    Alcotest.test_case "inline column anchor" `Quick test_inline_column_anchor;
    Alcotest.test_case "inline goto" `Quick test_inline_goto_fails;
    Alcotest.test_case "inline size limit" `Quick test_inline_size_limit;
    Alcotest.test_case "expand" `Quick test_expand;
    Alcotest.test_case "reduction vector merge" `Quick
      test_reduction_par_vector_merge;
    Alcotest.test_case "doacross plan" `Quick test_doacross_plan;
    Alcotest.test_case "doacross star" `Quick test_doacross_rejects_star;
    Alcotest.test_case "vector reduce dotproduct" `Quick
      test_vector_reduce_dotproduct;
    Alcotest.test_case "vector reduce maxval" `Quick
      test_vector_reduce_maxval_guard;
    Alcotest.test_case "vector reduce variant index" `Quick
      test_vector_reduce_rejects_variant_index;
    Alcotest.test_case "rt two-version" `Quick test_rt_twoversion;
  ]
