(* Analytic performance model tests: directional properties and agreement
   with the DES interpreter at small sizes. *)

open Fortran
module Mach = Machine
module PM = Perfmodel.Model

let cfg = Mach.Config.cedar_config1

let eval ?serial_memory ?(config = cfg) src =
  PM.evaluate ?serial_memory ~cfg:config (Parser.parse_program src)

let interp_cycles src =
  (Interp.Exec.run ~cfg (Parser.parse_program src)).Interp.Exec.cycles

let simple_serial n =
  Printf.sprintf
    {|
      program p
      real a(%d), b(%d)
      do i = 1, %d
        b(i) = i*0.5
      enddo
      do i = 1, %d
        a(i) = b(i)*2.0 + 1.0
      enddo
      print *, a(%d)
      end
|}
    n n n n n

let test_scaling () =
  let small = (eval (simple_serial 100)).PM.cycles in
  let big = (eval (simple_serial 1000)).PM.cycles in
  let ratio = big /. small in
  Alcotest.(check bool)
    (Printf.sprintf "linear scaling (%.1f)" ratio)
    true
    (ratio > 8.0 && ratio < 12.5)

let test_interp_agreement_serial () =
  let src = simple_serial 200 in
  let a = (eval src).PM.cycles in
  let i = interp_cycles src in
  let ratio = a /. i in
  Alcotest.(check bool)
    (Printf.sprintf "serial model/interp ratio %.2f in [0.5, 2]" ratio)
    true
    (ratio > 0.5 && ratio < 2.0)

let test_interp_agreement_parallel () =
  let src =
    {|
      program p
      real a(2048), b(2048)
      global a, b
      do i = 1, 2048
        b(i) = i*0.5
      enddo
      xdoall i = 1, 2048, 32
        integer i3, up
      loop
        i3 = min(32, 2048 - i + 1)
        up = i + i3 - 1
        a(i:up) = b(i:up)*2.0 + 1.0
      endloop
      end xdoall
      print *, a(2048)
      end
|}
  in
  let a = (eval src).PM.cycles in
  let i = interp_cycles src in
  let ratio = a /. i in
  Alcotest.(check bool)
    (Printf.sprintf "parallel model/interp ratio %.2f in [0.4, 2.5]" ratio)
    true
    (ratio > 0.4 && ratio < 2.5)

let test_triangular_trapezoid () =
  (* triangular nest: total iterations n(n+1)/2; the trapezoid must get
     the quadratic total right *)
  let src n =
    Printf.sprintf
      {|
      program p
      real a(%d, %d)
      do i = 1, %d
        do j = 1, i
          a(i, j) = i + j*1.0
        enddo
      enddo
      print *, a(%d, 1)
      end
|}
      n n n n
  in
  let c100 = (eval (src 100)).PM.cycles in
  let c200 = (eval (src 200)).PM.cycles in
  let ratio = c200 /. c100 in
  Alcotest.(check bool)
    (Printf.sprintf "quadratic scaling (%.1f ~ 4)" ratio)
    true
    (ratio > 3.4 && ratio < 4.6)

let test_parallel_faster () =
  let serial = simple_serial 10000 in
  let par =
    {|
      program p
      real a(10000), b(10000)
      global a, b
      xdoall i = 1, 10000, 32
        integer i3, up
      loop
        i3 = min(32, 10000 - i + 1)
        up = i + i3 - 1
        b(i:up) = cedar_iota(i, up)*0.5
        a(i:up) = b(i:up)*2.0 + 1.0
      endloop
      end xdoall
      print *, a(10000)
      end
|}
  in
  let s = (eval serial).PM.cycles and p = (eval par).PM.cycles in
  let speedup = s /. p in
  Alcotest.(check bool)
    (Printf.sprintf "speedup %.1f > 10" speedup)
    true (speedup > 10.0)

let test_paging_model () =
  (* arrays exceeding the serial cluster memory cause faults *)
  let src =
    {|
      program p
      parameter (n = 1200)
      real a(n, n), b(n, n), c(n, n)
      do k = 1, 3
        do i = 1, n
          do j = 1, n
            c(i, j) = a(i, j) + b(i, j)
          enddo
        enddo
      enddo
      print *, c(1, 1)
      end
|}
  in
  (* 3 arrays * 1200^2 * 4B = 17.3 MB > 16 MB *)
  let starved = eval ~serial_memory:(Some (16.0 *. 1024.0 *. 1024.0)) src in
  let roomy = eval ~serial_memory:(Some (64.0 *. 1024.0 *. 1024.0)) src in
  Alcotest.(check bool) "faults when starved" true (starved.PM.page_faults > 0.0);
  Alcotest.(check bool) "no faults with room" true (roomy.PM.page_faults = 0.0);
  Alcotest.(check bool) "thrashing is much slower" true
    (starved.PM.cycles > 3.0 *. roomy.PM.cycles)

let test_prefetch_effect () =
  let src =
    {|
      program p
      real a(100000), b(100000)
      global a, b
      xdoall i = 1, 100000, 32
        integer i3, up
      loop
        i3 = min(32, 100000 - i + 1)
        up = i + i3 - 1
        a(i:up) = b(i:up)*2.0
      endloop
      end xdoall
      print *, a(9)
      end
|}
  in
  let on = (eval ~config:(Mach.Config.with_prefetch cfg true) src).PM.cycles in
  let off = (eval ~config:(Mach.Config.with_prefetch cfg false) src).PM.cycles in
  Alcotest.(check bool)
    (Printf.sprintf "prefetch gain %.2f" (off /. on))
    true
    (off /. on > 1.5)

let test_bandwidth_saturation () =
  (* memory-bound loop on global data: 1 -> 2 clusters scales nearly
     linearly, 2 -> 4 saturates on global-memory bandwidth (Fig 8) *)
  let src =
    {|
      program p
      real a(200000), b(200000), c(200000)
      global a, b, c
      xdoall i = 1, 200000, 32
        integer i3, up
      loop
        i3 = min(32, 200000 - i + 1)
        up = i + i3 - 1
        a(i:up) = b(i:up) + c(i:up)
      endloop
      end xdoall
      print *, a(7)
      end
|}
  in
  let t n = (eval ~config:(Mach.Config.with_clusters cfg n) src).PM.cycles in
  let t1 = t 1 and t2 = t 2 and t4 = t 4 in
  let s12 = t1 /. t2 and s24 = t2 /. t4 in
  Alcotest.(check bool)
    (Printf.sprintf "1->2 near-linear (%.2f)" s12)
    true (s12 > 1.7);
  Alcotest.(check bool)
    (Printf.sprintf "2->4 saturating (%.2f)" s24)
    true (s24 < 1.7)

let test_doacross_chain () =
  let src frac_sync =
    Printf.sprintf
      {|
      program p
      real a(5000), b(5000), c(5000)
      cluster a, b, c
      b(1) = 1.0
      cdoacross i = 2, 5000
        c(i) = a(i)*2.0 + a(i)*3.0 + a(i)*4.0
        call await(1, 1)
        b(i) = b(i - 1) + %s
        call advance(1)
      end cdoacross
      print *, b(5000)
      end
|}
      frac_sync
  in
  let light = (eval (src "1.0")).PM.cycles in
  let heavy =
    (eval (src "sqrt(a(i)) + sqrt(c(i)) + sqrt(b(i - 1)*2.0)")).PM.cycles
  in
  Alcotest.(check bool) "bigger sync region costs more" true
    (heavy > 1.5 *. light)

(* An undeclared PROCESS COMMON member has no declaration, so only the
   table's implicit entry for a name the body mentions gives it the
   block's global placement: it must cost and count as a declared one. *)
let test_undeclared_process_common () =
  let src decl =
    Printf.sprintf
      {|
      program p
      process common /pc/ s
      real a(100)%s
      do i = 1, 100
        s = s + a(i)
      enddo
      print *, s
      end
|}
      decl
  in
  let undeclared = eval (src "") and declared = eval (src "\n      real s") in
  Alcotest.(check (float 0.0)) "s read and written in global memory" 201.0
    undeclared.PM.global_words;
  Alcotest.(check bool) "same run as the declared member" true (undeclared = declared)

(* The working set counts each COMMON member once, under the first unit
   whose table sizes it as an array: an undeclared scalar the main
   program mentions does not hide the subroutine's 400 000-byte array of
   the same name. *)
let test_common_shadowing () =
  let src stmt =
    Printf.sprintf
      {|
      program p
      common /blk/ x
      %s
      call sub
      end
      subroutine sub
      common /blk/ x
      real x(100000)
      x(1) = 2.0
      end
|}
      stmt
  in
  Alcotest.(check (float 0.0)) "the mentioned scalar hides no array" 400_000.0
    (eval (src "x = 1.0")).PM.cluster_bytes_used;
  Alcotest.(check (float 0.0)) "nor does an unmentioned one" 400_000.0
    (eval (src "y = 1.0")).PM.cluster_bytes_used

(* The working set keys a name outside COMMON by its unit's name, and the
   parser accepts two units of one name: an implicit scalar the first
   [sub] mentions does not hide the second [sub]'s 400 000-byte array,
   whether or not the tables are built from a walk of each body. *)
let test_namesake_shadowing () =
  let src stmt =
    Printf.sprintf
      {|
      program p
      print *, 1.0
      end
      subroutine sub
      %s
      end
      subroutine sub
      real x(100000)
      x(1) = 2.0
      end
|}
      stmt
  in
  Alcotest.(check (float 0.0)) "the mentioned scalar hides no array" 400_000.0
    (eval (src "x = 1.0")).PM.cluster_bytes_used;
  Alcotest.(check (float 0.0)) "nor does an unmentioned one" 400_000.0
    (eval (src "y = 1.0")).PM.cluster_bytes_used

let tests =
  [
    Alcotest.test_case "linear scaling" `Quick test_scaling;
    Alcotest.test_case "interp agreement serial" `Quick
      test_interp_agreement_serial;
    Alcotest.test_case "interp agreement parallel" `Quick
      test_interp_agreement_parallel;
    Alcotest.test_case "triangular trapezoid" `Quick test_triangular_trapezoid;
    Alcotest.test_case "parallel faster" `Quick test_parallel_faster;
    Alcotest.test_case "paging model" `Quick test_paging_model;
    Alcotest.test_case "prefetch effect" `Quick test_prefetch_effect;
    Alcotest.test_case "bandwidth saturation" `Quick test_bandwidth_saturation;
    Alcotest.test_case "doacross chain" `Quick test_doacross_chain;
    Alcotest.test_case "undeclared process common placed globally" `Quick
      test_undeclared_process_common;
    Alcotest.test_case "common scalar hides no later array" `Quick
      test_common_shadowing;
    Alcotest.test_case "namesake's scalar hides no array" `Quick
      test_namesake_shadowing;
  ]
