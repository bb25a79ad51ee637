(** Analytic performance model for Cedar Fortran programs at paper-scale
    problem sizes.

    The concrete DES interpreter executes element by element — fine for
    n = 100, hopeless for the paper's 1000×1000 O(n³) routines (10⁹
    operations).  This model instead evaluates the {i cost structure}:

    - integer scalars with statically evaluable values are tracked in an
      environment, so loop bounds resolve;
    - a loop's total cost uses the trapezoid of its body cost at the
      first and last iteration (exact when the body cost is affine in the
      index — triangular nests included);
    - parallel loops get a self-scheduled makespan
      [total/P + c_max + startup + (trip/P)·dispatch], DOACROSS loops a
      critical-path term [trip/distance · region]; both are then lower-
      bounded by the memory-bandwidth constraint of the level they pound
      (this produces Figure 8's global-memory saturation);
    - memory references cost by placement (private / cluster / global,
      scalar or vector stream, prefetch on or off);
    - a paging model compares each memory level's working set against its
      capacity and charges page faults on the traffic overflowing it —
      the source of the paper's superlinear serial-vs-parallel ratios
      (mprove at n = 1000).

    Agreement with the DES interpreter at small sizes is enforced by
    test/test_perfmodel.ml. *)

open Fortran
module Cfg = Machine.Config
module SMap = Ast_utils.SMap

type run = {
  cycles : float;
  global_words : float;
  cluster_words : float;
  private_words : float;
  strided_words : float;
  page_faults : float;
  cluster_bytes_used : float;  (** working set placed in cluster memory *)
  global_bytes_used : float;
}

type counters = {
  mutable gw : float;  (** accumulated global-memory words *)
  mutable cw : float;
  mutable pw : float;
  mutable sw : float;
      (** strided cluster-memory words: column-major arrays swept along a
          non-leading dimension touch a fresh page almost every reference
          once the working set thrashes *)
  mutable run_idx : string;  (** innermost running loop index *)
}

type env = {
  cfg : Cfg.t;
  units : (Ast.punit * Symbols.t) list;
      (** the program's units, each with its table (built once per run) *)
  syms : Symbols.t;
  mutable ints : float SMap.t;  (** known scalar values *)
  locals : Ast_utils.SSet.t;  (** names with processor-private storage *)
  cnt : counters;  (** shared across derived environments *)
  depth : int;  (** call depth *)
}

exception Unknown of string

let lookup_value env v =
  match SMap.find_opt v env.ints with
  | Some x -> Some x
  | None -> None

(* evaluate an integer-ish scalar expression against the environment *)
let rec value env (e : Ast.expr) : float =
  match e with
  | Ast.Int n -> float_of_int n
  | Ast.Num f -> f
  | Ast.Var v -> (
      match lookup_value env v with
      | Some x -> x
      | None -> (
          match List.assoc_opt v env.syms.Symbols.params with
          | Some e -> value env e
          | None -> raise (Unknown v)))
  | Ast.Bin (op, a, b) -> (
      let x = value env a and y = value env b in
      match op with
      | Ast.Add -> x +. y
      | Ast.Sub -> x -. y
      | Ast.Mul -> x *. y
      | Ast.Div ->
          if Float.is_integer x && Float.is_integer y && y <> 0.0 then
            Float.of_int (int_of_float x / int_of_float y)
          else x /. y
      | Ast.Pow -> Float.pow x y
      | Ast.Eq -> if x = y then 1.0 else 0.0
      | Ast.Ne -> if x <> y then 1.0 else 0.0
      | Ast.Lt -> if x < y then 1.0 else 0.0
      | Ast.Le -> if x <= y then 1.0 else 0.0
      | Ast.Gt -> if x > y then 1.0 else 0.0
      | Ast.Ge -> if x >= y then 1.0 else 0.0
      | Ast.And -> if x <> 0.0 && y <> 0.0 then 1.0 else 0.0
      | Ast.Or -> if x <> 0.0 || y <> 0.0 then 1.0 else 0.0)
  | Ast.Un (Ast.Neg, a) -> -.value env a
  | Ast.Un (Ast.Not, a) -> if value env a = 0.0 then 1.0 else 0.0
  | Ast.Call (f, args) -> (
      match String.lowercase_ascii f with
      | "min" -> List.fold_left Float.min infinity (List.map (value env) args)
      | "max" ->
          List.fold_left Float.max neg_infinity (List.map (value env) args)
      | "mod" -> (
          match List.map (value env) args with
          | [ a; b ] -> Float.rem a b
          | _ -> raise (Unknown "mod"))
      | "int" | "nint" | "float" | "real" | "dble" ->
          value env (List.hd args)
      | f -> raise (Unknown f))
  | _ -> raise (Unknown "expr")

let value_opt env e = try Some (value env e) with Unknown _ -> None

(* ------------------------------------------------------------------ *)
(* Placement                                                           *)
(* ------------------------------------------------------------------ *)

type placement = Priv | Clu | Glo

let placement env name : placement =
  if Ast_utils.SSet.mem name env.locals then Priv
  else
    match Symbols.lookup env.syms name with
    | Some s ->
        if s.Symbols.s_vis = Ast.Global || s.Symbols.s_process_common then Glo
        else Clu
    | None -> Clu

let scalar_ref_cost env p =
  match p with
  | Priv -> env.cfg.Cfg.cache_hit
  | Clu -> env.cfg.Cfg.cluster_scalar
  | Glo -> env.cfg.Cfg.global_scalar

let count env p words =
  match p with
  | Priv -> env.cnt.pw <- env.cnt.pw +. words
  | Clu -> env.cnt.cw <- env.cnt.cw +. words
  | Glo -> env.cnt.gw <- env.cnt.gw +. words

(* ------------------------------------------------------------------ *)
(* Expression cost (scalar context)                                    *)
(* ------------------------------------------------------------------ *)

let rec expr_cost env (e : Ast.expr) : float =
  match e with
  | Ast.Int _ | Ast.Num _ | Ast.Str _ | Ast.Bool _ -> 0.0
  | Ast.Var v ->
      let p = placement env v in
      count env p 1.0;
      scalar_ref_cost env p
  | Ast.Idx (a, subs) ->
      let p = placement env a in
      count env p 1.0;
      (* strided reference: the running index appears only past the first
         (contiguous) dimension of a rank>=2 array *)
      (match (p, subs) with
      | Clu, first :: (_ :: _ as rest) ->
          let ri = env.cnt.run_idx in
          if
            ri <> ""
            && (not (Ast_utils.mentions ri first))
            && List.exists (Ast_utils.mentions ri) rest
          then env.cnt.sw <- env.cnt.sw +. 1.0
      | _ -> ());
      List.fold_left
        (fun acc s -> acc +. expr_cost env s)
        (scalar_ref_cost env p) subs
  | Ast.Section _ -> vector_expr_cost env e
  | Ast.Call (f, args) -> call_cost env f args
  | Ast.Bin ((Ast.And | Ast.Or), a, b) ->
      expr_cost env a +. (0.5 *. expr_cost env b)
  | Ast.Bin (_, a, b) ->
      env.cfg.Cfg.scalar_op +. expr_cost env a +. expr_cost env b
  | Ast.Un (_, a) -> env.cfg.Cfg.scalar_op +. expr_cost env a

(* length of a section along its ranges *)
and section_length env (dims : Ast.expr Ast.section_dim list) arr_name : float =
  let dim_len k d =
    match d with
    | Ast.Elem _ -> 1.0
    | Ast.Range (lo, hi, step) -> (
        let bounds () =
          match Symbols.lookup env.syms arr_name with
          | Some s when List.length s.Symbols.s_dims > k ->
              let dlo, dhi = List.nth s.Symbols.s_dims k in
              (value_opt env dlo, value_opt env dhi)
          | _ -> (None, None)
        in
        let lo_v =
          match lo with
          | Some e -> value_opt env e
          | None -> fst (bounds ())
        in
        let hi_v =
          match hi with
          | Some e -> value_opt env e
          | None -> snd (bounds ())
        in
        let st = match step with Some e -> value_opt env e | None -> Some 1.0 in
        match (lo_v, hi_v, st) with
        | Some l, Some h, Some s when s <> 0.0 ->
            Float.max 0.0 (Float.round (((h -. l) /. s) +. 1.0))
        | _ -> 64.0 (* fallback guess *))
  in
  List.fold_left ( *. ) 1.0 (List.mapi dim_len dims)

and vector_expr_cost env (e : Ast.expr) : float =
  (* vector context: each section is one stream; arithmetic costs
     vector_op per element; returns cost, assuming the caller knows the
     overall length *)
  match e with
  | Ast.Section (a, dims) ->
      let n = section_length env dims a in
      let p = placement env a in
      count env p n;
      (match p with
      | Priv -> env.cfg.Cfg.vector_startup +. (env.cfg.Cfg.cache_hit *. n)
      | Clu -> Cfg.vector_stream_cost env.cfg ~global:false (int_of_float n)
      | Glo -> Cfg.vector_stream_cost env.cfg ~global:true (int_of_float n))
  | Ast.Call (f, [ lo; hi ]) when String.lowercase_ascii f = "cedar_iota" -> (
      match (value_opt env lo, value_opt env hi) with
      | Some l, Some h -> env.cfg.Cfg.vector_op *. Float.max 0.0 (h -. l +. 1.0)
      | _ -> 32.0)
  | Ast.Call (_, args) ->
      List.fold_left (fun acc a -> acc +. vector_expr_cost env a) 2.0 args
  | Ast.Bin (_, a, b) ->
      (* per-element op cost folded into the streams' lengths: use the max
         of operand section lengths *)
      let la = vec_len env a and lb = vec_len env b in
      (env.cfg.Cfg.vector_op *. Float.max la lb)
      +. vector_expr_cost env a +. vector_expr_cost env b
  | Ast.Un (_, a) ->
      (env.cfg.Cfg.vector_op *. vec_len env a) +. vector_expr_cost env a
  | Ast.Var _ | Ast.Idx _ -> expr_cost env e
  | Ast.Int _ | Ast.Num _ | Ast.Str _ | Ast.Bool _ -> 0.0

and vec_len env (e : Ast.expr) : float =
  match e with
  | Ast.Section (a, dims) -> section_length env dims a
  | Ast.Call (f, [ lo; hi ]) when String.lowercase_ascii f = "cedar_iota" -> (
      match (value_opt env lo, value_opt env hi) with
      | Some l, Some h -> Float.max 0.0 (h -. l +. 1.0)
      | _ -> 32.0)
  | Ast.Call (_, args) ->
      List.fold_left (fun acc a -> Float.max acc (vec_len env a)) 1.0 args
  | Ast.Bin (_, a, b) -> Float.max (vec_len env a) (vec_len env b)
  | Ast.Un (_, a) -> vec_len env a
  | _ -> 1.0

and call_cost env f args : float =
  let fl = String.lowercase_ascii f in
  let args_cost () =
    List.fold_left (fun acc a -> acc +. expr_cost env a) 0.0 args
  in
  match fl with
  | "sqrt" | "exp" | "log" | "sin" | "cos" | "tan" | "atan" ->
      env.cfg.Cfg.intrinsic_op +. args_cost ()
  | "abs" | "sign" | "min" | "max" | "mod" | "int" | "nint" | "float" | "real"
  | "dble" ->
      env.cfg.Cfg.scalar_op +. args_cost ()
  | "sum" | "dotproduct" | "maxval" | "minval" ->
      (* vector reduction intrinsics: stream operands + one op/element *)
      let len = List.fold_left (fun acc a -> Float.max acc (vec_len env a)) 1.0 args in
      List.fold_left (fun acc a -> acc +. vector_expr_cost env a) 0.0 args
      +. (env.cfg.Cfg.vector_op *. len *. float_of_int (List.length args))
  | "cedar_dotp" | "cedar_maxval" | "cedar_minval" -> (
      (* two-level parallel library reduction *)
      let lo, hi =
        match fl with
        | "cedar_dotp" -> (List.nth args 2, List.nth args 3)
        | _ -> (List.nth args 1, List.nth args 2)
      in
      match (value_opt env lo, value_opt env hi) with
      | Some l, Some h ->
          let n = Float.max 0.0 (h -. l +. 1.0) in
          let p = float_of_int (Cfg.total_processors env.cfg) in
          let chunk = n /. p in
          let streams = if fl = "cedar_dotp" then 2.0 else 1.0 in
          let arr_name =
            match args with Ast.Var v :: _ -> v | _ -> ""
          in
          let glob = placement env arr_name = Glo in
          count env (if glob then Glo else Clu) (streams *. n);
          env.cfg.Cfg.sdo_startup
          +. (streams
              *. Cfg.vector_stream_cost env.cfg ~global:glob
                   (int_of_float chunk))
          +. (streams *. env.cfg.Cfg.vector_op *. chunk)
          +. (3.0 *. env.cfg.Cfg.await_cost)
          +. (float_of_int env.cfg.Cfg.clusters *. env.cfg.Cfg.global_scalar)
      | _ -> 1000.0)
  | _ -> (
      (* user function: evaluate its unit *)
      match
        List.find_opt
          (fun (u, _) -> String.lowercase_ascii u.Ast.u_name = fl)
          env.units
      with
      | Some unit when env.depth < 12 -> unit_cost env unit args
      | _ -> 20.0 +. args_cost ())

(* ------------------------------------------------------------------ *)
(* Statement costs                                                     *)
(* ------------------------------------------------------------------ *)

and stmt_cost env (s : Ast.stmt) : float =
  match s with
  | Ast.Assign (Ast.LVar v, e) ->
      (* track integer values for bounds *)
      (match value_opt env e with
      | Some x -> env.ints <- SMap.add v x env.ints
      | None -> env.ints <- SMap.remove v env.ints);
      let p = placement env v in
      count env p 1.0;
      scalar_ref_cost env p +. expr_cost env e
  | Ast.Assign (Ast.LIdx (a, subs), e) ->
      let p = placement env a in
      count env p 1.0;
      scalar_ref_cost env p
      +. List.fold_left (fun acc s -> acc +. expr_cost env s) 0.0 subs
      +. expr_cost env e
  | Ast.Assign (Ast.LSection (a, dims), e) ->
      let n = section_length env dims a in
      let p = placement env a in
      count env p n;
      (match p with
      | Priv -> env.cfg.Cfg.vector_startup +. (env.cfg.Cfg.cache_hit *. n)
      | Clu -> Cfg.vector_stream_cost env.cfg ~global:false (int_of_float n)
      | Glo -> Cfg.vector_stream_cost env.cfg ~global:true (int_of_float n))
      +. vector_expr_cost env e
  | Ast.If (c, t, e) ->
      let cc = expr_cost env c +. env.cfg.Cfg.scalar_op in
      (* try to decide the branch; else average, forgetting the values of
         anything either branch may write *)
      (match value_opt env c with
      | Some v -> cc +. stmts_cost env (if v <> 0.0 then t else e)
      | None ->
          let tc = stmts_cost env t and ec = stmts_cost env e in
          let written = Ast_utils.writes_of (t @ e) in
          env.ints <-
            SMap.filter (fun v _ -> not (Ast_utils.SSet.mem v written)) env.ints;
          cc +. (0.5 *. (tc +. ec)))
  | Ast.Where (m, body) ->
      vector_expr_cost env m +. stmts_cost env body
  | Ast.Do (h, blk) -> loop_cost env h blk
  | Ast.CallSt (f, args) -> (
      match String.lowercase_ascii f with
      | "await" | "advance" -> env.cfg.Cfg.await_cost
      | "lock" | "unlock" -> env.cfg.Cfg.lock_cost
      | "cedar_slr1" -> (
          match args with
          | [ _; _; _; lo; hi ] -> (
              match (value_opt env lo, value_opt env hi) with
              | Some l, Some h ->
                  let n = Float.max 0.0 (h -. l +. 1.0) in
                  let p = float_of_int (Cfg.total_processors env.cfg) in
                  env.cnt.cw <- env.cnt.cw +. (3.0 *. n);
                  env.cfg.Cfg.sdo_startup
                  +. (3.0
                      *. Cfg.vector_stream_cost env.cfg ~global:false
                           (int_of_float (n /. p)))
                  +. (8.0 *. env.cfg.Cfg.vector_op *. n /. p)
                  +. (Float.log (p +. 1.0) /. Float.log 2.0
                      *. (env.cfg.Cfg.global_scalar +. env.cfg.Cfg.await_cost))
              | _ -> 1000.0)
          | _ -> 1000.0)
      | _ -> (
          match
            List.find_opt
              (fun (u, _) ->
                String.lowercase_ascii u.Ast.u_name = String.lowercase_ascii f)
              env.units
          with
          | Some unit when env.depth < 12 -> unit_cost env unit args
          | _ ->
              20.0
              +. List.fold_left (fun acc a -> acc +. expr_cost env a) 0.0 args))
  | Ast.Print args ->
      List.fold_left (fun acc a -> acc +. expr_cost env a) 50.0 args
  | Ast.Read _ -> 50.0
  | Ast.Labeled (_, s) -> stmt_cost env s
  | Ast.Return | Ast.Stop | Ast.Continue | Ast.Goto _ -> 0.0

and stmts_cost env stmts =
  List.fold_left (fun acc s -> acc +. stmt_cost env s) 0.0 stmts

(* ------------------------------------------------------------------ *)
(* Loops                                                               *)
(* ------------------------------------------------------------------ *)

and body_cost_at env (h : Ast.do_header) body (i : float) : float =
  let saved = env.ints in
  let saved_idx = env.cnt.run_idx in
  env.ints <- SMap.add h.Ast.index i env.ints;
  env.cnt.run_idx <- h.Ast.index;
  let c = stmts_cost env body in
  env.ints <- saved;
  env.cnt.run_idx <- saved_idx;
  c

and trip_of env (h : Ast.do_header) : float option =
  let step =
    match h.Ast.step with None -> Some 1.0 | Some e -> value_opt env e
  in
  match (value_opt env h.Ast.lo, value_opt env h.Ast.hi, step) with
  | Some l, Some hi, Some s when s <> 0.0 ->
      Some (Float.max 0.0 (Float.floor ((hi -. l) /. s) +. 1.0))
  | _ -> None

and loop_cost env (h : Ast.do_header) (blk : Ast.block) : float =
  let lo = value_opt env h.Ast.lo in
  let step =
    match h.Ast.step with
    | None -> 1.0
    | Some e -> Option.value (value_opt env e) ~default:1.0
  in
  let trip = match trip_of env h with Some t -> t | None -> 100.0 in
  let lo = Option.value lo ~default:1.0 in
  (* sample the body at the first and the LAST iteration's index value
     (not the bound: with step > 1 the bound may fall in a partial strip) *)
  let hi = lo +. (step *. (trip -. 1.0)) in
  if trip <= 0.0 then 0.0
  else begin
    let snap () = (env.cnt.gw, env.cnt.cw, env.cnt.pw, env.cnt.sw) in
    let restore (g, c, p, w) =
      env.cnt.gw <- g;
      env.cnt.cw <- c;
      env.cnt.pw <- p;
      env.cnt.sw <- w
    in
    (* the environment the body runs in: concurrent loops add their
       loop-local declarations and index as private storage *)
    let env_body =
      if h.Ast.cls = Ast.Seq then env
      else
        {
          env with
          locals =
            List.fold_left
              (fun acc d -> Ast_utils.SSet.add d.Ast.d_name acc)
              (Ast_utils.SSet.add h.Ast.index env.locals)
              h.Ast.locals;
        }
    in
    (* measure cost and traffic of one iteration's body at index value i,
       leaving the accumulated traffic untouched *)
    let measure i =
      let s = snap () in
      let cost = body_cost_at env_body h blk.Ast.body i in
      let g2, c2, p2, w2 = snap () in
      let g0, c0, p0, w0 = s in
      restore s;
      (cost, g2 -. g0, c2 -. c0, p2 -. p0, w2 -. w0)
    in
    let c_lo, g_lo, cw_lo, pw_lo, sw_lo = measure lo in
    let c_hi, g_hi, cw_hi, pw_hi, sw_hi = measure hi in
    (* values assigned inside the loop are unknown after it (the sampling
       walk restored the environment) *)
    let written =
      Ast_utils.writes_of (blk.Ast.preamble @ blk.Ast.body @ blk.Ast.postamble)
    in
    env.ints <-
      SMap.filter (fun v _ -> not (Ast_utils.SSet.mem v written)) env.ints;
    (* trapezoid: exact for costs affine in the index *)
    let avg = 0.5 *. (c_lo +. c_hi) in
    let total = trip *. avg in
    let loop_gw = trip *. 0.5 *. (g_lo +. g_hi) in
    let loop_cw = trip *. 0.5 *. (cw_lo +. cw_hi) in
    let loop_pw = trip *. 0.5 *. (pw_lo +. pw_hi) in
    env.cnt.gw <- env.cnt.gw +. loop_gw;
    env.cnt.cw <- env.cnt.cw +. loop_cw;
    env.cnt.pw <- env.cnt.pw +. loop_pw;
    env.cnt.sw <- env.cnt.sw +. (trip *. 0.5 *. (sw_lo +. sw_hi));
    let c_max = Float.max c_lo c_hi in
    let per_iter_control = env.cfg.Cfg.scalar_op in
    match h.Ast.cls with
    | Ast.Seq -> total +. (trip *. per_iter_control)
    | cls ->
        let cfg = env.cfg in
        let procs, startup, dispatch, clusters_used =
          match cls with
          | Ast.Cdoall | Ast.Cdoacross ->
              ( float_of_int cfg.Cfg.ces_per_cluster,
                cfg.Cfg.cdo_startup,
                cfg.Cfg.cdo_dispatch,
                1.0 )
          | Ast.Sdoall | Ast.Sdoacross ->
              ( float_of_int cfg.Cfg.clusters,
                cfg.Cfg.sdo_startup,
                cfg.Cfg.sdo_dispatch,
                float_of_int cfg.Cfg.clusters )
          | Ast.Xdoall | Ast.Xdoacross ->
              ( float_of_int (Cfg.total_processors cfg),
                cfg.Cfg.sdo_startup,
                cfg.Cfg.sdo_dispatch,
                float_of_int cfg.Cfg.clusters )
          | Ast.Seq -> assert false
        in
        let env_loc = env_body in
        let pre = stmts_cost env_loc blk.Ast.preamble in
        let post = stmts_cost env_loc blk.Ast.postamble in
        (* postambles with locks serialize across processors *)
        let post_locked =
          if
            List.exists
              (function
                | Ast.CallSt (l, _) -> String.lowercase_ascii l = "lock"
                | _ -> false)
              blk.Ast.postamble
          then post *. procs
          else post
        in
        let doacross_chain =
          if Ast.is_doacross cls then begin
            (* distance from await call; region = cost between await and
               advance at top level *)
            let dist = ref 1 in
            let in_region = ref false in
            let region = ref 0.0 in
            List.iter
              (fun s ->
                match Ast_utils.strip_labels_stmt s with
                | Ast.CallSt (n, args)
                  when String.lowercase_ascii n = "await" ->
                    in_region := true;
                    (match args with
                    | [ _; Ast.Int d ] -> dist := max 1 d
                    | _ -> ());
                    region := !region +. cfg.Cfg.await_cost
                | Ast.CallSt (n, _) when String.lowercase_ascii n = "advance"
                  ->
                    in_region := false;
                    region := !region +. cfg.Cfg.await_cost
                | s ->
                    if !in_region then begin
                      let sv = snap () in
                      let c =
                        let e2 = { env_loc with ints = SMap.add h.Ast.index lo env_loc.ints } in
                        stmt_cost e2 s
                      in
                      restore sv;
                      region := !region +. c
                    end)
              blk.Ast.body;
            trip /. float_of_int !dist *. !region
          end
          else 0.0
        in
        let cpu =
          startup +. pre
          +. (total /. procs)
          +. c_max
          +. (trip /. procs *. dispatch)
          +. post_locked
        in
        let cpu = Float.max cpu doacross_chain in
        (* bandwidth bound: traffic of this loop vs level bandwidth *)
        let bw_bound =
          Float.max
            (loop_gw /. cfg.Cfg.global_bw)
            (loop_cw /. (cfg.Cfg.cluster_bw *. clusters_used))
        in
        Float.max cpu bw_bound
  end

(* ------------------------------------------------------------------ *)
(* Units and programs                                                  *)
(* ------------------------------------------------------------------ *)

and unit_cost (env : env) ((u, syms) : Ast.punit * Symbols.t)
    (args : Ast.expr list) : float =
  let formals =
    match u.Ast.u_kind with
    | Ast.Subroutine ps | Ast.Function (_, ps) -> ps
    | Ast.Program -> []
  in
  let ints =
    List.fold_left2
      (fun acc f a ->
        match value_opt env a with
        | Some v -> SMap.add f v acc
        | None -> acc)
      SMap.empty
      (if List.length formals = List.length args then formals else [])
      (if List.length formals = List.length args then args else [])
  in
  let env' =
    {
      env with
      syms;
      ints;
      locals = Ast_utils.SSet.empty;
      depth = env.depth + 1;
    }
  in
  let c = stmts_cost env' u.Ast.u_body in
  10.0 +. c

(* working set per placement level, bytes *)
let working_set (units : (Ast.punit * Symbols.t) list) : float * float =
  (* (cluster_bytes, global_bytes) across all units; commons counted once.
     Only an entry that adds bytes (a sized array) claims its key, so a
     scalar or implicit view of a name hides no later unit's array. *)
  let seen = Hashtbl.create 64 in
  List.fold_left
    (fun (cb, gb) (u, syms) ->
      SMap.fold
        (fun name s (cb, gb) ->
          let key =
            match s.Symbols.s_common with
            | Some c -> "common:" ^ c ^ ":" ^ name
            | None -> u.Ast.u_name ^ ":" ^ name
          in
          if Hashtbl.mem seen key || s.Symbols.s_formal then (cb, gb)
          else
            match Symbols.size_bytes syms name with
            | Some bytes when s.Symbols.s_dims <> [] ->
                Hashtbl.add seen key ();
                if s.Symbols.s_vis = Ast.Global || s.Symbols.s_process_common
                then (cb, gb +. float_of_int bytes)
                else (cb +. float_of_int bytes, gb)
            | _ -> (cb, gb))
        syms.Symbols.syms (cb, gb))
    (0.0, 0.0) units

(* The model reads a unit's table for placement, section bounds,
   PARAMETERs and the working set of declared arrays, and an implicitly
   typed name changes none of these, so most tables need no walk of the
   body.  A unit with an undeclared COMMON member keeps the full table: a
   mentioned one has the block's placement. *)
let table (u : Ast.punit) : Symbols.t =
  let declared v =
    List.exists (fun (d : Ast.decl) -> String.equal d.Ast.d_name v) u.Ast.u_decls
    || List.mem_assoc v u.Ast.u_params
  in
  let undeclared_common =
    List.exists
      (fun (cb : Ast.common_block) -> not (List.for_all declared cb.Ast.c_vars))
      u.Ast.u_commons
  in
  if undeclared_common then Symbols.of_unit u
  else Symbols.of_decls u ~used:Ast_utils.SSet.empty

(** Evaluate a program's run time on [cfg].  [serial_memory] limits the
    memory available to cluster-placed data (the serial baseline runs in
    one cluster of Configuration 1: 16 MB). *)
let evaluate ?(serial_memory = None) ~(cfg : Cfg.t) (prog : Ast.program) : run =
  let units = List.map (fun u -> (u, table u)) prog in
  let main, syms =
    match List.find_opt (fun (u, _) -> u.Ast.u_kind = Ast.Program) units with
    | Some unit -> unit
    | None -> invalid_arg "no PROGRAM unit"
  in
  let env =
    {
      cfg;
      units;
      syms;
      ints = SMap.empty;
      locals = Ast_utils.SSet.empty;
      cnt = { gw = 0.0; cw = 0.0; pw = 0.0; sw = 0.0; run_idx = "" };
      depth = 0;
    }
  in
  let cycles = stmts_cost env main.Ast.u_body in
  let cluster_ws, global_ws = working_set units in
  (* paging: traffic to an over-committed level pays fault overhead on the
     overflow fraction *)
  let word_bytes = 4.0 in
  (* the OS and runtime keep ~8%% of a memory resident *)
  let usable b = 0.92 *. b in
  let cluster_capacity =
    match serial_memory with
    | Some b -> usable b
    | None -> usable (float_of_int cfg.Cfg.cluster_mem_bytes)
  in
  let global_capacity = usable (float_of_int (max cfg.Cfg.global_mem_bytes 1)) in
  let fault_of ?(strided = 0.0) traffic ws capacity =
    if ws <= capacity || traffic <= 0.0 then 0.0
    else
      (* cyclic sequential sweeps over a working set larger than memory
         defeat LRU completely: every page of traffic refaults — the cliff
         behind mprove's jump past n = 800 in the paper.  Strided sweeps
         (column-major arrays walked along a trailing dimension) touch a
         fresh page every few references; the divisor 96 calibrates the
         residual page/TLB reuse between neighbouring sweeps. *)
      (traffic *. word_bytes /. float_of_int cfg.Cfg.page_bytes)
      +. (strided /. 96.0)
  in
  let faults =
    fault_of ~strided:env.cnt.sw env.cnt.cw cluster_ws cluster_capacity
    +.
    if cfg.Cfg.global_mem_bytes > 0 then
      fault_of env.cnt.gw global_ws global_capacity
    else 0.0
  in
  {
    cycles = cycles +. (faults *. cfg.Cfg.page_fault_cycles);
    global_words = env.cnt.gw;
    cluster_words = env.cnt.cw;
    private_words = env.cnt.pw;
    strided_words = env.cnt.sw;
    page_faults = faults;
    cluster_bytes_used = cluster_ws;
    global_bytes_used = global_ws;
  }
