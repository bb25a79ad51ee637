(** The restructurer driver: fortran77 in, Cedar Fortran out.

    For every loop nest the driver runs the analyses, decides which
    dependences each enabled technique removes, asks the cost model to
    rank the legal execution modes (bounded by the candidate-version
    limit), applies the transformations of the winner, and records a
    report used by the experiment harness.  The structure follows §3–4 of
    the paper: recognition (dependences, privatization, reductions,
    GIVs, recurrences) → optimization alternatives (X/S/C/vector modes,
    DOACROSS with the synchronization delay factor, two-version loops
    under a run-time test) → globalization. *)

open Fortran
open Analysis
module SSet = Ast_utils.SSet
module SMap = Ast_utils.SMap

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

type loop_report = {
  r_unit : string;
  r_index : string;
  r_depth : int;
  r_decision : string;
  r_mode : Cost_model.mode option;
  r_techniques : string list;
  r_blockers : string list;
  r_versions : int;  (** candidate versions considered *)
}

type result = {
  program : Ast.program;
  reports : loop_report list;
  inline_failures : Transform.Inline.failure list;
}

(* ------------------------------------------------------------------ *)
(* Per-loop analysis                                                   *)
(* ------------------------------------------------------------------ *)

type avail = { spread : bool; cluster : bool }

type loop_analysis = {
  a_blockers : string list;
  a_priv_scalars : (string * Ast.dtype) list;
  a_last_values : string list;
  a_scalar_reds : Transform.Reduction_par.scalar_red list;
  a_array_reds : Transform.Reduction_par.array_red list;
  a_priv_arrays : (string * Ast.dtype * (Ast.expr * Ast.expr) list) list;
  a_givs : Giv.closed_form list;
  a_doacross : Transform.Doacross.plan option;
  a_sync_fraction : float;
  a_rt_condition : Ast.expr option;
  a_library : Ast.stmt list option;
  a_techniques : string list;
  a_body : Ast.stmt list;  (** the analyzed body, for [back_edge_live] *)
  a_exposed : SSet.t;  (** its upward-exposed names *)
  a_privatizable : string -> bool;
      (** array privatization in this body, decided once per array *)
}

exception Interrupted

type ctx = {
  opts : Options.t;
  syms : Symbols.t;
  interproc : Interproc.t;
  iface : SSet.t;  (** the unit's interface data ([Symbols.interface_vars]) *)
  unit_name : string;
  interrupt : unit -> bool;  (** polled per loop nest; true aborts the job *)
  memo : loop_report Memo.t option;  (** shared nest-level memo table *)
  mutable reports : loop_report list;
}

(* one metrics counter per driver verdict:
   "serial (cost model)" -> driver_decision_serial_cost_model_total *)
let decision_slug s =
  let b = Buffer.create (String.length s) in
  let last_us = ref true in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | '0' .. '9' ->
          Buffer.add_char b c;
          last_us := false
      | 'A' .. 'Z' ->
          Buffer.add_char b (Char.lowercase_ascii c);
          last_us := false
      | _ ->
          if not !last_us then begin
            Buffer.add_char b '_';
            last_us := true
          end)
    s;
  let s = Buffer.contents b in
  if String.length s > 0 && s.[String.length s - 1] = '_' then
    String.sub s 0 (String.length s - 1)
  else s

(* Each verdict's counter, looked up in the registry by the first loop
   that gets the verdict (so it enters the dump when it always did) and
   kept here after: the decisions are a handful of literal strings, and
   memo replays carry the same ones.  Two domains that miss together
   add the same counter twice, which is harmless. *)
let decision_counters : (string * Obs.Metrics.counter) list Atomic.t =
  Atomic.make []

let rec decision_counter decision = function
  | (d, c) :: rest ->
      if String.equal d decision then c else decision_counter decision rest
  | [] ->
      let c =
        Obs.Metrics.counter Obs.Metrics.global
          ~help:"loops decided, by driver verdict"
          (Printf.sprintf "driver_decision_%s_total" (decision_slug decision))
      in
      let rec add () =
        let known = Atomic.get decision_counters in
        let added = (decision, c) :: known in
        if not (Atomic.compare_and_set decision_counters known added) then
          add ()
      in
      add ();
      c

(* every decision goes through here: prepends the report and bumps the
   per-verdict counter *)
let record (ctx : ctx) (r : loop_report) =
  ctx.reports <- r :: ctx.reports;
  Obs.Metrics.incr
    (decision_counter r.r_decision (Atomic.get decision_counters))

(* after the fact, stamp the loop span with the newest report recorded for
   (index, depth) since [before] — the driver's verdict for this nest *)
let annotate_decision sp ~before (ctx : ctx) ~index ~depth =
  if Obs.Trace.enabled () then begin
    let rec find l =
      if l == before then None
      else
        match l with
        | [] -> None
        | r :: tl ->
            if r.r_index = index && r.r_depth = depth then Some r else find tl
    in
    match find ctx.reports with
    | None -> ()
    | Some r ->
        Obs.Trace.attr sp "decision" r.r_decision;
        (match r.r_mode with
        | Some m -> Obs.Trace.attr sp "mode" (Cost_model.show_mode m)
        | None -> ());
        Obs.Trace.count sp "versions" r.r_versions
  end

(* are the CALLs in this body safe to run in parallel iterations?  needs
   interprocedural summaries: callee pure, and writes only through array
   actuals subscripted by loop-variant expressions *)
let calls_parallel_safe ctx ~index body =
  let ok = ref true in
  let check name args =
    match Interproc.find ctx.interproc name with
    | None ->
        if
          List.mem
            (String.lowercase_ascii name)
            [ "await"; "advance"; "lock"; "unlock" ]
        then ()
        else ok := false
    | Some s ->
        if not s.Interproc.s_pure then ok := false
        else
          List.iteri
            (fun k arg ->
              let defs =
                k < Array.length s.Interproc.s_formal_def
                && s.Interproc.s_formal_def.(k)
              in
              if defs then
                match arg with
                | Ast.Idx (_, subs) ->
                    (* written element must move with the loop *)
                    if
                      not
                        (List.exists (Ast_utils.mentions index) subs)
                    then ok := false
                | Ast.Var _ | _ -> ok := false)
            args
  in
  Ast_utils.fold_stmts
    (fun () s ->
      match s with
      | Ast.CallSt (n, args) -> check n args
      | Ast.Assign (_, e) ->
          Ast_utils.fold_expr
            (fun () e ->
              match e with
              | Ast.Call (n, args) when not (Ast.is_intrinsic n) -> check n args
              | _ -> ())
            () e
      | _ -> ())
    () body;
  !ok

(* disequality facts implied by a condition: (a, b) meaning a <> b *)
let rec ne_facts_of_cond pos (c : Ast.expr) : (string * string) list =
  match c with
  | Ast.Bin (Ast.And, a, b) when pos ->
      ne_facts_of_cond pos a @ ne_facts_of_cond pos b
  | Ast.Bin (Ast.Or, a, b) when not pos ->
      ne_facts_of_cond pos a @ ne_facts_of_cond pos b
  | Ast.Bin (Ast.Ne, Ast.Var a, Ast.Var b) when pos -> [ (a, b) ]
  | Ast.Bin (Ast.Eq, Ast.Var a, Ast.Var b) when not pos -> [ (a, b) ]
  | Ast.Bin ((Ast.Lt | Ast.Gt), Ast.Var a, Ast.Var b) when pos -> [ (a, b) ]
  | Ast.Un (Ast.Not, c) -> ne_facts_of_cond (not pos) c
  | _ -> []

(* facts implied by the loop's own bounds: DO i = x+c, ... with c >= 1
   gives i <> x; DO i = ..., x-c gives i <> x *)
let bound_facts (h : Ast.do_header) : (string * string) list =
  let from_bound e lo_side =
    match Affine.of_expr e with
    | Some a -> (
        match Affine.vars a with
        | [ x ] when Affine.coeff x a = 1 ->
            if (lo_side && a.Affine.const >= 1)
               || ((not lo_side) && a.Affine.const <= -1)
            then [ (h.Ast.index, x) ]
            else []
        | _ -> [])
    | None -> []
  in
  if h.Ast.step = None || h.Ast.step = Some (Ast.Int 1) then
    from_bound h.Ast.lo true @ from_bound h.Ast.hi false
  else []

(** Analyze one loop for parallelizability under the enabled techniques. *)
let analyze_loop_inner (ctx : ctx) ~(live_after : string -> bool)
    ~facts (h : Ast.do_header) (body : Ast.stmt list) : loop_analysis =
  let tech = ctx.opts.Options.techniques in
  let used = ref [] in
  let use t = if not (List.mem t !used) then used := t :: !used in
  let lvl = Loops.level_of_header h in
  let index = h.Ast.index in
  let blockers = ref [] in
  let block b = if not (List.mem b !blockers) then blockers := b :: !blockers in

  (* each fact about the body, derived once *)
  let written = Ast_utils.writes_of body in
  let inner_loops = Loops.inner_loops body in
  let inner = List.map (fun h -> h.Ast.index) inner_loops in
  let privatizable =
    let known = ref [] in
    fun a ->
      match List.assoc_opt a !known with
      | Some p -> p
      | None ->
          let p = Array_private.privatizable ~outer_index:index a body in
          known := (a, p) :: !known;
          p
  in

  (* hard blockers *)
  if Ast_utils.contains_goto body then block "goto in body";
  if Ast_utils.contains_io body then block "I/O in body";
  (* EQUIVALENCE makes distinct names alias: any write to an equivalenced
     object could touch storage the tests attribute to another name
     (paper §3.2: placement and analysis are "complicated by EQUIVALENCE
     and COMMON block relations") *)
  SSet.iter
    (fun v ->
      match Symbols.lookup ctx.syms v with
      | Some sym when sym.Symbols.s_equiv ->
          block (Printf.sprintf "%s is EQUIVALENCEd" v)
      | _ -> ())
    written;
  if Ast_utils.contains_call body then begin
    if tech.Options.interprocedural then begin
      if calls_parallel_safe ctx ~index body then use "interprocedural"
      else block "unsafe call"
    end
    else block "call in body"
  end;

  (* library substitution first: a recognized recurrence is handled whole *)
  let library =
    if tech.Options.recurrence_substitution then
      match Transform.Recurrence_sub.apply h body with
      | Some (Recurrence.Linear_recurrence _, stmts) ->
          use "recurrence library";
          Some stmts
      | Some ((Recurrence.Dotproduct _ | Recurrence.Minmax_search _), stmts)
        ->
          use "reduction library";
          Some stmts
      | None -> None
    else None
  in

  (* scalar classification *)
  let scl = Scalars.classify ~index ~live_after body in
  let priv_scalars = ref [] in
  let last_values = ref [] in
  let scalar_reds = ref [] in
  let givs = ref [] in
  (* names the body writes outside CALL statements, and names calls may
     define per the interprocedural summaries: asked only about a carried
     scalar *)
  let writes_excl_calls =
    lazy
      (Ast_utils.fold_stmts
         (fun acc s ->
           match s with
           | Ast.CallSt _ -> acc
           | s ->
               (* collect this statement's own write, not nested calls *)
               (match s with
               | Ast.Assign (l, _) -> SSet.add (Ast_utils.lhs_name l) acc
               | Ast.Do (h, _) -> SSet.add h.Ast.index acc
               | Ast.Read ls ->
                   List.fold_left
                     (fun acc l -> SSet.add (Ast_utils.lhs_name l) acc)
                     acc ls
               | _ -> acc))
         SSet.empty body)
  in
  let call_defined =
    lazy
      (Ast_utils.fold_stmts
         (fun acc s ->
           match s with
           | Ast.CallSt (nm, args) -> (
               match Interproc.call_effect ctx.interproc nm args with
               | Some (_, defs) -> SSet.union acc defs
               | None ->
                   List.fold_left
                     (fun acc a ->
                       match a with
                       | Ast.Var v | Ast.Idx (v, _) -> SSet.add v acc
                       | _ -> acc)
                     acc args)
           | _ -> acc)
         SSet.empty body)
  in
  SMap.iter
    (fun v cls ->
      match cls with
      | _ when List.mem_assoc v ctx.syms.Symbols.params ->
          (* PARAMETER constants are never written *)
          ()
      | Scalars.Shared_dep
        when tech.Options.interprocedural
             && (not (SSet.mem v (Lazy.force writes_excl_calls)))
             && not (SSet.mem v (Lazy.force call_defined)) ->
          (* only "written" through call arguments the summaries prove
             read-only: actually a read-only scalar *)
          ()
      | _ when List.mem v inner ->
          (* inner loop indices are register-resident: nothing to do *)
          ()
      | Scalars.Privatizable { live_out } ->
          if tech.Options.scalar_privatization then begin
            use "scalar privatization";
            priv_scalars :=
              (v, Symbols.dtype_of ctx.syms v) :: !priv_scalars;
            if live_out then
              if Scalars.last_write_unconditional v body then begin
                use "last-value assignment";
                last_values := v :: !last_values
              end
              else block (Printf.sprintf "scalar %s: conditional last value" v)
          end
          else block (Printf.sprintf "scalar %s reused" v)
      | Scalars.Reduction { op; sites } ->
          let allowed =
            if sites <= 1 then tech.Options.simple_reduction
            else tech.Options.generalized_reduction
          in
          if allowed then begin
            use (if sites <= 1 then "scalar reduction" else "multi-statement reduction");
            scalar_reds :=
              {
                Transform.Reduction_par.sr_var = v;
                sr_op = op;
                sr_type = Symbols.dtype_of ctx.syms v;
              }
              :: !scalar_reds
          end
          else block (Printf.sprintf "reduction %s not recognized" v)
      | Scalars.Induction _ -> (
          match Giv.recognize ~lvl v body with
          | Some _ when not (Transform.Giv_subst.uses_follow_update v body) ->
              block (Printf.sprintf "induction %s read before update" v)
          | Some cf ->
              (* flat additive iff the closed form is affine *)
              let flat_const_additive = Affine.of_expr cf.Giv.g_at_use <> None in
              if flat_const_additive && tech.Options.simple_induction then begin
                use "induction substitution";
                givs := cf :: !givs
              end
              else if (not flat_const_additive) && tech.Options.giv_substitution
              then begin
                use "generalized induction variable";
                givs := cf :: !givs
              end
              else block (Printf.sprintf "induction %s" v)
          | None -> block (Printf.sprintf "induction %s unrecognized" v))
      | Scalars.Shared_dep -> block (Printf.sprintf "scalar %s carried" v))
    scl.Scalars.classes;

  (* dependence testing with induction closed forms *)
  let env =
    List.fold_left
      (fun acc cf ->
        match Affine.of_expr cf.Giv.g_at_use with
        | Some a -> SMap.add cf.Giv.g_var a acc
        | None -> acc)
      SMap.empty !givs
  in
  let injective =
    List.fold_left
      (fun acc cf ->
        if cf.Giv.g_monotonic then SSet.add cf.Giv.g_var acc else acc)
      SSet.empty !givs
  in
  (* a body that is entirely one guarded block contributes its guard's
     facts (sound: the guard dominates every reference; refused when the
     condition itself references arrays) *)
  let body_guard_facts =
    match body with
    | [ Ast.If (c, _, []) ]
      when Ast_utils.fold_expr
             (fun acc e ->
               acc || match e with Ast.Idx _ | Ast.Section _ -> true | _ -> false)
             false c
           = false ->
        ne_facts_of_cond true c
    | _ -> []
  in
  let facts = facts @ body_guard_facts in
  (* facts from enclosing IF guards and this loop's bounds stay valid only
     if neither side is redefined in the body *)
  let disequal =
    List.filter
      (fun (a, b) ->
        (not (SSet.mem a written)) && not (SSet.mem b written))
      (facts @ bound_facts h)
    |> List.filter (fun (a, b) -> a <> h.Ast.index || not (SSet.mem b written))
  in
  let trip =
    match
      (Ast_utils.const_eval ctx.syms.Symbols.params h.Ast.lo,
       Ast_utils.const_eval ctx.syms.Symbols.params h.Ast.hi)
    with
    | Some l, Some hi when h.Ast.step = None || h.Ast.step = Some (Ast.Int 1)
      ->
        Some (hi - l + 1)
    | _ -> None
  in
  let refs = Loops.collect_refs body in
  let deps =
    Depend.dependences ~injective ~disequal
      ~invariant:(fun v -> not (SSet.mem v written))
      ~env ~index ~inner ~trip refs
  in
  let carried = Depend.carried deps in
  if injective <> SSet.empty then use "monotonic GIV disambiguation";

  (* which arrays still carry dependences *)
  let dep_arrays =
    List.map (fun d -> d.Depend.d_array) carried |> List.sort_uniq compare
  in
  let priv_arrays = ref [] in
  let array_reds = ref [] in
  let rt_arrays = ref [] in
  let remaining =
    List.filter
      (fun a ->
        (* array privatization *)
        if
          tech.Options.array_privatization
          && (not (live_after a))
          && privatizable a
        then begin
          use "array privatization";
          (match Symbols.lookup ctx.syms a with
          | Some s when s.Symbols.s_dims <> [] ->
              priv_arrays := (a, s.Symbols.s_type, s.Symbols.s_dims) :: !priv_arrays
          | _ ->
              priv_arrays := (a, Ast.Real, [ (Ast.Int 1, Ast.Int 1024) ]) :: !priv_arrays);
          false
        end
        else
          (* array reductions *)
          match
            if tech.Options.generalized_reduction then
              Array_reduction.recognize a body
            else None
          with
          | None -> true
          | Some r ->
              use "array reduction";
              (match Symbols.lookup ctx.syms a with
              | Some s when s.Symbols.s_dims <> [] ->
                  array_reds :=
                    {
                      Transform.Reduction_par.arr_name = a;
                      arr_op = r.Array_reduction.ar_op;
                      arr_type = s.Symbols.s_type;
                      arr_dims = s.Symbols.s_dims;
                    }
                    :: !array_reds
              | _ -> block (Printf.sprintf "array %s dims unknown" a));
              false)
      dep_arrays
  in
  (* run-time dependence test for the remaining symbolic subscripts *)
  let remaining =
    if tech.Options.runtime_dep_test then
      List.filter
        (fun a ->
          let blocked_sym =
            List.exists
              (fun d ->
                d.Depend.d_array = a
                &&
                match d.Depend.d_reason with
                | Depend.Symbolic _ | Depend.Non_affine -> true
                | _ -> false)
              carried
          in
          if blocked_sym then begin
            let levels = lvl :: List.map Loops.level_of_header inner_loops in
            match Runtime_test.candidate_for ~levels ~body a with
            | Some c ->
                use "run-time dependence test";
                rt_arrays := c :: !rt_arrays;
                false
            | None -> true
          end
          else true)
        remaining
    else remaining
  in
  List.iter (fun a -> block (Printf.sprintf "array %s carried dep" a)) remaining;

  (* DOACROSS plan from the dependences still standing after privatization
     and reduction removal (those transforms compose with the DOACROSS) *)
  let remaining_deps =
    List.filter (fun d -> List.mem d.Depend.d_array remaining) carried
  in
  let doacross_plan =
    if tech.Options.doacross then Transform.Doacross.plan_of_deps remaining_deps
    else None
  in
  let sync_fraction =
    match doacross_plan with
    | Some p -> Transform.Doacross.sync_fraction p body
    | None -> 1.0
  in
  let rt_condition =
    match !rt_arrays with
    | [] -> None
    | cs ->
        Some
          (List.fold_left
             (fun acc c -> Ast.Bin (Ast.And, acc, c.Runtime_test.rt_condition))
             (List.hd cs).Runtime_test.rt_condition
             (List.tl cs))
  in
  {
    a_blockers = List.rev !blockers;
    a_priv_scalars = List.rev !priv_scalars;
    a_last_values = List.rev !last_values;
    a_scalar_reds = List.rev !scalar_reds;
    a_array_reds = List.rev !array_reds;
    a_priv_arrays = List.rev !priv_arrays;
    a_givs = List.rev !givs;
    a_doacross = doacross_plan;
    a_sync_fraction = sync_fraction;
    a_rt_condition = rt_condition;
    a_library = library;
    a_techniques = List.rev !used;
    a_body = body;
    a_exposed = scl.Scalars.exposed;
    a_privatizable = privatizable;
  }

(* span attributes are built only when a tracer is installed *)
let analyze_loop (ctx : ctx) ~(live_after : string -> bool) ?(facts = [])
    (h : Ast.do_header) (body : Ast.stmt list) : loop_analysis =
  Obs.Trace.with_span "analyze"
    ~attrs:
      (if Obs.Trace.enabled () then
         [ ("unit", ctx.unit_name); ("index", h.Ast.index) ]
       else [])
    (fun sp ->
      let a = analyze_loop_inner ctx ~live_after ~facts h body in
      if Obs.Trace.enabled () then begin
        if a.a_techniques <> [] then
          Obs.Trace.attr sp "techniques" (String.concat "," a.a_techniques);
        Obs.Trace.count sp "blockers" (List.length a.a_blockers)
      end;
      a)

(* ------------------------------------------------------------------ *)
(* Loop transformation                                                 *)
(* ------------------------------------------------------------------ *)

(* a loop span's attributes, built only when a tracer is installed *)
let loop_attrs ctx (h : Ast.do_header) ~depth =
  if Obs.Trace.enabled () then
    [
      ("unit", ctx.unit_name);
      ("index", h.Ast.index);
      ("depth", string_of_int depth);
    ]
  else []

(* is an inner loop DOALL-able (for choosing SDO/CDO nests)? cheap check *)
let inner_doallable ctx ~live_after ~facts (body : Ast.stmt list) : bool =
  match body with
  | [ s ] | [ s; Ast.Continue ] -> (
      match Ast_utils.strip_labels_stmt s with
      | Ast.Do (h, blk) when h.Ast.cls = Ast.Seq ->
          let a = analyze_loop ctx ~live_after ~facts h blk.Ast.body in
          a.a_blockers = [] && a.a_rt_condition = None
      | _ -> false)
  | _ -> false

(** Transform one sequential loop according to the analysis and the cost
    model, then (under [Options.validate]) re-verify the emitted
    statements with the independent checker — a loop that fails is
    demoted back to serial with the validator's findings recorded as
    blockers in its report.  Returns replacement statements. *)
let rec transform_loop (ctx : ctx) ~(avail : avail) ~(after_reads : SSet.t)
    ~(facts : (string * string) list) ~depth (h : Ast.do_header)
    (blk : Ast.block) : Ast.stmt list =
  Obs.Trace.with_span "loop"
    ~attrs:(loop_attrs ctx h ~depth)
    (fun sp ->
      let before = ctx.reports in
      let stmts =
        transform_loop_memo ctx sp ~avail ~after_reads ~facts ~depth h blk
      in
      let result =
        if not ctx.opts.Options.validate then stmts
        else
          match validator_issues ctx ~facts stmts with
          | [] -> stmts
          | issues ->
              record ctx
                {
                  r_unit = ctx.unit_name;
                  r_index = h.Ast.index;
                  r_depth = depth;
                  r_decision = "demoted (validator)";
                  r_mode = None;
                  r_techniques = [];
                  r_blockers = List.map (fun i -> i.Validate.v_what) issues;
                  r_versions = 1;
                };
              (* rebuild from the untransformed loop; inner loops
                 re-transform (and re-validate) individually *)
              serial_with_inner ctx ~avail ~after_reads ~facts ~depth h blk
      in
      annotate_decision sp ~before ctx ~index:h.Ast.index ~depth;
      result)

(* Consult the shared nest memo around [transform_loop_raw], for
   top-level nests only: an inner nest is reached only after its outer
   nest missed, and then it almost never hits, so its key would be paid
   for nothing.  A hit replays the stored statements and reports with
   names mapped into this call site (fresh names re-drawn from the live
   counter, so numbering matches a direct run exactly); a miss runs the
   transformation with the fresh-name stream logged and stores the
   result.  The validator wrapper above stays live either way: demotion
   of THIS nest is never cached, only re-derived. *)
and transform_loop_memo ctx sp ~avail ~after_reads ~facts ~depth h blk =
  match ctx.memo with
  | Some memo when depth = 0 -> (
      match
        Memo.prepare ~syms:ctx.syms ~interproc:ctx.interproc ~opts:ctx.opts
          ~avail:(avail.spread, avail.cluster) ~after_reads ~facts h blk
      with
      | None ->
          Obs.Trace.attr sp "memo" "bypass";
          transform_loop_raw ctx ~avail ~after_reads ~facts ~depth h blk
      | Some prep -> (
          match Memo.find memo prep with
          | Some entry ->
              if ctx.interrupt () then raise Interrupted;
              Obs.Trace.attr sp "memo" "hit";
              let rp = Memo.replay entry prep ~fresh:Ast_utils.fresh_name in
              (* oldest first, so ctx.reports ends up in the same order a
                 direct run would leave it *)
              List.iter
                (fun (r : loop_report) ->
                  record ctx
                    {
                      r with
                      r_unit = ctx.unit_name;
                      r_index = rp.Memo.rp_rename r.r_index;
                      r_blockers = List.map rp.Memo.rp_text r.r_blockers;
                    })
                (List.rev entry.Memo.e_reports);
              rp.Memo.rp_stmts
          | None ->
              Obs.Trace.attr sp "memo" "miss";
              let before = ctx.reports in
              let log = ref [] in
              let stmts =
                Ast_utils.with_fresh_hook
                  (fun prefix name -> log := (prefix, name) :: !log)
                  (fun () ->
                    transform_loop_raw ctx ~avail ~after_reads ~facts ~depth
                      h blk)
              in
              (* reports recorded during this nest's extent, newest first *)
              let rec added acc l =
                if l == before then List.rev acc
                else
                  match l with
                  | [] -> List.rev acc (* unreachable: only prepends *)
                  | r :: tl -> added ({ r with r_unit = "" } :: acc) tl
              in
              Memo.store memo prep ~stmts ~reports:(added [] ctx.reports)
                ~fresh:(List.rev !log);
              stmts))
  | _ -> transform_loop_raw ctx ~avail ~after_reads ~facts ~depth h blk

and validator_issues ctx ~facts stmts =
  Obs.Trace.with_span "validate" (fun sp ->
      let issues =
        Validate.check_stmts_in ~syms:ctx.syms ~interproc:ctx.interproc
          ~unit_name:ctx.unit_name ~facts stmts
      in
      Obs.Trace.count sp "issues" (List.length issues);
      issues)

and transform_loop_raw (ctx : ctx) ~(avail : avail) ~(after_reads : SSet.t)
    ~(facts : (string * string) list) ~depth (h : Ast.do_header)
    (blk : Ast.block) : Ast.stmt list =
  if ctx.interrupt () then raise Interrupted;
  let opts = ctx.opts in
  let tech = opts.Options.techniques in
  let body = blk.Ast.body in
  let live_after v = SSet.mem v after_reads || SSet.mem v ctx.iface in
  let a = analyze_loop ctx ~live_after ~facts h body in
  let lvl = Loops.level_of_header h in
  let profile = Cost_model.profile ~assumed_trip:opts.Options.assumed_trip lvl body in
  let report decision mode techniques versions =
    record ctx
      {
        r_unit = ctx.unit_name;
        r_index = h.Ast.index;
        r_depth = depth;
        r_decision = decision;
        r_mode = mode;
        r_techniques = techniques;
        r_blockers = a.a_blockers;
        r_versions = versions;
      }
  in
  (* library substitution wins outright when available; the cross-machine
     library routines only make sense at the top parallel level — inside a
     parallel context, reduction loops use the vector reduction
     intrinsics instead (paper §2.1) *)
  let vector_red =
    if avail.spread && a.a_library <> None then None
    else Transform.Recurrence_sub.vector_reduce h body
  in
  (* every parallel exit: the loop no longer leaves its index with the
     sequential exit value, so restore it when later code reads it
     (nonempty-trip assumption, as elsewhere) *)
  let with_exit_value stmts =
    if live_after h.Ast.index then
      stmts @ [ Ast.Assign (Ast.LVar h.Ast.index, h.Ast.hi) ]
    else stmts
  in
  match (a.a_library, vector_red) with
  | Some stmts, _ when avail.spread && (a.a_blockers = [] || List.length a.a_blockers <= 1) ->
      report "library substitution" None a.a_techniques 2;
      with_exit_value stmts
  | _, Some stmts ->
      report "vector reduction intrinsic" (Some Cost_model.Vector)
        ("vector reduction" :: a.a_techniques)
        2;
      with_exit_value stmts
  | _ ->
      let doall_ok = a.a_blockers = [] in
      if doall_ok then begin
        (* candidate modes *)
        let vector_shape =
          Transform.Vectorize.vectorizable_shape body
          && a.a_scalar_reds = [] && a.a_array_reds = []
          && a.a_priv_arrays = [] && a.a_givs = []
        in
        let inner_par = inner_doallable ctx ~live_after ~facts body in
        (* the user-settable placement default for interface data
           (paper §3.2): under the cluster default, a loop referencing
           formals or COMMON data cannot be spread across clusters —
           that data has one copy per cluster *)
        let interface_blocked =
          ctx.opts.Options.placement_default = Transform.Globalize.Default_cluster
          && not
               (SSet.is_empty (SSet.inter ctx.iface (Ast_utils.names_of body)))
        in
        let candidates = ref [ Cost_model.Serial ] in
        let add m = candidates := m :: !candidates in
        if avail.spread && not interface_blocked then begin
          if tech.Options.stripmining && vector_shape then add Cost_model.Xdoall_strip;
          add Cost_model.Xdoall_plain;
          if inner_par then
            add (Cost_model.Sdo_cdo_mode { vector_inner = false })
        end;
        if avail.cluster || avail.spread then begin
          add (Cost_model.Cdoall_mode { vector_inner = false });
          if vector_shape && profile.Cost_model.inner_trip = 1 then
            add (Cost_model.Cdoall_mode { vector_inner = true })
        end;
        if vector_shape then add Cost_model.Vector;
        let candidates =
          let limited = ref [] and n = ref 0 in
          List.iter
            (fun m ->
              if !n < opts.Options.max_versions then begin
                limited := m :: !limited;
                incr n
              end)
            !candidates;
          !limited
        in
        (* reduction merges serialize across processors: charge them *)
        let parallel_overhead =
          let cfg = opts.Options.machine in
          let procs = float_of_int (Machine.Config.total_processors cfg) in
          let arr_elems =
            List.fold_left
              (fun acc (r : Transform.Reduction_par.array_red) ->
                acc
                +. List.fold_left
                     (fun acc (lo, hi) ->
                       match
                         ( Ast_utils.const_eval ctx.syms.Symbols.params lo,
                           Ast_utils.const_eval ctx.syms.Symbols.params hi )
                       with
                       | Some l, Some h -> acc +. float_of_int (max 0 (h - l + 1))
                       | _ -> acc +. float_of_int opts.Options.assumed_trip)
                     0.0 r.Transform.Reduction_par.arr_dims)
              0.0 a.a_array_reds
          in
          (procs
           *. ((arr_elems *. 2.0 *. cfg.Machine.Config.cluster_vector)
               +. float_of_int (List.length a.a_scalar_reds)
                  *. cfg.Machine.Config.cluster_scalar
               +. (2.0 *. cfg.Machine.Config.lock_cost)))
          +. (arr_elems *. cfg.Machine.Config.cluster_vector)
        in
        let parallel_overhead =
          if a.a_array_reds = [] && a.a_scalar_reds = [] then 0.0
          else parallel_overhead
        in
        (* a run-time-tested loop exists to be spread machine-wide: its
           data will be globalized, so cluster modes (costed as if the
           data stayed local) must not be chosen *)
        let candidates =
          if a.a_rt_condition <> None && avail.spread then
            List.filter
              (function
                | Cost_model.Cdoall_mode _ | Cost_model.Vector -> false
                | _ -> true)
              candidates
          else candidates
        in
        let ranked =
          Cost_model.rank
            ~inner_vector:(inner_loops_vectorize body)
            ~parallel_overhead opts.Options.machine profile candidates
        in
        let best, _ = List.hd ranked in
        let versions = List.length candidates in
        let techniques = a.a_techniques in
        let parallel_stmts =
          Obs.Trace.with_span "apply"
            ~attrs:
              (if Obs.Trace.enabled () then
                 [ ("mode", Cost_model.show_mode best) ]
               else [])
            (fun _ ->
              apply_doall ctx ~avail ~after_reads ~facts ~depth ~live_after a
                h blk best)
        in
        let parallel_stmts =
          if best = Cost_model.Serial then parallel_stmts
          else with_exit_value parallel_stmts
        in
        match a.a_rt_condition with
        | Some cond when best <> Cost_model.Serial ->
            report "two-version (run-time test)" (Some best) techniques versions;
            let serial = [ Ast.Do ({ h with Ast.cls = Ast.Seq }, blk) ] in
            [ Transform.Rt_twoversion.apply ~condition:cond
                ~parallel:parallel_stmts ~serial ]
        | _ ->
            (match best with
            | Cost_model.Serial -> report "serial (cost model)" (Some best) techniques versions
            | m -> report "parallelized" (Some m) techniques versions);
            parallel_stmts
      end
      else begin
        (* blocked: try DOACROSS, else serial with inner recursion *)
        match a.a_doacross with
        | Some plan
          when (avail.cluster || avail.spread)
               && List.for_all
                    (fun b ->
                      (* only array-distance blockers are synchronizable *)
                      String.length b > 6 && String.sub b 0 5 = "array")
                    a.a_blockers ->
            let mode =
              Cost_model.Doacross_mode
                {
                  sync_fraction = a.a_sync_fraction;
                  distance = plan.Transform.Doacross.dx_distance;
                }
            in
            let ranked =
              Cost_model.rank opts.Options.machine profile
                [ Cost_model.Serial; mode ]
            in
            if fst (List.hd ranked) = Cost_model.Serial then begin
              report "serial (doacross unprofitable)" None a.a_techniques 2;
              serial_with_inner ctx ~a ~avail ~after_reads ~facts ~depth h blk
            end
            else begin
              report "doacross" (Some mode) ("doacross sync" :: a.a_techniques) 2;
              with_exit_value
                (apply_doall ctx ~avail ~after_reads ~facts ~depth ~live_after
                   a h blk mode)
            end
        | _ -> (
            (* loop distribution: split the body so the parallel part
               escapes the blocked part (advanced; paper §3.3) *)
            match
              if ctx.opts.Options.techniques.Options.loop_distribution then
                try_distribution ctx ~live_after ~facts h blk
              else None
            with
            | Some split_loops ->
                report "distributed" None ("loop distribution" :: a.a_techniques) 2;
                (* transform each split loop directly — re-entering the
                   statement walk would let the fusion pre-pass merge the
                   halves back together *)
                List.concat_map
                  (fun s ->
                    match s with
                    | Ast.Do (h', blk') ->
                        transform_loop ctx ~avail ~after_reads ~facts
                          ~depth:(depth + 1) h' blk'
                    | s -> [ s ])
                  split_loops
            | None ->
                report "serial (blocked)" None a.a_techniques 1;
                serial_with_inner ctx ~a ~avail ~after_reads ~facts ~depth h blk)
      end

(* try to split a blocked loop into consecutive sub-loops such that at
   least one side is cleanly parallelizable *)
and try_distribution ctx ~live_after ~facts (h : Ast.do_header)
    (blk : Ast.block) : Ast.stmt list option =
  let body = blk.Ast.body in
  let n = List.length body in
  if n < 2 then None
  else
    let rec try_split k =
      if k >= n then None
      else
        match Transform.Distribution.distribute h body [ k; n - k ] with
        | Some ([ Ast.Do (ha, ba); Ast.Do (hb, bb) ] as loops) ->
            let clean hx bx =
              (analyze_loop ctx ~live_after ~facts hx bx.Ast.body).a_blockers
              = []
            in
            if clean ha ba || clean hb bb then Some loops else try_split (k + 1)
        | _ -> try_split (k + 1)
    in
    try_split 1

(* will the body's inner loops all become vector statements after the
   recursion?  informs the cost model's memory-cost choice for X/S modes *)
and inner_loops_vectorize (body : Ast.stmt list) : bool =
  let rec direct acc stmts =
    List.fold_left
      (fun acc s ->
        match Ast_utils.strip_labels_stmt s with
        | Ast.Do (h, blk) -> (h, blk) :: acc
        | Ast.If (_, t, e) -> direct (direct acc t) e
        | _ -> acc)
      acc stmts
  in
  let inners = direct [] body in
  inners <> []
  && List.for_all
       (fun (h, blk) ->
         Transform.Vectorize.vectorizable_shape blk.Ast.body
         || Transform.Recurrence_sub.vector_reduce h blk.Ast.body <> None)
       inners

(* What the next iteration of an enclosing loop reads: scalars exposed at
   the body's top, plus arrays that are NOT written-before-read within one
   iteration (a write-first work array is re-made each time around and so
   is dead on the back edge — exactly what lets it be privatized). *)
and back_edge_live ctx ?a (h : Ast.do_header) (body : Ast.stmt list) :
    SSet.t =
  (* the analysis of this very body already knows both facts *)
  let exposed, privatizable =
    match a with
    | Some a when a.a_body == body -> (a.a_exposed, a.a_privatizable)
    | _ ->
        ( Scalars.upward_exposed body,
          fun v -> Array_private.privatizable ~outer_index:h.Ast.index v body )
  in
  SSet.filter
    (fun v -> if Symbols.is_array ctx.syms v then not (privatizable v) else true)
    exposed

(* serial-semantics rewrite of a parallel loop that failed validation:
   preamble once, body as an ordinary DO with the cascade synchronization
   stripped, postamble once.  Loop-local declarations become ordinary
   unit variables (their fresh names cannot collide). *)
and serialize_parallel_loop (h : Ast.do_header) (blk : Ast.block) :
    Ast.stmt list =
  let strip stmts =
    Ast_utils.rewrite_stmts
      (fun s ->
        match s with
        | Ast.CallSt (n, _)
          when List.mem (String.lowercase_ascii n) [ "await"; "advance" ] ->
            []
        | s -> [ s ])
      stmts
  in
  strip blk.Ast.preamble
  @ [
      Ast.Do
        ( { h with Ast.cls = Ast.Seq; locals = [] },
          Ast.seq_block (strip blk.Ast.body) );
    ]
  @ strip blk.Ast.postamble

(* keep this loop serial but restructure inside it *)
and serial_with_inner ctx ?a ~avail ~after_reads ~facts ~depth h blk =
  let facts = facts @ bound_facts h in
  let after_reads =
    SSet.union after_reads (back_edge_live ctx ?a h blk.Ast.body)
  in
  let body =
    transform_stmts ctx ~avail ~after_reads ~facts ~depth:(depth + 1)
      blk.Ast.body
  in
  [ Ast.Do (h, { blk with Ast.body }) ]

(* apply the transforms of a parallel decision: substitute the induction
   variables once, lower the loop to [mode], then assign each substituted
   variable's final value when later code reads it (the rule the loop
   index's exit value follows) *)
and apply_doall ctx ~avail ~after_reads ~facts ~depth ~live_after
    (a : loop_analysis) (h : Ast.do_header) (blk : Ast.block)
    (mode : Cost_model.mode) : Ast.stmt list =
  let h, blk', finals =
    List.fold_left
      (fun (h, blk, finals) cf ->
        match Transform.Giv_subst.apply cf h blk with
        | Some (Ast.Do (h', blk'), final) ->
            let live = live_after cf.Giv.g_var in
            (h', blk', if live then finals @ final else finals)
        | Some _ | None -> (h, blk, finals))
      (h, blk, []) a.a_givs
  in
  (* a DOACROSS plan holds statement positions, and the substitution
     deleted each update: plan again on the substituted body *)
  let a =
    match mode with
    | Cost_model.Doacross_mode _ when blk' != blk ->
        let a' = analyze_loop_inner ctx ~live_after ~facts h blk'.Ast.body in
        { a with a_doacross = a'.a_doacross }
    | _ -> a
  in
  lower_doall ctx ~avail ~after_reads ~facts ~depth a h blk' mode @ finals

(* the loop statements of [mode], without induction substitution or final
   values *)
and lower_doall ctx ~avail ~after_reads ~facts ~depth (a : loop_analysis)
    (h : Ast.do_header) (blk : Ast.block) (mode : Cost_model.mode) :
    Ast.stmt list =
  let opts = ctx.opts in
  match mode with
  | Cost_model.Serial ->
      (* cost model preferred serial; still restructure inner loops *)
      serial_with_inner ctx ~a ~avail ~after_reads ~facts ~depth h blk
  | Cost_model.Vector -> (
      match Transform.Vectorize.vectorize_loop h blk.Ast.body with
      | Some stmts -> stmts
      | None ->
          serial_with_inner ctx ~a ~avail ~after_reads ~facts ~depth h blk)
  | Cost_model.Xdoall_strip -> (
      let priv = List.map fst a.a_priv_scalars in
      match
        (* expanded scalars have no per-iteration identity after the loop:
           a live-out private needs the plain form's last-value copy *)
        if a.a_last_values <> [] then None
        else
          Transform.Stripmine.apply ~strip:opts.Options.strip ~cls:Ast.Xdoall
            ~private_scalars:priv h blk.Ast.body
      with
      | Some s -> [ s ]
      | None ->
          (* fall back to plain *)
          lower_doall ctx ~avail ~after_reads ~facts ~depth a h blk
            Cost_model.Xdoall_plain)
  | Cost_model.Cdoall_mode { vector_inner = true } -> (
      (* cluster-level stripmining: CDOALL over strips, vector body *)
      let priv = List.map fst a.a_priv_scalars in
      match
        if a.a_last_values <> [] then None
        else
          Transform.Stripmine.apply ~strip:opts.Options.strip ~cls:Ast.Cdoall
            ~private_scalars:priv h blk.Ast.body
      with
      | Some s -> [ s ]
      | None ->
          lower_doall ctx ~avail ~after_reads ~facts ~depth a h blk
            (Cost_model.Cdoall_mode { vector_inner = false }))
  | Cost_model.Xdoall_plain | Cost_model.Cdoall_mode _
  | Cost_model.Sdo_cdo_mode _ ->
      let cls =
        match mode with
        | Cost_model.Xdoall_plain -> Ast.Xdoall
        | Cost_model.Cdoall_mode _ -> Ast.Cdoall
        | _ -> Ast.Sdoall
      in
      (* recurse into the body first (inner loops become CDOALL/vector) *)
      let inner_avail =
        match cls with
        | Ast.Sdoall -> { spread = false; cluster = true }
        | _ -> { spread = false; cluster = false }
      in
      let body' =
        transform_stmts ctx ~avail:inner_avail
          ~after_reads:
            (SSet.union after_reads (back_edge_live ctx ~a h blk.Ast.body))
          ~facts:(facts @ bound_facts h) ~depth:(depth + 1) blk.Ast.body
      in
      [ parallel_tail a (Ast.Do ({ h with Ast.cls }, { blk with Ast.body = body' })) ]
  | Cost_model.Doacross_mode _ -> (
      match a.a_doacross with
      | Some plan ->
          [ parallel_tail a (Transform.Doacross.apply ~cls:Ast.Cdoall plan h blk) ]
      | None ->
          serial_with_inner ctx ~a ~avail ~after_reads ~facts ~depth h blk)

(* the reduction and privatization tail of a parallel loop *)
and parallel_tail (a : loop_analysis) (loop : Ast.stmt) : Ast.stmt =
  let with_reds =
    match loop with
    | Ast.Do (h, blk) when a.a_scalar_reds <> [] || a.a_array_reds <> [] ->
        Transform.Reduction_par.apply ~scalars:a.a_scalar_reds
          ~arrays:a.a_array_reds h blk
    | s -> s
  in
  (* privatization: only names still present after the inner recursion
     (vectorized inner loops consume their indices) *)
  match with_reds with
  | Ast.Do (h', blk') ->
      let still_used = Ast_utils.names_of blk'.Ast.body in
      let scalars =
        List.filter (fun (v, _) -> SSet.mem v still_used) a.a_priv_scalars
      in
      let arrays =
        List.filter (fun (v, _, _) -> SSet.mem v still_used) a.a_priv_arrays
      in
      if scalars <> [] || arrays <> [] then
        Transform.Privatize.apply
          {
            Transform.Privatize.p_scalars = scalars;
            p_arrays = arrays;
            p_last_value = a.a_last_values;
          }
          h' blk'
      else Ast.Do (h', blk')
  | s -> s

(* ------------------------------------------------------------------ *)
(* Statement-list walk                                                 *)
(* ------------------------------------------------------------------ *)

and transform_stmts ctx ~avail ~after_reads ?(facts = []) ~depth
    (stmts : Ast.stmt list) : Ast.stmt list =
  (* optional fusion pre-pass over adjacent serial loops *)
  let stmts =
    if ctx.opts.Options.techniques.Options.loop_fusion then fuse_pass stmts
    else stmts
  in
  (* liveness after each statement: a variable is live if some later
     statement reads it before (definitely) redefining it.  The walk runs
     back to front (fresh names are drawn in that order); [exposed] is
     what the statements after [s] expose, one backward step per
     statement, and [done_] the already transformed suffix. *)
  let rec go done_ exposed = function
    | [] -> done_
    | s :: before ->
        let here_after = SSet.union after_reads exposed in
        let s' =
          match s with
          | Ast.Do (h, blk) when h.Ast.cls = Ast.Seq ->
              transform_loop ctx ~avail ~after_reads:here_after ~facts ~depth h
                blk
          | Ast.Labeled (l, Ast.Do (h, blk)) when h.Ast.cls = Ast.Seq -> (
              match
                transform_loop ctx ~avail ~after_reads:here_after ~facts ~depth
                  h blk
              with
              | [] -> [ Ast.Labeled (l, Ast.Continue) ]
              | first :: more -> Ast.Labeled (l, first) :: more)
          | Ast.If (c, t, e) ->
              [
                Ast.If
                  ( c,
                    transform_stmts ctx ~avail ~after_reads:here_after
                      ~facts:(facts @ ne_facts_of_cond true c)
                      ~depth t,
                    transform_stmts ctx ~avail ~after_reads:here_after
                      ~facts:(facts @ ne_facts_of_cond false c)
                      ~depth e );
              ]
          | Ast.Do (h, blk)
            when h.Ast.cls <> Ast.Seq && ctx.opts.Options.validate ->
              (* an input (already-parallel) loop: verify it as written;
                 a failed check serializes it *)
              Obs.Trace.with_span "loop"
                ~attrs:(loop_attrs ctx h ~depth)
                (fun sp ->
                  match validator_issues ctx ~facts [ s ] with
                  | [] -> [ s ]
                  | issues ->
                      record ctx
                        {
                          r_unit = ctx.unit_name;
                          r_index = h.Ast.index;
                          r_depth = depth;
                          r_decision = "demoted (validator)";
                          r_mode = None;
                          r_techniques = [];
                          r_blockers =
                            List.map (fun i -> i.Validate.v_what) issues;
                          r_versions = 1;
                        };
                      Obs.Trace.attr sp "decision" "demoted (validator)";
                      Obs.Trace.count sp "versions" 1;
                      serialize_parallel_loop h blk)
          | s -> [ s ]
        in
        let done_ = s' @ done_ in
        if before = [] then done_
        else go done_ (Scalars.exposed_before s exposed) before
  in
  go [] SSet.empty (List.rev stmts)

and fuse_pass stmts =
  let rec go = function
    | (Ast.Do (_, _) as s1) :: rest -> (
        (* find the next loop with only replicable code between *)
        let rec split mid = function
          | (Ast.Do _ as s2) :: tail -> Some (List.rev mid, s2, tail)
          | (Ast.Assign (Ast.LVar _, _) as m) :: tail -> split (m :: mid) tail
          | _ -> None
        in
        match split [] rest with
        | Some (mid, s2, tail) -> (
            match Transform.Fusion.fuse_region s1 mid s2 with
            | Some fused -> go (fused :: tail)
            | None -> s1 :: go rest)
        | None -> s1 :: go rest)
    | s :: rest -> s :: go rest
    | [] -> []
  in
  go stmts

(* ------------------------------------------------------------------ *)
(* Unit / program entry points                                         *)
(* ------------------------------------------------------------------ *)

let restructure_unit ~(interrupt : unit -> bool) ?memo (opts : Options.t)
    (interproc : Interproc.t) (prog : Ast.program) (u : Ast.punit) :
    Ast.punit * loop_report list * Transform.Inline.failure list =
  if interrupt () then raise Interrupted;
  Obs.Trace.with_span "unit"
    ~attrs:[ ("name", u.Ast.u_name) ]
    (fun _ ->
      Ast_utils.reset_fresh ();
      let u, inline_failures =
        if opts.Options.techniques.Options.inline_expansion then
          Obs.Trace.with_span "inline" (fun _ ->
              Transform.Inline.inline_unit ~limits:opts.Options.inline_limits
                ~syms:(Interproc.symbols interproc) prog u)
        else (u, [])
      in
      let syms = Interproc.symbols interproc u in
      let ctx =
        {
          opts;
          syms;
          interproc;
          iface = Symbols.interface_vars syms;
          unit_name = u.Ast.u_name;
          interrupt;
          memo;
          reports = [];
        }
      in
      let body =
        transform_stmts ctx
          ~avail:{ spread = true; cluster = true }
          ~after_reads:SSet.empty ~depth:0 u.Ast.u_body
      in
      let u = { u with Ast.u_body = body } in
      let u =
        Obs.Trace.with_span "globalize" (fun _ ->
            Transform.Globalize.apply ~default:opts.Options.placement_default
              ~syms:ctx.syms u)
      in
      (u, List.rev ctx.reports, inline_failures))

(** Restructure a whole program.  Besides the per-nest poll in
    [transform_loop_raw], the deadline hook rides the {!Fortran.Fuel}
    counter ticked inside the dependence tester's pair loop, so even one
    pathological nest (quadratic in references) aborts promptly. *)
let restructure ?(interrupt = fun () -> false) ?memo (opts : Options.t)
    (prog : Ast.program) : result =
  Fuel.with_hook (fun () -> if interrupt () then raise Interrupted)
  @@ fun () ->
  Obs.Trace.with_span "restructure" @@ fun _ ->
  let interproc =
    Obs.Trace.with_span "interproc" (fun _ -> Interproc.analyze prog)
  in
  let units, reports, fails =
    List.fold_left
      (fun (us, rs, fs) u ->
        match u.Ast.u_kind with
        | Ast.Program | Ast.Subroutine _ | Ast.Function _ ->
            let u', r, f =
              restructure_unit ~interrupt ?memo opts interproc prog u
            in
            (u' :: us, rs @ r, fs @ f))
      ([], [], []) prog
  in
  { program = List.rev units; reports; inline_failures = fails }

type memo = loop_report Memo.t

let create_memo ?capacity ?corrupt () : memo = Memo.create ?capacity ?corrupt ()
let memo_stats = Memo.stats

(* ------------------------------------------------------------------ *)
(* Report printing                                                     *)
(* ------------------------------------------------------------------ *)

let report_to_string (r : loop_report) =
  Printf.sprintf "%-10s DO %-6s depth %d  %-28s %-24s %s%s" r.r_unit r.r_index
    r.r_depth r.r_decision
    (match r.r_mode with
    | Some m -> Cost_model.show_mode m
    | None -> "-")
    (match r.r_techniques with
    | [] -> ""
    | ts -> "[" ^ String.concat ", " ts ^ "] ")
    (match r.r_blockers with
    | [] -> ""
    | bs -> "blocked: " ^ String.concat "; " bs)
