(** Independent re-verification of Cedar Fortran parallel loops.

    The restructurer promises that every concurrent loop it emits is free
    of unsynchronized loop-carried dependences.  This module checks that
    promise from the outside: it takes (emitted) Cedar Fortran, re-runs
    dependence analysis on each parallel loop body with its own fact
    collection, and reports every way the loop could race:

    - an unsynchronized loop-carried array dependence on a non-private
      array in a DOALL body;
    - a scalar written in a parallel body that is neither loop-local,
      the loop index, a guarded last-value copy, nor (in a DOACROSS)
      confined to the synchronized region;
    - a DOACROSS whose [await] delay factor exceeds some carried
      dependence distance (the cascade completes iterations cumulatively,
      so [await(i, d)] only waits for iterations [<= i - d]: any
      dependence of distance [k < d] is left uncovered), whose delay is
      not a compile-time constant, whose carried distances are unknown,
      or whose await/advance do not bracket the dependence region;
    - preamble/postamble writes to shared data outside [lock]/[unlock];
    - a call whose interprocedural summary cannot prove it safe to run
      in concurrent iterations.

    [reverify] goes one step further: it prints the program and reparses
    it before checking, so the verdict applies to the text we actually
    ship, not the in-memory tree.

    The checker is deliberately conservative: it accepts the specific
    synchronization and privatization patterns the restructurer emits
    (loop-local declarations, [IF (i .EQ. hi)] last-value copies,
    lock-bracketed reduction merges, two-version loops under a run-time
    dependence test) and flags everything else. *)

open Fortran
open Analysis
module SSet = Ast_utils.SSet
module SMap = Ast_utils.SMap

type issue = {
  v_unit : string;  (** program unit containing the loop *)
  v_index : string;  (** the loop's index variable *)
  v_cls : Ast.loop_class;
  v_what : string;  (** what is wrong *)
}

let issue_to_string i =
  Printf.sprintf "%s: %s %s: %s" i.v_unit (Ast.loop_keyword i.v_cls) i.v_index
    i.v_what

type vctx = {
  syms : Symbols.t;
  interproc : Interproc.t Lazy.t;  (** forced by the first call checked *)
  unit_name : string;
  mutable issues : issue list;
}

let lower = String.lowercase_ascii

(* ------------------------------------------------------------------ *)
(* Fact collection (independent of the driver's)                       *)
(* ------------------------------------------------------------------ *)

(* disequality facts implied by a condition: (a, b) meaning a <> b *)
let rec ne_facts pos (c : Ast.expr) : (string * string) list =
  match c with
  | Ast.Bin (Ast.And, a, b) when pos -> ne_facts pos a @ ne_facts pos b
  | Ast.Bin (Ast.Or, a, b) when not pos -> ne_facts pos a @ ne_facts pos b
  | Ast.Bin (Ast.Ne, Ast.Var a, Ast.Var b) when pos -> [ (a, b) ]
  | Ast.Bin (Ast.Eq, Ast.Var a, Ast.Var b) when not pos -> [ (a, b) ]
  | Ast.Bin ((Ast.Lt | Ast.Gt), Ast.Var a, Ast.Var b) when pos -> [ (a, b) ]
  | Ast.Un (Ast.Not, c) -> ne_facts (not pos) c
  | _ -> []

(* facts implied by the loop's own bounds: DO i = x+c, ... with c >= 1
   gives i <> x; DO i = ..., x-c gives i <> x *)
let bound_facts (h : Ast.do_header) : (string * string) list =
  let from_bound e lo_side =
    match Affine.of_expr e with
    | Some a -> (
        match Affine.vars a with
        | [ x ] when Affine.coeff x a = 1 ->
            if
              (lo_side && a.Affine.const >= 1)
              || ((not lo_side) && a.Affine.const <= -1)
            then [ (h.Ast.index, x) ]
            else []
        | _ -> [])
    | None -> []
  in
  if h.Ast.step = None || h.Ast.step = Some (Ast.Int 1) then
    from_bound h.Ast.lo true @ from_bound h.Ast.hi false
  else []

(* ------------------------------------------------------------------ *)
(* Privacy                                                             *)
(* ------------------------------------------------------------------ *)

(* names with per-worker storage inside the loop: the index, loop-local
   declarations, and the indices and locals of every [nested] loop — a
   nested DO index lives in a worker-private cell *)
let private_names (h : Ast.do_header) (nested : Ast.do_header list) : SSet.t =
  let of_header acc (hh : Ast.do_header) =
    List.fold_left
      (fun acc d -> SSet.add d.Ast.d_name acc)
      (SSet.add hh.Ast.index acc)
      hh.Ast.locals
  in
  List.fold_left of_header (of_header SSet.empty h) nested

(* ------------------------------------------------------------------ *)
(* Pattern recognition for accepted shapes                             *)
(* ------------------------------------------------------------------ *)

(* [IF (i .EQ. hi) v = e]: the last-value copy emitted by privatization —
   exactly one iteration executes the write, so it cannot race *)
let is_last_value_guard ~index ~hi (s : Ast.stmt) (v : string) =
  match Ast_utils.strip_labels_stmt s with
  | Ast.If (Ast.Bin (Ast.Eq, Ast.Var i, bound), [ Ast.Assign (Ast.LVar w, _) ], [])
    ->
      i = index && w = v && Ast.equal_expr bound hi
  | _ -> false

let add_call acc e =
  match e with Ast.Call (n, args) when not (Ast.is_intrinsic n) -> (n, args) :: acc | _ -> acc

(* One walk of a loop body for what the per-loop check reads of it: each
   scalar an assignment or READ writes (with its top-level statement, none
   under a label), [Ast_utils.writes_of], the nested loops' headers as
   [Loops.inner_loops] lists them, and the calls in program order. *)
let walk_body stmts =
  let sites = ref [] and writes = ref SSet.empty and nested = ref [] and calls = ref [] in
  let rec stmt top sited nest s =
    let write (l : Ast.lhs) =
      (match l with Ast.LVar v when sited -> sites := (top, v) :: !sites | _ -> ());
      writes := SSet.add (Ast_utils.lhs_name l) !writes
    in
    match s with
    | Ast.Assign (l, e) ->
        write l;
        calls := Ast_utils.fold_expr add_call !calls e
    | Ast.Read ls -> List.iter write ls
    | Ast.CallSt (n, args) ->
        writes := Ast_utils.stmt_writes !writes s;
        calls := (n, args) :: !calls
    | Ast.If (_, t, e) -> List.iter (stmt top sited nest) (t @ e)
    | Ast.Do (h, blk) ->
        if nest then nested := h :: !nested;
        writes := SSet.add h.Ast.index !writes;
        List.iter (stmt top sited false) blk.Ast.preamble;
        List.iter (stmt top sited nest) blk.Ast.body;
        List.iter (stmt top sited false) blk.Ast.postamble
    | Ast.Where (_, body) -> List.iter (stmt top sited false) body
    | Ast.Labeled (_, s) -> stmt top false nest s
    | Ast.Print _ | Ast.Return | Ast.Stop | Ast.Continue | Ast.Goto _ -> ()
  in
  List.iter (fun s -> stmt s true true s) stmts;
  (List.rev !sites, !writes, List.rev !nested, List.rev !calls)

(* variables a top-level statement touches (reads or writes) *)
let stmt_vars (s : Ast.stmt) : SSet.t = Ast_utils.names_of [ s ]

(* ------------------------------------------------------------------ *)
(* Call safety (mirrors the restructurer's interprocedural gate)       *)
(* ------------------------------------------------------------------ *)

let sync_calls = [ "await"; "advance"; "lock"; "unlock" ]

let check_calls vctx issue ~index calls =
  let check name args =
    if List.mem (lower name) sync_calls || Ast.is_intrinsic name then ()
    else
      match Interproc.find (Lazy.force vctx.interproc) name with
      | None -> issue (Printf.sprintf "call %s has no summary" name)
      | Some s ->
          if not s.Interproc.s_pure then
            issue (Printf.sprintf "call %s is not pure" name)
          else
            List.iteri
              (fun k arg ->
                let defs =
                  k < Array.length s.Interproc.s_formal_def
                  && s.Interproc.s_formal_def.(k)
                in
                if defs then
                  match arg with
                  | Ast.Idx (_, subs)
                    when List.exists (Ast_utils.mentions index) subs ->
                      ()
                  | _ ->
                      issue
                        (Printf.sprintf
                           "call %s writes argument %d at a loop-invariant \
                            location"
                           name (k + 1)))
              args
  in
  List.iter (fun (n, args) -> check n args) calls

(* ------------------------------------------------------------------ *)
(* The per-loop check                                                  *)
(* ------------------------------------------------------------------ *)

let check_parallel_loop vctx ~facts ~rt_tested (h : Ast.do_header)
    (blk : Ast.block) =
  let body = blk.Ast.body in
  let index = h.Ast.index in
  let issue what =
    let i = { v_unit = vctx.unit_name; v_index = index; v_cls = h.Ast.cls; v_what = what } in
    if not (List.mem i vctx.issues) then vctx.issues <- i :: vctx.issues
  in
  let writes, written, nested, calls = walk_body body in
  let priv = private_names h nested in

  (* ---- synchronization structure ---- *)
  let await = ref None and advance = ref None in
  List.iteri
    (fun i s ->
      match s with
      | Ast.CallSt (n, args) when lower n = "await" ->
          if !await = None then await := Some (i, args)
      | Ast.CallSt (n, _) when lower n = "advance" -> advance := Some i
      | _ -> ())
    body;
  let in_sync_region k =
    match (!await, !advance) with
    | Some (a, _), Some d -> a <= k && k <= d
    | _ -> false
  in

  (* ---- scalar discipline ---- *)
  let reads = lazy (Ast_utils.reads_of body) (* for a shared scalar only *) in
  let written_scalars =
    List.filter
      (fun (_, v) ->
        (not (SSet.mem v priv))
        && (not (Symbols.is_array vctx.syms v))
        && not (List.mem_assoc v vctx.syms.Symbols.params))
      writes
    |> List.map snd |> List.sort_uniq compare
  in
  List.iter
    (fun v ->
      let sites = List.filter (fun (_, w) -> w = v) writes in
      let all_last_value =
        (not (SSet.mem v (Lazy.force reads)))
        && List.for_all
             (fun (s, _) -> is_last_value_guard ~index ~hi:h.Ast.hi s v)
             sites
      in
      let all_synchronized =
        Ast.is_doacross h.Ast.cls
        && body
           |> List.mapi (fun k s -> (k, s))
           |> List.for_all (fun (k, s) ->
                  (not (SSet.mem v (stmt_vars s))) || in_sync_region k)
      in
      if not (all_last_value || all_synchronized) then
        issue
          (Printf.sprintf
             "scalar %s is written in the parallel body but not privatized" v))
    written_scalars;

  (* ---- array dependences ---- *)
  let body_guard_facts =
    match body with
    | [ Ast.If (c, _, []) ]
      when not
             (Ast_utils.fold_expr
                (fun acc e ->
                  acc
                  ||
                  match e with Ast.Idx _ | Ast.Section _ -> true | _ -> false)
                false c) ->
        ne_facts true c
    | _ -> []
  in
  let disequal =
    List.filter
      (fun (a, b) -> (not (SSet.mem a written)) && not (SSet.mem b written))
      (facts @ body_guard_facts @ bound_facts h)
  in
  let inner = List.map (fun hh -> hh.Ast.index) nested in
  let trip =
    match
      ( Ast_utils.const_eval vctx.syms.Symbols.params h.Ast.lo,
        Ast_utils.const_eval vctx.syms.Symbols.params h.Ast.hi )
    with
    | Some l, Some hi when h.Ast.step = None || h.Ast.step = Some (Ast.Int 1) ->
        Some (hi - l + 1)
    | _ -> None
  in
  let refs =
    Loops.collect_refs body
    |> List.filter (fun r -> not (SSet.mem r.Loops.r_array priv))
  in
  let deps =
    Depend.dependences ~disequal
      ~invariant:(fun v -> not (SSet.mem v written))
      ~env:SMap.empty ~index ~inner ~trip refs
  in
  let carried = Depend.carried deps in
  let excused (d : Depend.dep) =
    (* a two-version loop runs its parallel arm only when the run-time
       test proved the symbolic subscripts independent *)
    rt_tested
    &&
    match d.Depend.d_reason with
    | Depend.Symbolic _ | Depend.Non_affine -> true
    | Depend.Affine | Depend.Scalar -> false
  in
  let carried = List.filter (fun d -> not (excused d)) carried in
  if Ast.is_doacross h.Ast.cls then begin
    if carried <> [] then begin
      let dists =
        List.map
          (fun d ->
            match d.Depend.d_distance with
            | Depend.Dist k -> Some (d, k)
            | Depend.Star ->
                issue
                  (Printf.sprintf
                     "carried %s dependence on %s has unknown distance: no \
                      delay factor can cover it"
                     (Depend.show_kind d.Depend.d_kind)
                     d.Depend.d_array);
                None)
          carried
        |> List.filter_map Fun.id
      in
      match !await with
      | None ->
          issue "carried dependences but no await in the loop body"
      | Some (await_idx, args) -> (
          (match args with
          | [ _; de ] -> (
              match Ast_utils.const_eval [] de with
              | None -> issue "await delay factor is not a constant"
              | Some delay ->
                  List.iter
                    (fun ((d : Depend.dep), k) ->
                      if delay > k then
                        issue
                          (Printf.sprintf
                             "await delay %d exceeds the distance-%d %s \
                              dependence on %s: iterations closer than the \
                              delay are not waited for"
                             delay k
                             (Depend.show_kind d.Depend.d_kind)
                             d.Depend.d_array))
                    dists)
          | _ -> issue "await must have two arguments (sequence, delay)");
          let tops l = List.map (function [] -> 0 | i :: _ -> i) l in
          let first_sink =
            List.fold_left min max_int
              (tops (List.map (fun (d, _) -> d.Depend.d_dst) dists))
          in
          let last_source =
            List.fold_left max 0
              (tops (List.map (fun (d, _) -> d.Depend.d_src) dists))
          in
          if dists <> [] && await_idx > first_sink then
            issue "await is placed after the first dependence sink";
          match !advance with
          | None -> issue "carried dependences but no advance in the loop body"
          | Some adv_idx ->
              if dists <> [] && adv_idx < last_source then
                issue "advance is placed before the last dependence source")
    end
  end
  else
    List.iter
      (fun (d : Depend.dep) ->
        issue
          (Printf.sprintf
             "unsynchronized loop-carried %s dependence on %s (distance %s, %s)"
             (Depend.show_kind d.Depend.d_kind)
             d.Depend.d_array
             (Depend.show_distance d.Depend.d_distance)
             (Depend.show_reason d.Depend.d_reason)))
      carried;

  (* ---- preamble / postamble discipline ---- *)
  let check_once_region label stmts =
    let depth = ref 0 in
    List.iter
      (fun s ->
        match Ast_utils.strip_labels_stmt s with
        | Ast.CallSt (n, _) when lower n = "lock" -> incr depth
        | Ast.CallSt (n, _) when lower n = "unlock" -> decr depth
        | s ->
            if !depth = 0 then
              SSet.iter
                (fun v ->
                  if
                    (not (SSet.mem v priv))
                    && not (List.mem_assoc v vctx.syms.Symbols.params)
                  then
                    issue
                      (Printf.sprintf
                         "%s writes shared %s outside a lock/unlock critical \
                          section"
                         label v))
                (SSet.diff (Ast_utils.writes_of [ s ])
                   (* per-worker merge-loop indices are private *)
                   (SSet.of_list
                      (List.map
                         (fun (hh : Ast.do_header) -> hh.Ast.index)
                         (Loops.inner_loops [ s ])))))
      stmts
  in
  check_once_region "preamble" blk.Ast.preamble;
  check_once_region "postamble" blk.Ast.postamble;

  (* ---- calls ---- *)
  check_calls vctx issue ~index calls

(* ------------------------------------------------------------------ *)
(* Statement walk                                                      *)
(* ------------------------------------------------------------------ *)

(* [IF (cond) <parallel loop over i> ELSE <serial DO over i>]: the
   two-version shape emitted for run-time dependence tests — the parallel
   arm only runs when the test discharged the symbolic dependences *)
let serial_do_indices stmts =
  List.filter_map
    (fun s ->
      match Ast_utils.strip_labels_stmt s with
      | Ast.Do (hh, _) when hh.Ast.cls = Ast.Seq -> Some hh.Ast.index
      | _ -> None)
    stmts

let rec check_stmts vctx ~facts stmts =
  List.iter (check_stmt vctx ~facts) stmts

and check_stmt vctx ~facts s =
  match Ast_utils.strip_labels_stmt s with
  | Ast.Do (h, blk) when h.Ast.cls <> Ast.Seq ->
      check_parallel_loop vctx ~facts ~rt_tested:false h blk;
      check_stmts vctx ~facts:(facts @ bound_facts h) blk.Ast.body
  | Ast.Do (h, blk) ->
      check_stmts vctx ~facts:(facts @ bound_facts h) blk.Ast.body
  | Ast.If (c, thn, els) ->
      let serial_twins = serial_do_indices els in
      let pos_facts = facts @ ne_facts true c in
      List.iter
        (fun s ->
          match Ast_utils.strip_labels_stmt s with
          | Ast.Do (h, blk)
            when h.Ast.cls <> Ast.Seq && List.mem h.Ast.index serial_twins ->
              check_parallel_loop vctx ~facts:pos_facts ~rt_tested:true h blk;
              check_stmts vctx
                ~facts:(pos_facts @ bound_facts h)
                blk.Ast.body
          | _ -> check_stmt vctx ~facts:pos_facts s)
        thn;
      check_stmts vctx ~facts:(facts @ ne_facts false c) els
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let check_in ~syms ~interproc ~unit_name ~facts stmts =
  let vctx = { syms; interproc; unit_name; issues = [] } in
  check_stmts vctx ~facts stmts;
  List.rev vctx.issues

let check_stmts_in ~(syms : Symbols.t) ~(interproc : Interproc.t)
    ~(unit_name : string) ?(facts = []) (stmts : Ast.stmt list) : issue list =
  check_in ~syms ~interproc:(Lazy.from_val interproc) ~unit_name ~facts stmts

(* The checker reads only [Symbols.is_array] and [params] of a table, and
   no implicitly typed name changes either, so each unit's table comes
   from its declarations alone; the call summaries are computed only
   when a checked loop makes a call. *)
let check_program (prog : Ast.program) : issue list =
  let interproc = lazy (Interproc.analyze prog) in
  List.concat_map
    (fun (u : Ast.punit) ->
      check_in
        ~syms:(Symbols.of_decls u ~used:SSet.empty)
        ~interproc ~unit_name:u.Ast.u_name ~facts:[] u.Ast.u_body)
    prog

let check_source (text : string) : (issue list, string) result =
  match Parser.parse_program text with
  | prog -> Ok (check_program prog)
  | exception Parser.Error (msg, line) ->
      Error (Printf.sprintf "line %d: %s" line msg)

(** Print → reparse → check: the verdict applies to the emitted text. *)
let reverify (prog : Ast.program) : (issue list, string) result =
  check_source (Printer.program_to_string prog)

(** Target-aware variant of {!check_source}: Cedar text parses directly;
    OpenMP text first re-reads through the directive lift
    ({!Codegen.Openmp.lift_source}), so the same parser and race checks
    apply to what the OpenMP backend actually emitted. *)
let check_output ~(target : Codegen.Target.t) (text : string) :
    (issue list, string) result =
  match target with
  | Codegen.Target.Cedar -> check_source text
  | Codegen.Target.Openmp -> (
      match Codegen.Openmp.lift_source text with
      | Ok cedar -> check_source cedar
      | Error msg -> Error ("openmp lift: " ^ msg))

(** Emit for [target] → (lift →) reparse → check. *)
let reverify_target ~(target : Codegen.Target.t) (prog : Ast.program) :
    (issue list, string) result =
  check_output ~target (Codegen.Emit.program_to_string ~target prog)

(* ------------------------------------------------------------------ *)
(* Dynamic check                                                       *)
(* ------------------------------------------------------------------ *)

(** Execute the program with the race detector armed and return any
    dynamic races observed (see {!Interp.Race}).  Also returns the run's
    PRINT output so callers can cross-check results. *)
let check_dynamic ?(input = []) ~(cfg : Machine.Config.t) (prog : Ast.program)
    : Interp.Race.issue list * string =
  let det = Interp.Race.create () in
  let r = Interp.Exec.run ~input ~detector:det ~cfg prog in
  (Interp.Race.issues det, r.Interp.Exec.output)
