(** Loop fusion (paper §4.2.4, Figure 9 variant c).

    Fusing adjacent loops with identical iteration spaces enlarges the
    parallel grain, which matters enormously on Cedar where SDOALL startup
    is expensive.  Fusion is legal here when every array that one loop
    writes and the other references is accessed elementwise-identically
    (same subscripts after renaming the second loop's index), so iteration
    [i] of the fused body computes exactly what the two original
    iterations [i] computed.

    [fuse_region] also implements the paper's replication trick: scalar
    straight-line code {i between} the loops is pulled inside the fusion
    when it only feeds forward (made redundant per-processor). *)

open Fortran
open Analysis
module SSet = Ast_utils.SSet

let same_bounds (h1 : Ast.do_header) (h2 : Ast.do_header) =
  Ast.equal_expr h1.Ast.lo h2.Ast.lo
  && Ast.equal_expr h1.Ast.hi h2.Ast.hi
  && Option.value h1.Ast.step ~default:(Ast.Int 1)
     = Option.value h2.Ast.step ~default:(Ast.Int 1)

(* all references to [arrays] in [stmts] collected as (array, subs) *)
let refs_to arrays stmts =
  Loops.collect_refs stmts
  |> List.filter (fun r -> SSet.mem r.Loops.r_array arrays)

(** Legality: arrays common to both bodies must be referenced with
    structurally identical subscript lists everywhere. *)
let fusable (h1 : Ast.do_header) body1 (h2 : Ast.do_header) body2 =
  same_bounds h1 h2
  && (not (Ast_utils.contains_goto body1 || Ast_utils.contains_goto body2))
  (* renaming h2's index to h1's must not capture an existing use *)
  && (h1.Ast.index = h2.Ast.index
     || not (SSet.mem h1.Ast.index (Ast_utils.names_of body2)))
  &&
  let body2 =
    List.map
      (Ast_utils.map_stmt_exprs (fun e ->
           match e with
           | Ast.Var v when v = h2.Ast.index -> Ast.Var h1.Ast.index
           | e -> e))
      body2
  in
  let w1 = Ast_utils.writes_of body1 and w2 = Ast_utils.writes_of body2 in
  let r1 = Ast_utils.reads_of body1 and r2 = Ast_utils.reads_of body2 in
  let shared =
    SSet.union (SSet.inter w1 (SSet.union r2 w2)) (SSet.inter w2 r1)
  in
  let ok_array a =
    let all = refs_to (SSet.singleton a) body1 @ refs_to (SSet.singleton a) body2 in
    match all with
    | [] -> true
    | first :: rest ->
        (* the shared access must move with the fused index — a cell that
           does not (e.g. an accumulator indexed only by inner loops) is
           written by every iteration of body1 and must see them all
           before body2 reads it *)
        List.exists (Ast_utils.mentions h1.Ast.index) first.Loops.r_subs
        && List.for_all
             (fun r ->
               List.length r.Loops.r_subs = List.length first.Loops.r_subs
               && List.for_all2 Ast.equal_expr r.Loops.r_subs first.Loops.r_subs)
             rest
  in
  (* scalars shared between bodies: a value flowing forward (written by
     body1, read by body2) is only safe when body2 defines it before use
     (making it iteration-private); a scalar written by body2 that body1
     references at all would let later body1 iterations observe body2's
     writes — the reversed anti-dependence *)
  let inner_indices =
    List.map (fun h -> h.Ast.index) (Loops.inner_loops (body1 @ body2))
  in
  let scalar_ok v =
    (* v is a scalar iff it never appears with subscripts *)
    let is_array =
      List.exists (fun r -> r.Loops.r_array = v) (Loops.collect_refs (body1 @ body2))
    in
    if is_array then ok_array v
    else if List.mem v inner_indices then
      (* inner loop indices are register-private *)
      true
    else
      ((not (SSet.mem v w2)) || not (SSet.mem v (SSet.union r1 w1)))
      && not (SSet.mem v (Scalars.upward_exposed body2))
  in
  SSet.for_all scalar_ok shared

(** Fuse two compatible loops into one (keeping the first loop's header). *)
let fuse (h1 : Ast.do_header) body1 (h2 : Ast.do_header) body2 : Ast.stmt =
  let body2 =
    List.map
      (Ast_utils.map_stmt_exprs (fun e ->
           match e with
           | Ast.Var v when v = h2.Ast.index -> Ast.Var h1.Ast.index
           | e -> e))
      body2
  in
  Ast.Do (h1, Ast.seq_block (body1 @ body2))

(** Fuse a whole region: a sequence [loop1; mid...; loop2] where [mid] is
    straight-line scalar code that can be replicated into every iteration
    (the paper's redundant-computation trick in FLO52).  [mid] is safe to
    replicate when it only assigns scalars that body2 reads but body1 does
    not write, and reads nothing body1 or body2 writes. *)
let fuse_region (s1 : Ast.stmt) (mid : Ast.stmt list) (s2 : Ast.stmt) :
    Ast.stmt option =
  match (Ast_utils.strip_labels_stmt s1, Ast_utils.strip_labels_stmt s2) with
  | Ast.Do (h1, b1), Ast.Do (h2, b2)
    when h1.Ast.cls = Ast.Seq && h2.Ast.cls = Ast.Seq ->
      let body1 = b1.Ast.body and body2 = b2.Ast.body in
      let mid_ok =
        List.for_all
          (fun s ->
            match Ast_utils.strip_labels_stmt s with
            | Ast.Assign (Ast.LVar _, _) -> true
            | _ -> false)
          mid
        &&
        let mid_reads = Ast_utils.reads_of mid in
        let mid_writes = Ast_utils.writes_of mid in
        let w = SSet.union (Ast_utils.writes_of body1) (Ast_utils.writes_of body2) in
        SSet.is_empty (SSet.inter mid_reads w)
        && SSet.is_empty (SSet.inter mid_writes w)
        (* replication must be idempotent: the mid may not read what it
           writes (s = s + e would accumulate once per iteration) *)
        && SSet.is_empty (SSet.inter mid_writes mid_reads)
        (* and body1 must not read the mid's values: earlier iterations'
           replicas would already have overwritten them *)
        && SSet.is_empty (SSet.inter mid_writes (Ast_utils.reads_of body1))
        && (not (SSet.mem h1.Ast.index mid_reads))
        && not (SSet.mem h2.Ast.index mid_reads)
      in
      if mid_ok && fusable h1 body1 h2 body2 then
        Some (fuse h1 (body1 @ mid) h2 body2)
      else None
  | _ -> None
