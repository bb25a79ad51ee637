(** DOACROSS conversion with cascade synchronization (paper §3.3, §4.1.6).

    A loop whose carried dependences all have known positive distances can
    run as an ordered parallel loop: the region between the first sink and
    the last source of carried dependences is bracketed by
    [call await(seq, dist)] / [call advance(seq)], serializing only that
    region while the rest of the body overlaps.  The restructurer inserts
    the smallest sufficient set — here one await/advance pair per
    synchronization sequence, at the tightest statement span.

    The {i synchronization delay factor} — the fraction of the body inside
    the synchronized region divided by the processors that may wait on it —
    lowers the loop's estimated benefit in the cost model. *)

open Fortran
open Analysis

type plan = {
  dx_first_sink : int;  (** top-level index of first dependence sink *)
  dx_last_source : int;  (** top-level index of last dependence source *)
  dx_distance : int;  (** minimal carried distance *)
}

(** Executable statement count of a list, counting nested statements: a
    label and a CONTINUE weigh nothing, so [DO 20 ... 20 CONTINUE] and
    [DO ... ENDDO] weigh the same. *)
let weight stmts =
  Ast_utils.fold_stmts
    (fun n s -> match s with Ast.Labeled _ | Ast.Continue -> n | _ -> n + 1)
    0 stmts

(** Build the plan from carried dependences (top-level statement indices
    are the heads of the dependence paths). *)
let plan_of_deps (deps : Depend.dep list) : plan option =
  let carried = List.filter (fun d -> d.Depend.d_carried) deps in
  if carried = [] then None
  else
    let dists =
      List.map
        (fun d ->
          match d.Depend.d_distance with Depend.Dist n -> Some n | Depend.Star -> None)
        carried
    in
    if List.exists Option.is_none dists then None
    else
      let dists = List.map Option.get dists in
      if List.exists (fun d -> d <= 0) dists then None
      else
        let top = function [] -> 0 | i :: _ -> i in
        let sinks = List.map (fun d -> top d.Depend.d_dst) carried in
        let sources = List.map (fun d -> top d.Depend.d_src) carried in
        Some
          {
            dx_first_sink = List.fold_left min max_int sinks;
            dx_last_source = List.fold_left max 0 sources;
            dx_distance = List.fold_left min max_int dists;
          }

(** The fraction of one iteration inside the synchronized region (before
    dividing by processor count — the cost model does that). *)
let sync_fraction (p : plan) (body : Ast.stmt list) =
  let arr = Array.of_list body in
  let lo = min p.dx_first_sink p.dx_last_source in
  let hi = max p.dx_first_sink p.dx_last_source in
  let region = Array.to_list (Array.sub arr lo (hi - lo + 1)) in
  let total = weight body in
  if total = 0 then 1.0 else float_of_int (weight region) /. float_of_int total

(** Rewrite the body with await/advance around the synchronized region and
    return the DOACROSS loop. *)
let apply ~(cls : Ast.loop_class) (p : plan) (h : Ast.do_header)
    (blk : Ast.block) : Ast.stmt =
  let body = Array.of_list blk.Ast.body in
  let lo = min p.dx_first_sink p.dx_last_source in
  let hi = max p.dx_first_sink p.dx_last_source in
  let out = ref [] in
  Array.iteri
    (fun i s ->
      if i = lo then
        out := Ast.CallSt ("await", [ Ast.Int 1; Ast.Int p.dx_distance ]) :: !out;
      out := s :: !out;
      if i = hi then out := Ast.CallSt ("advance", [ Ast.Int 1 ]) :: !out)
    body;
  let cls =
    match cls with
    | Ast.Cdoall -> Ast.Cdoacross
    | Ast.Sdoall -> Ast.Sdoacross
    | Ast.Xdoall -> Ast.Xdoacross
    | c -> c
  in
  Ast.Do ({ h with Ast.cls }, { blk with Ast.body = List.rev !out })
