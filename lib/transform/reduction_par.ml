(** Parallel reduction transformation (paper §3.3, §4.1.3).

    Each processor accumulates into a private partial location initialized
    to the operator's identity in the loop preamble; partials are combined
    into the shared location in the postamble inside an unordered critical
    section ([lock]/[unlock]).  Works for scalar reductions and for
    array-element reductions ([a(j) = a(j) + e]) with multiple
    accumulation statements. *)

open Fortran
open Analysis

let identity_of (op : Scalars.red_op) ~(ty : Ast.dtype) : Ast.expr =
  let num f i = if ty = Ast.Integer then Ast.Int i else Ast.Num f in
  match op with
  | Scalars.Rsum -> num 0.0 0
  | Scalars.Rprod -> num 1.0 1
  | Scalars.Rmin -> num 1e30 1073741823
  | Scalars.Rmax -> num (-1e30) (-1073741823)

let combine_expr (op : Scalars.red_op) a b : Ast.expr =
  match op with
  | Scalars.Rsum -> Ast.Bin (Ast.Add, a, b)
  | Scalars.Rprod -> Ast.Bin (Ast.Mul, a, b)
  | Scalars.Rmin -> Ast.Call ("min", [ a; b ])
  | Scalars.Rmax -> Ast.Call ("max", [ a; b ])

type scalar_red = { sr_var : string; sr_op : Scalars.red_op; sr_type : Ast.dtype }

type array_red = {
  arr_name : string;
  arr_op : Scalars.red_op;
  arr_type : Ast.dtype;
  arr_dims : (Ast.expr * Ast.expr) list;
}

(** Rewrite a concurrent loop to use private partial accumulators.
    Returns the transformed loop statement. *)
let apply ~(scalars : scalar_red list) ~(arrays : array_red list)
    (h : Ast.do_header) (blk : Ast.block) : Ast.stmt =
  let sc_renames =
    List.map (fun r -> (r.sr_var, Ast_utils.fresh_name (r.sr_var ^ "_r"))) scalars
  in
  let ar_renames =
    List.map (fun r -> (r.arr_name, Ast_utils.fresh_name (r.arr_name ^ "_r"))) arrays
  in
  let renames = sc_renames @ ar_renames in
  let rename v = match List.assoc_opt v renames with Some r -> r | None -> v in
  let rename_expr =
    Ast_utils.map_expr (function
      | Ast.Var v -> Ast.Var (rename v)
      | Ast.Idx (a, s) -> Ast.Idx (rename a, s)
      | Ast.Section (a, d) -> Ast.Section (rename a, d)
      | e -> e)
  in
  let body =
    List.map
      (Ast_utils.map_stmt_exprs (fun e -> e))
      blk.Ast.body
    |> List.map
         (fun s ->
           let rec go s =
             match s with
             | Ast.Assign (Ast.LVar v, e) -> Ast.Assign (Ast.LVar (rename v), rename_expr e)
             | Ast.Assign (Ast.LIdx (a, subs), e) ->
                 Ast.Assign (Ast.LIdx (rename a, List.map rename_expr subs), rename_expr e)
             | Ast.Assign (Ast.LSection (a, dims), e) ->
                 let dims =
                   List.map
                     (function
                       | Ast.Elem e -> Ast.Elem (rename_expr e)
                       | Ast.Range (x, y, z) ->
                           Ast.Range
                             ( Option.map rename_expr x,
                               Option.map rename_expr y,
                               Option.map rename_expr z ))
                     dims
                 in
                 Ast.Assign (Ast.LSection (rename a, dims), rename_expr e)
             | Ast.If (c, t, f) -> Ast.If (rename_expr c, List.map go t, List.map go f)
             | Ast.Do (hd, b) ->
                 Ast.Do (hd, { b with Ast.body = List.map go b.Ast.body })
             | Ast.Where (m, b) -> Ast.Where (rename_expr m, List.map go b)
             | Ast.Labeled (l, s) -> Ast.Labeled (l, go s)
             | s -> s
           in
           go s)
  in
  (* preamble: initialize partials *)
  let pre_scalars =
    List.map
      (fun r ->
        Ast.Assign (Ast.LVar (rename r.sr_var), identity_of r.sr_op ~ty:r.sr_type))
      scalars
  in
  let pre_arrays =
    List.concat_map
      (fun r ->
        match r.arr_dims with
        | [ (lo, hi) ] ->
            (* rank-1: vector initialization *)
            [
              Ast.Assign
                ( Ast.LSection
                    (rename r.arr_name, [ Ast.Range (Some lo, Some hi, None) ]),
                  identity_of r.arr_op ~ty:r.arr_type );
            ]
        | _ ->
            (* multi-dimensional: initialize with a section assignment *)
            [
              Ast.Assign
                ( Ast.LSection
                    ( rename r.arr_name,
                      List.map (fun (lo, hi) -> Ast.Range (Some lo, Some hi, None)) r.arr_dims
                    ),
                  identity_of r.arr_op ~ty:r.arr_type );
            ])
      arrays
  in
  (* postamble: combine partials under an unordered critical section *)
  let post_scalars =
    List.map
      (fun r ->
        Ast.Assign
          ( Ast.LVar r.sr_var,
            combine_expr r.sr_op (Ast.Var r.sr_var) (Ast.Var (rename r.sr_var)) ))
      scalars
  in
  let post_arrays =
    List.concat_map
      (fun r ->
        match r.arr_dims with
        | [ (lo, hi) ] when r.arr_op = Scalars.Rsum || r.arr_op = Scalars.Rprod
          ->
            (* rank-1: vector merge under the lock *)
            let range = [ Ast.Range (Some lo, Some hi, None) ] in
            [
              Ast.Assign
                ( Ast.LSection (r.arr_name, range),
                  combine_expr r.arr_op
                    (Ast.Section (r.arr_name, range))
                    (Ast.Section (rename r.arr_name, range)) );
            ]
        | [ (lo, hi) ] ->
            let idx = Ast_utils.fresh_name "jr_" in
            [
              Ast.Do
                ( { Ast.index = idx; lo; hi; step = None; cls = Ast.Seq; locals = [] },
                  Ast.seq_block
                    [
                      Ast.Assign
                        ( Ast.LIdx (r.arr_name, [ Ast.Var idx ]),
                          combine_expr r.arr_op
                            (Ast.Idx (r.arr_name, [ Ast.Var idx ]))
                            (Ast.Idx (rename r.arr_name, [ Ast.Var idx ])) );
                    ] );
            ]
        | _ ->
            [
              Ast.Assign
                ( Ast.LSection
                    ( r.arr_name,
                      List.map (fun (lo, hi) -> Ast.Range (Some lo, Some hi, None)) r.arr_dims
                    ),
                  combine_expr r.arr_op
                    (Ast.Section
                       ( r.arr_name,
                         List.map
                           (fun (lo, hi) -> Ast.Range (Some lo, Some hi, None))
                           r.arr_dims ))
                    (Ast.Section
                       ( rename r.arr_name,
                         List.map
                           (fun (lo, hi) -> Ast.Range (Some lo, Some hi, None))
                           r.arr_dims )) );
            ])
      arrays
  in
  let postamble =
    if scalars = [] && arrays = [] then blk.Ast.postamble
    else
      blk.Ast.postamble
      @ [ Ast.CallSt ("lock", [ Ast.Int 1 ]) ]
      @ post_scalars @ post_arrays
      @ [ Ast.CallSt ("unlock", [ Ast.Int 1 ]) ]
  in
  let locals =
    List.map
      (fun r ->
        { Ast.d_name = rename r.sr_var; d_type = r.sr_type; d_dims = []; d_vis = Ast.Default })
      scalars
    @ List.map
        (fun r ->
          {
            Ast.d_name = rename r.arr_name;
            d_type = r.arr_type;
            d_dims = r.arr_dims;
            d_vis = Ast.Default;
          })
        arrays
  in
  Ast.Do
    ( { h with Ast.locals = h.Ast.locals @ locals },
      {
        Ast.preamble = blk.Ast.preamble @ pre_scalars @ pre_arrays;
        body;
        postamble;
      } )

(* ------------------------------------------------------------------ *)
(* Annotation surface for codegen backends (lib/codegen).              *)
(*                                                                     *)
(* [apply] lowers a recognized reduction to Cedar's partial-accumulator *)
(* shape; a backend with a native reduction construct (OpenMP's         *)
(* [reduction(op:var)] clause) wants the annotation back.  [recognize]  *)
(* inverts exactly the scalar pattern [apply] emits — partial local,    *)
(* identity init in the preamble, lock-bracketed [s = s op s_r] merge   *)
(* in the postamble — and returns the loop with that machinery stripped *)
(* and the body accumulating into the shared name again.  Array         *)
(* partials are left in place: they have no clean clause mapping.       *)
(* ------------------------------------------------------------------ *)

type recognized_red = {
  rr_shared : string;  (** the shared accumulation target *)
  rr_partial : string;  (** the per-processor partial local *)
  rr_op : Scalars.red_op;
  rr_type : Ast.dtype;
}

(** The operator's spelling in an OpenMP [reduction(op:var)] clause. *)
let op_clause = function
  | Scalars.Rsum -> "+"
  | Scalars.Rprod -> "*"
  | Scalars.Rmin -> "min"
  | Scalars.Rmax -> "max"

let op_of_clause = function
  | "+" -> Some Scalars.Rsum
  | "*" -> Some Scalars.Rprod
  | "min" -> Some Scalars.Rmin
  | "max" -> Some Scalars.Rmax
  | _ -> None

(* [s = s op p], the merge [combine_expr] builds *)
let merge_shape = function
  | Ast.Assign (Ast.LVar s, _) as st -> (
      match Scalars.reduction_form s st with
      | Some (op, Ast.Var p) -> Some (s, p, op)
      | _ -> None)
  | _ -> None

(* rename every use of [p] (scalar reads and assignment targets) to [s] *)
let rename_scalar_uses p s stmts =
  let re =
    Ast_utils.map_expr (function
      | Ast.Var v when v = p -> Ast.Var s
      | e -> e)
  in
  let rl = function
    | Ast.LVar v when v = p -> Ast.LVar s
    | Ast.LVar v -> Ast.LVar v
    | Ast.LIdx (a, subs) -> Ast.LIdx (a, List.map re subs)
    | Ast.LSection (a, dims) ->
        Ast.LSection
          ( a,
            List.map
              (function
                | Ast.Elem e -> Ast.Elem (re e)
                | Ast.Range (x, y, z) ->
                    Ast.Range (Option.map re x, Option.map re y, Option.map re z))
              dims )
  in
  let rec go = function
    | Ast.Assign (l, e) -> Ast.Assign (rl l, re e)
    | Ast.If (c, t, f) -> Ast.If (re c, List.map go t, List.map go f)
    | Ast.Do (hd, b) ->
        Ast.Do
          ( { hd with Ast.lo = re hd.Ast.lo; hi = re hd.Ast.hi;
              step = Option.map re hd.Ast.step },
            {
              Ast.preamble = List.map go b.Ast.preamble;
              body = List.map go b.Ast.body;
              postamble = List.map go b.Ast.postamble;
            } )
    | Ast.Where (m, b) -> Ast.Where (re m, List.map go b)
    | Ast.CallSt (n, args) -> Ast.CallSt (n, List.map re args)
    | Ast.Print args -> Ast.Print (List.map re args)
    | Ast.Read ls -> Ast.Read (List.map rl ls)
    | Ast.Labeled (l, st) -> Ast.Labeled (l, go st)
    | (Ast.Return | Ast.Stop | Ast.Continue | Ast.Goto _) as st -> st
  in
  List.map go stmts

let is_lock = function
  | Ast.CallSt ("lock", _) -> true
  | _ -> false

let is_unlock = function
  | Ast.CallSt ("unlock", _) -> true
  | _ -> false

(** Recognize the scalar-reduction machinery [apply] put into a
    concurrent loop and strip it back out.  Returns [None] when no
    scalar partial is recognized; otherwise the reductions, the header
    without the partial locals, and the block with the identity inits
    and lock-bracketed merges removed and the body renamed to accumulate
    into the shared names.  If stripping empties the critical section,
    the [lock]/[unlock] pair goes too. *)
let recognize (h : Ast.do_header) (blk : Ast.block) :
    (recognized_red list * Ast.do_header * Ast.block) option =
  (* the lock-bracketed tail region of the postamble *)
  let post = Array.of_list blk.Ast.postamble in
  let lock_at = ref (-1) and unlock_at = ref (-1) in
  Array.iteri
    (fun i st ->
      if is_lock st && !lock_at < 0 then lock_at := i;
      if is_unlock st then unlock_at := i)
    post;
  if !lock_at < 0 || !unlock_at <= !lock_at then None
  else
    let scalar_locals =
      List.filter (fun d -> d.Ast.d_dims = []) h.Ast.locals
    in
    let in_bracket i = i > !lock_at && i < !unlock_at in
    (* a partial qualifies when its identity init sits in the preamble
       and its merge sits inside the bracket *)
    let recognized =
      List.filter_map
        (fun d ->
          let p = d.Ast.d_name in
          let merge =
            Array.to_list (Array.mapi (fun i st -> (i, st)) post)
            |> List.filter_map (fun (i, st) ->
                   if not (in_bracket i) then None
                   else
                     match merge_shape st with
                     | Some (s, p', op) when p' = p -> Some (i, s, op)
                     | _ -> None)
          in
          match merge with
          | [ (mi, s, op) ] ->
              let init = Ast.Assign (Ast.LVar p, identity_of op ~ty:d.Ast.d_type) in
              let init_ok = List.mem init blk.Ast.preamble in
              let touches st =
                let module U = Ast_utils in
                U.SSet.mem p (U.stmt_reads U.SSet.empty st)
                || U.SSet.mem p (U.stmt_writes U.SSet.empty st)
              in
              (* the partial must not leak into statements we keep *)
              let leaks =
                List.exists
                  (fun st -> st <> init && touches st)
                  blk.Ast.preamble
                || Array.exists Fun.id
                     (Array.mapi
                        (fun i st -> i <> mi && touches st)
                        post)
              in
              if init_ok && (not leaks) && s <> p then
                Some ({ rr_shared = s; rr_partial = p; rr_op = op;
                        rr_type = d.Ast.d_type }, mi)
              else None
          | _ -> None)
        scalar_locals
    in
    if recognized = [] then None
    else
      let merge_idxs = List.map snd recognized in
      let reds = List.map fst recognized in
      let partials = List.map (fun r -> r.rr_partial) reds in
      let locals =
        List.filter
          (fun d -> not (List.mem d.Ast.d_name partials))
          h.Ast.locals
      in
      let preamble =
        List.filter
          (fun st ->
            not
              (List.exists
                 (fun r ->
                   st
                   = Ast.Assign
                       ( Ast.LVar r.rr_partial,
                         identity_of r.rr_op ~ty:r.rr_type ))
                 reds))
          blk.Ast.preamble
      in
      let kept =
        Array.to_list (Array.mapi (fun i st -> (i, st)) post)
        |> List.filter (fun (i, _) -> not (List.mem i merge_idxs))
      in
      (* drop the lock/unlock pair when the bracket emptied *)
      let bracket_empty =
        not (List.exists (fun (i, _) -> in_bracket i) kept)
      in
      let postamble =
        kept
        |> List.filter (fun (i, _) ->
               not (bracket_empty && (i = !lock_at || i = !unlock_at)))
        |> List.map snd
      in
      let body =
        List.fold_left
          (fun b r -> rename_scalar_uses r.rr_partial r.rr_shared b)
          blk.Ast.body reds
      in
      Some
        ( reds,
          { h with Ast.locals },
          { Ast.preamble; body; postamble } )
