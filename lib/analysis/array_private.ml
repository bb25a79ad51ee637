(** Array privatization analysis (paper §4.1.2).

    An array is privatizable in a loop when every element read during an
    iteration was first written in that same iteration; each processor can
    then work on its own copy, removing all carried dependences on the
    array and letting the copy live in cluster memory.

    The test implemented here covers the patterns in the Perfect codes:
    the array is written by unconditional assignments whose subscripts in
    each dimension are either the index of an immediately enclosing inner
    DO (covering [lo..hi]) or a loop-invariant expression, and every read
    is covered by a lexically earlier write range in the same iteration.
    Bounds comparisons are by structural equality or integer constants —
    conservative, never unsound. *)

open Fortran
module SSet = Ast_utils.SSet
module SMap = Ast_utils.SMap

(** Per-dimension description of the set of subscripts touched. *)
type dim_range =
  | Exact of Ast.expr  (** single loop-invariant subscript *)
  | Span of Ast.expr * Ast.expr  (** [lo..hi], both invariant in the loop *)
  | Opaque

type region = dim_range list

let range_covers (w : dim_range) (r : dim_range) : bool =
  let le a b =
    (* a <= b when b - a is a provably nonnegative constant *)
    match (Affine.of_expr a, Affine.of_expr b) with
    | Some fa, Some fb ->
        let d = Affine.sub fb fa in
        if Affine.is_const d then d.Affine.const >= 0 else Ast.equal_expr a b
    | _ -> Ast.equal_expr a b
  in
  match (w, r) with
  | Exact a, Exact b -> Ast.equal_expr a b
  | Span (lo, hi), Exact b ->
      (* reading exactly the span's lower bound is covered under the
         standard assumption that loops execute at least once (KAP's
         assume-nonempty-trip annotation) *)
      (le lo b && le b hi) || Ast.equal_expr lo b
  | Span (lo, hi), Span (rlo, rhi) -> le lo rlo && le rhi hi
  | Exact _, Span _ | _, Opaque | Opaque, _ -> false

let covers (w : region) (r : region) =
  List.length w = List.length r && List.for_all2 range_covers w r

(* subscript -> dim_range given enclosing inner loops (innermost first) *)
let dim_range_of ~outer_index ~(inners : Ast.do_header list) (sub : Ast.expr) :
    dim_range =
  let invariant e =
    not
      (Ast_utils.exists_var
         (fun v ->
           v = outer_index || List.exists (fun h -> h.Ast.index = v) inners)
         e)
  in
  match sub with
  | Ast.Var j -> (
      match List.find_opt (fun h -> h.Ast.index = j) inners with
      | Some h ->
          let hi = h.Ast.hi and lo = h.Ast.lo in
          if invariant lo && invariant hi && h.Ast.step = None then Span (lo, hi)
          else Opaque
      | None -> if invariant sub then Exact sub else Opaque)
  | _ -> if invariant sub then Exact sub else Opaque

type event = { ev_write : bool; ev_region : region; ev_cond : bool }

(** Collect the sequence of top-level-ordered access events for array [a]
    in the body of loop [outer_index]. *)
let events_of ~outer_index a (body : Ast.stmt list) : event list =
  let acc = ref [] in
  let add w region cond = acc := { ev_write = w; ev_region = region; ev_cond = cond } :: !acc in
  let region_of inners subs =
    List.map (dim_range_of ~outer_index ~inners) subs
  in
  let rec expr inners cond (e : Ast.expr) =
    match e with
    | Ast.Idx (x, subs) ->
        if x = a then add false (region_of inners subs) cond;
        List.iter (expr inners cond) subs
    | Ast.Section (x, dims) ->
        if x = a then begin
          let region =
            List.map
              (function
                | Ast.Elem e -> dim_range_of ~outer_index ~inners e
                | Ast.Range (Some lo, Some hi, (None | Some (Ast.Int 1))) -> (
                    match
                      ( dim_range_of ~outer_index ~inners lo,
                        dim_range_of ~outer_index ~inners hi )
                    with
                    | Exact l, Exact h -> Span (l, h)
                    | _ -> Opaque)
                | Ast.Range _ -> Opaque)
              dims
          in
          add false region cond
        end;
        List.iter
          (function
            | Ast.Elem e -> expr inners cond e
            | Ast.Range (x, y, z) -> List.iter (Option.iter (expr inners cond)) [ x; y; z ])
          dims
    | Ast.Call (_, args) -> List.iter (expr inners cond) args
    | Ast.Bin (_, x, y) ->
        expr inners cond x;
        expr inners cond y
    | Ast.Un (_, x) -> expr inners cond x
    | _ -> ()
  in
  let rec stmt inners cond (s : Ast.stmt) =
    match s with
    | Ast.Assign (l, rhs) -> (
        expr inners cond rhs;
        match l with
        | Ast.LVar _ -> ()
        | Ast.LIdx (x, subs) ->
            List.iter (expr inners cond) subs;
            if x = a then add true (region_of inners subs) cond
        | Ast.LSection (x, dims) ->
            if x = a then
              let region =
                List.map
                  (function
                    | Ast.Elem e -> dim_range_of ~outer_index ~inners e
                    | Ast.Range (Some lo, Some hi, (None | Some (Ast.Int 1)))
                      -> (
                        match
                          ( dim_range_of ~outer_index ~inners lo,
                            dim_range_of ~outer_index ~inners hi )
                        with
                        | Exact l, Exact h -> Span (l, h)
                        | _ -> Opaque)
                    | Ast.Range _ -> Opaque)
                  dims
              in
              add true region cond)
    | Ast.If (c, t, e) ->
        expr inners cond c;
        List.iter (stmt inners true) t;
        List.iter (stmt inners true) e
    | Ast.Do (h, blk) ->
        expr inners cond h.lo;
        expr inners cond h.hi;
        Option.iter (expr inners cond) h.step;
        List.iter (stmt (h :: inners) cond) blk.body
    | Ast.Where (m, b) ->
        expr inners cond m;
        List.iter (stmt inners true) b
    | Ast.CallSt (_, args) ->
        List.iter
          (fun arg ->
            match arg with
            | Ast.Var x when x = a -> add true [ Opaque ] cond
            | Ast.Idx (x, _) | Ast.Section (x, _) when x = a ->
                add true [ Opaque ] cond
            | e -> expr inners cond e)
          args
    | Ast.Print args -> List.iter (expr inners cond) args
    | Ast.Read ls ->
        List.iter
          (function
            | Ast.LIdx (x, _) | Ast.LSection (x, _) when x = a ->
                add true [ Opaque ] cond
            | _ -> ())
          ls
    | Ast.Labeled (_, s) -> stmt inners cond s
    | Ast.Return | Ast.Stop | Ast.Continue | Ast.Goto _ -> ()
  in
  List.iter (stmt [] false) body;
  List.rev !acc

(** Is array [a] privatizable in the loop over [outer_index]?  True when
    each read event is covered by some earlier unconditional write event
    of the same iteration. *)
let privatizable ~outer_index a (body : Ast.stmt list) : bool =
  let events = events_of ~outer_index a body in
  let rec walk written = function
    | [] -> true
    | ev :: rest ->
        if ev.ev_write then
          let written =
            if (not ev.ev_cond)
               && not (List.exists (fun r -> r = Opaque) ev.ev_region)
            then ev.ev_region :: written
            else written
          in
          walk written rest
        else if List.exists (fun w -> covers w ev.ev_region) written then
          walk written rest
        else false
  in
  (match events with [] -> false | _ -> true) && walk [] events

