(** Loop-nest structure: nest contexts, invariance, reference collection.

    Analyses work on one loop at a time, with its enclosing nest as
    context.  A [nest] lists the loop headers from outermost to the loop
    under analysis; statements are addressed by their path (list of child
    indices) within the analyzed loop body so transformations can point
    back at them. *)

open Fortran
module SSet = Ast_utils.SSet
module SMap = Ast_utils.SMap

type level = {
  l_index : string;
  l_lo : Ast.expr;
  l_hi : Ast.expr;
  l_step : Ast.expr;  (** defaults to 1 *)
}

type nest = level list  (** outermost first *)

let level_of_header (h : Ast.do_header) =
  {
    l_index = h.index;
    l_lo = h.lo;
    l_hi = h.hi;
    l_step = (match h.step with None -> Ast.Int 1 | Some s -> s);
  }

let indices (n : nest) = List.map (fun l -> l.l_index) n

(** Constant trip count if bounds are literal. *)
let trip_count_const (l : level) =
  match (l.l_lo, l.l_hi, l.l_step) with
  | Ast.Int lo, Ast.Int hi, Ast.Int st when st <> 0 ->
      Some (max 0 (((hi - lo) / st) + 1))
  | _ -> None

(** Does [e] read nothing the body writes?  The body's write set is
    built once per partial application [is_invariant_expr body]. *)
let is_invariant_expr (body : Ast.stmt list) : Ast.expr -> bool =
  let written = Ast_utils.writes_of body in
  fun e -> not (Ast_utils.exists_var (fun v -> SSet.mem v written) e)

(* ------------------------------------------------------------------ *)
(* Array reference collection                                          *)
(* ------------------------------------------------------------------ *)

type access = Read | Write

type ref_info = {
  r_array : string;
  r_subs : Ast.expr list;
  r_access : access;
  r_path : int list;  (** statement path within the analyzed body *)
  r_conditional : bool;  (** under an IF or WHERE mask *)
}

(** Collect array references in a statement list.  Scalar references are
    not included (scalars are handled by the scalar dataflow passes). *)
let collect_refs (body : Ast.stmt list) : ref_info list =
  let acc = ref [] in
  let add arr subs access path cond =
    acc :=
      {
        r_array = arr;
        r_subs = subs;
        r_access = access;
        r_path = List.rev path;
        r_conditional = cond;
      }
      :: !acc
  in
  let rec expr path cond (e : Ast.expr) =
    match e with
    | Ast.Idx (a, subs) ->
        add a subs Read path cond;
        List.iter (expr path cond) subs
    | Ast.Section (a, dims) ->
        (* model a section read as a read with the lower-bound subscripts;
           the vector tester handles sections separately *)
        let subs =
          List.map
            (function
              | Ast.Elem e -> e
              | Ast.Range (lo, _, _) -> Option.value lo ~default:(Ast.Int 1))
            dims
        in
        add a subs Read path cond
    | Ast.Call (_, args) -> List.iter (expr path cond) args
    | Ast.Bin (_, a, b) ->
        expr path cond a;
        expr path cond b
    | Ast.Un (_, a) -> expr path cond a
    | Ast.Int _ | Ast.Num _ | Ast.Str _ | Ast.Bool _ | Ast.Var _ -> ()
  in
  let lhs path cond (l : Ast.lhs) =
    match l with
    | Ast.LVar _ -> ()
    | Ast.LIdx (a, subs) ->
        add a subs Write path cond;
        List.iter (expr path cond) subs
    | Ast.LSection (a, dims) ->
        let subs =
          List.map
            (function
              | Ast.Elem e -> e
              | Ast.Range (lo, _, _) -> Option.value lo ~default:(Ast.Int 1))
            dims
        in
        add a subs Write path cond
  in
  let rec stmt path cond i (s : Ast.stmt) =
    let path = i :: path in
    match s with
    | Ast.Assign (l, e) ->
        lhs path cond l;
        expr path cond e
    | Ast.If (c, t, e) ->
        expr path cond c;
        List.iteri (stmt path true) t;
        List.iteri (stmt path true) e
    | Ast.Do (h, blk) ->
        expr path cond h.lo;
        expr path cond h.hi;
        Option.iter (expr path cond) h.step;
        List.iteri (stmt path cond) blk.body
    | Ast.Where (m, body) ->
        expr path cond m;
        List.iteri (stmt path true) body
    | Ast.CallSt (_, args) ->
        (* conservative: array arguments both read and written *)
        List.iter
          (fun a ->
            match a with
            | Ast.Var _ -> ()
            | Ast.Idx (arr, subs) ->
                add arr subs Read path cond;
                add arr subs Write path cond
            | e -> expr path cond e)
          args
    | Ast.Print args -> List.iter (expr path cond) args
    | Ast.Read ls -> List.iter (lhs path cond) ls
    | Ast.Labeled (_, s) -> stmt (List.tl path) cond i s
    | Ast.Return | Ast.Stop | Ast.Continue | Ast.Goto _ -> ()
  in
  List.iteri (stmt [] false) body;
  List.rev !acc

(** Lexicographic comparison of statement paths: does [a] come before [b]
    in program order? *)
let rec path_before a b =
  match (a, b) with
  | [], [] -> false
  | [], _ -> true
  | _, [] -> false
  | x :: xs, y :: ys -> x < y || (x = y && path_before xs ys)

(** Inner loops (headers) immediately or transitively inside a body. *)
let rec inner_loops (body : Ast.stmt list) : Ast.do_header list =
  List.concat_map
    (fun s ->
      match s with
      | Ast.Do (h, blk) -> h :: inner_loops blk.body
      | Ast.If (_, t, e) -> inner_loops t @ inner_loops e
      | Ast.Labeled (_, s) -> inner_loops [ s ]
      | _ -> [])
    body

(** Depth of the deepest DO nesting in a statement list. *)
let rec nest_depth (body : Ast.stmt list) =
  List.fold_left
    (fun acc s ->
      max acc
        (match s with
        | Ast.Do (_, blk) -> 1 + nest_depth blk.body
        | Ast.If (_, t, e) -> max (nest_depth t) (nest_depth e)
        | Ast.Labeled (_, s) -> nest_depth [ s ]
        | _ -> 0))
    0 body
