(** Traversals, substitutions and structural helpers over the AST. *)

open Ast

module SSet = Set.Make (String)
module SMap = Map.Make (String)

(* ------------------------------------------------------------------ *)
(* Expression traversal                                                *)
(* ------------------------------------------------------------------ *)

let rec map_expr f e =
  let e' =
    match e with
    | Int _ | Num _ | Str _ | Bool _ | Var _ -> e
    | Idx (a, args) -> Idx (a, List.map (map_expr f) args)
    | Section (a, dims) -> Section (a, List.map (map_section_dim f) dims)
    | Call (n, args) -> Call (n, List.map (map_expr f) args)
    | Bin (op, a, b) -> Bin (op, map_expr f a, map_expr f b)
    | Un (op, a) -> Un (op, map_expr f a)
  in
  f e'

and map_section_dim f = function
  | Elem e -> Elem (map_expr f e)
  | Range (lo, hi, step) ->
      Range
        ( Option.map (map_expr f) lo,
          Option.map (map_expr f) hi,
          Option.map (map_expr f) step )

let rec fold_expr f acc e =
  let acc = f acc e in
  match e with
  | Int _ | Num _ | Str _ | Bool _ | Var _ -> acc
  | Idx (_, args) | Call (_, args) -> List.fold_left (fold_expr f) acc args
  | Section (_, dims) ->
      List.fold_left
        (fun acc d ->
          match d with
          | Elem e -> fold_expr f acc e
          | Range (lo, hi, step) ->
              List.fold_left
                (fun acc o ->
                  match o with None -> acc | Some e -> fold_expr f acc e)
                acc [ lo; hi; step ])
        acc dims
  | Bin (_, a, b) -> fold_expr f (fold_expr f acc a) b
  | Un (_, a) -> fold_expr f acc a

(** [add_expr_vars acc e] adds to [acc] every variable and array name
    read by [e] (array names include the base of element references and
    sections; function call names are not included, but their arguments
    are traversed). *)
let rec add_expr_vars acc e =
  match e with
  | Var v -> SSet.add v acc
  | Idx (a, args) -> List.fold_left add_expr_vars (SSet.add a acc) args
  | Section (a, dims) -> List.fold_left add_dim_vars (SSet.add a acc) dims
  | Call (_, args) -> List.fold_left add_expr_vars acc args
  | Bin (_, a, b) -> add_expr_vars (add_expr_vars acc a) b
  | Un (_, a) -> add_expr_vars acc a
  | Int _ | Num _ | Str _ | Bool _ -> acc

and add_dim_vars acc = function
  | Elem e -> add_expr_vars acc e
  | Range (lo, hi, step) -> add_opt_vars (add_opt_vars (add_opt_vars acc lo) hi) step

and add_opt_vars acc = function None -> acc | Some e -> add_expr_vars acc e

let expr_vars e = add_expr_vars SSet.empty e

(** [exists_var p e] is [SSet.exists p (expr_vars e)], without building
    the set: it stops at the first name that satisfies [p]. *)
let rec exists_var p e =
  match e with
  | Var v -> p v
  | Idx (a, args) -> p a || exists_var_list p args
  | Section (a, dims) -> p a || exists_dim_var p dims
  | Call (_, args) -> exists_var_list p args
  | Bin (_, a, b) -> exists_var p a || exists_var p b
  | Un (_, a) -> exists_var p a
  | Int _ | Num _ | Str _ | Bool _ -> false

and exists_var_list p = function
  | [] -> false
  | e :: rest -> exists_var p e || exists_var_list p rest

and exists_dim_var p = function
  | [] -> false
  | Elem e :: rest -> exists_var p e || exists_dim_var p rest
  | Range (lo, hi, step) :: rest ->
      exists_opt_var p lo || exists_opt_var p hi || exists_opt_var p step
      || exists_dim_var p rest

and exists_opt_var p = function None -> false | Some e -> exists_var p e

(** [mentions v e] is [SSet.mem v (expr_vars e)]. *)
let mentions v e = exists_var (String.equal v) e

let lhs_name = function LVar v | LIdx (v, _) | LSection (v, _) -> v

(** [add_lhs_reads acc l] adds the variables read on a left-hand side (the
    subscripts). *)
let add_lhs_reads acc = function
  | LVar _ -> acc
  | LIdx (_, args) -> List.fold_left add_expr_vars acc args
  | LSection (_, dims) -> List.fold_left add_dim_vars acc dims

(** Substitute variable [v] by expression [r] everywhere in [e]. *)
let subst_var v r e =
  map_expr (function Var x when x = v -> r | x -> x) e

(* ------------------------------------------------------------------ *)
(* Statement traversal                                                 *)
(* ------------------------------------------------------------------ *)

let rec map_stmt_exprs f s =
  let fe = map_expr f in
  let fl = function
    | LVar v -> LVar v
    | LIdx (a, args) -> LIdx (a, List.map fe args)
    | LSection (a, dims) -> LSection (a, List.map (map_section_dim f) dims)
  in
  match s with
  | Assign (l, e) -> Assign (fl l, fe e)
  | If (c, t, e) ->
      If (fe c, List.map (map_stmt_exprs f) t, List.map (map_stmt_exprs f) e)
  | Do (hdr, blk) ->
      Do
        ( {
            hdr with
            lo = fe hdr.lo;
            hi = fe hdr.hi;
            step = Option.map fe hdr.step;
          },
          {
            preamble = List.map (map_stmt_exprs f) blk.preamble;
            body = List.map (map_stmt_exprs f) blk.body;
            postamble = List.map (map_stmt_exprs f) blk.postamble;
          } )
  | Where (m, body) -> Where (fe m, List.map (map_stmt_exprs f) body)
  | CallSt (n, args) -> CallSt (n, List.map fe args)
  | Return | Stop | Continue | Goto _ -> s
  | Labeled (l, s) -> Labeled (l, map_stmt_exprs f s)
  | Print args -> Print (List.map fe args)
  | Read ls -> Read (List.map fl ls)

let rec fold_stmts f acc stmts = List.fold_left (fold_stmt f) acc stmts

and fold_stmt f acc s =
  let acc = f acc s in
  match s with
  | Assign _ | CallSt _ | Return | Stop | Continue | Goto _ | Print _ | Read _
    ->
      acc
  | If (_, t, e) -> fold_stmts f (fold_stmts f acc t) e
  | Do (_, blk) ->
      fold_stmts f (fold_stmts f (fold_stmts f acc blk.preamble) blk.body)
        blk.postamble
  | Where (_, body) -> fold_stmts f acc body
  | Labeled (_, s) -> fold_stmt f acc s

(** Rewrite statements bottom-up: [f] sees each statement after its children
    were rewritten and may return a replacement list. *)
let rec rewrite_stmts (f : stmt -> stmt list) stmts =
  List.concat_map (rewrite_stmt f) stmts

and rewrite_stmt f s =
  let s' =
    match s with
    | Assign _ | CallSt _ | Return | Stop | Continue | Goto _ | Print _
    | Read _ ->
        s
    | If (c, t, e) -> If (c, rewrite_stmts f t, rewrite_stmts f e)
    | Do (hdr, blk) ->
        Do
          ( hdr,
            {
              preamble = rewrite_stmts f blk.preamble;
              body = rewrite_stmts f blk.body;
              postamble = rewrite_stmts f blk.postamble;
            } )
    | Where (m, body) -> Where (m, rewrite_stmts f body)
    | Labeled (l, s) -> Labeled (l, s)
  in
  match s' with
  | Labeled (l, inner) -> (
      (* keep the label on the first replacement statement *)
      match rewrite_stmt f inner with
      | [] -> [ Labeled (l, Continue) ]
      | first :: rest -> Labeled (l, first) :: rest)
  | _ -> f s'

(** Strip Labeled wrappers (labels only matter for GOTO, which the
    restructurer treats as a parallelization blocker anyway).  Only a
    labelled CONTINUE loses its label; a statement with nothing below it
    to strip is returned itself, not copied. *)
let rec strip_labels_stmt s =
  match s with
  | Labeled (_, Continue) -> Continue
  | Labeled (l, inner) ->
      let inner' = strip_labels_stmt inner in
      if inner' == inner then s else Labeled (l, inner')
  | Assign _ | CallSt _ | Return | Stop | Continue | Goto _ | Print _ | Read _
    ->
      s
  | If (c, t, e) ->
      let t' = strip_labels_list t and e' = strip_labels_list e in
      if t' == t && e' == e then s else If (c, t', e')
  | Do (hdr, blk) ->
      let pre = strip_labels_list blk.preamble
      and body = strip_labels_list blk.body
      and post = strip_labels_list blk.postamble in
      if pre == blk.preamble && body == blk.body && post == blk.postamble then s
      else Do (hdr, { preamble = pre; body; postamble = post })
  | Where (m, body) ->
      let body' = strip_labels_list body in
      if body' == body then s else Where (m, body')

and strip_labels_list stmts =
  match stmts with
  | [] -> stmts
  | s :: rest ->
      let s' = strip_labels_stmt s and rest' = strip_labels_list rest in
      if s' == s && rest' == rest then stmts else s' :: rest'

(** Does any statement in the list satisfy [p]? *)
let exists_stmt p stmts = fold_stmts (fun acc s -> acc || p s) false stmts

let contains_goto stmts =
  exists_stmt (function Goto _ -> true | _ -> false) stmts

let contains_call stmts =
  exists_stmt
    (function
      | CallSt _ -> true
      | Assign (_, e) ->
          fold_expr
            (fun acc e ->
              acc
              || match e with Call (n, _) -> not (is_intrinsic n) | _ -> false)
            false e
      | _ -> false)
    stmts

let contains_io stmts =
  exists_stmt (function Print _ | Read _ -> true | _ -> false) stmts

(* ------------------------------------------------------------------ *)
(* Reads / writes of statements                                        *)
(* ------------------------------------------------------------------ *)

(** Scalar and array names written by one statement (not recursing into
    nested loop bodies' headers' index variables — those are included too,
    since a DO writes its index). *)
let rec stmt_writes acc s =
  match s with
  | Assign (l, _) -> SSet.add (lhs_name l) acc
  | If (_, t, e) -> List.fold_left stmt_writes (List.fold_left stmt_writes acc t) e
  | Do (hdr, blk) ->
      let acc = SSet.add hdr.index acc in
      List.fold_left stmt_writes
        (List.fold_left stmt_writes
           (List.fold_left stmt_writes acc blk.preamble)
           blk.body)
        blk.postamble
  | Where (_, body) -> List.fold_left stmt_writes acc body
  | CallSt (_, args) ->
      (* conservatively: every variable or array argument may be written *)
      List.fold_left
        (fun acc e ->
          match e with
          | Var v -> SSet.add v acc
          | Idx (a, _) | Section (a, _) -> SSet.add a acc
          | _ -> acc)
        acc args
  | Read ls -> List.fold_left (fun acc l -> SSet.add (lhs_name l) acc) acc ls
  | Labeled (_, s) -> stmt_writes acc s
  | Return | Stop | Continue | Goto _ | Print _ -> acc

let rec stmt_reads acc s =
  match s with
  | Assign (l, e) -> add_expr_vars (add_lhs_reads acc l) e
  | If (c, t, e) ->
      List.fold_left stmt_reads (List.fold_left stmt_reads (add_expr_vars acc c) t) e
  | Do (hdr, blk) ->
      let acc = add_opt_vars (add_expr_vars (add_expr_vars acc hdr.lo) hdr.hi) hdr.step in
      List.fold_left stmt_reads
        (List.fold_left stmt_reads
           (List.fold_left stmt_reads acc blk.preamble)
           blk.body)
        blk.postamble
  | Where (m, body) -> List.fold_left stmt_reads (add_expr_vars acc m) body
  | CallSt (_, args) | Print args -> List.fold_left add_expr_vars acc args
  | Read ls -> List.fold_left add_lhs_reads acc ls
  | Labeled (_, s) -> stmt_reads acc s
  | Return | Stop | Continue | Goto _ -> acc

let writes_of stmts = List.fold_left stmt_writes SSet.empty stmts
let reads_of stmts = List.fold_left stmt_reads SSet.empty stmts

(* [stmt_reads] and [stmt_writes] in one walk *)
let rec stmt_names acc s =
  let add_lhs acc l = add_lhs_reads (SSet.add (lhs_name l) acc) l in
  match s with
  | Assign (l, e) -> add_expr_vars (add_lhs acc l) e
  | If (c, t, e) ->
      List.fold_left stmt_names
        (List.fold_left stmt_names (add_expr_vars acc c) t)
        e
  | Do (hdr, blk) ->
      let acc = SSet.add hdr.index acc in
      let acc =
        add_opt_vars (add_expr_vars (add_expr_vars acc hdr.lo) hdr.hi) hdr.step
      in
      List.fold_left stmt_names
        (List.fold_left stmt_names
           (List.fold_left stmt_names acc blk.preamble)
           blk.body)
        blk.postamble
  | Where (m, body) -> List.fold_left stmt_names (add_expr_vars acc m) body
  | CallSt (_, args) | Print args ->
      (* a call's written arguments are names its arguments read *)
      List.fold_left add_expr_vars acc args
  | Read ls -> List.fold_left add_lhs acc ls
  | Labeled (_, s) -> stmt_names acc s
  | Return | Stop | Continue | Goto _ -> acc

(** Every name the statements read or write:
    [SSet.union (reads_of stmts) (writes_of stmts)]. *)
let names_of stmts = List.fold_left stmt_names SSet.empty stmts

(** What a routine's interprocedural summary needs from its body, in one
    walk: [reads_of], [writes_of], the routines it calls (each CALL, and
    each non-intrinsic function reference on an assignment's right-hand
    side), and whether it does I/O ([contains_io]). *)
type body_facts = {
  reads : SSet.t;
  writes : SSet.t;
  calls : string list;  (** sorted, without repeats *)
  io : bool;
}

let body_facts stmts =
  let reads = ref SSet.empty
  and writes = ref SSet.empty
  and calls = ref []
  and io = ref false in
  let rec stmt s =
    match s with
    | If (c, t, e) ->
        reads := add_expr_vars !reads c;
        List.iter stmt t;
        List.iter stmt e
    | Do (hdr, blk) ->
        writes := SSet.add hdr.index !writes;
        reads := add_opt_vars (add_expr_vars (add_expr_vars !reads hdr.lo) hdr.hi) hdr.step;
        List.iter stmt blk.preamble;
        List.iter stmt blk.body;
        List.iter stmt blk.postamble
    | Where (m, body) ->
        reads := add_expr_vars !reads m;
        List.iter stmt body
    | Labeled (_, s) -> stmt s
    | Assign _ | CallSt _ | Print _ | Read _ | Return | Stop | Continue | Goto _ -> (
        (* a simple statement: the per-statement folds do not recurse *)
        reads := stmt_reads !reads s;
        writes := stmt_writes !writes s;
        match s with
        | Assign (_, e) ->
            calls :=
              fold_expr
                (fun acc e ->
                  match e with
                  | Call (n, _) when not (is_intrinsic n) -> n :: acc
                  | _ -> acc)
                !calls e
        | CallSt (n, _) -> calls := n :: !calls
        | Print _ | Read _ -> io := true
        | _ -> ())
  in
  List.iter stmt stmts;
  { reads = !reads; writes = !writes; calls = List.sort_uniq String.compare !calls; io = !io }

(** The coefficient of [index] in an expression viewed structurally as a
    sum of terms: terms free of the index may be arbitrarily nonlinear in
    other variables; terms in the index must be [index] or [c*index].
    [None] = not linear in the index. *)
let rec index_coeff index (e : Ast.expr) : int option =
  match e with
  | _ when not (mentions index e) -> Some 0
  | Ast.Var v when v = index -> Some 1
  | Ast.Bin (Ast.Add, a, b) -> (
      match (index_coeff index a, index_coeff index b) with
      | Some x, Some y -> Some (x + y)
      | _ -> None)
  | Ast.Bin (Ast.Sub, a, b) -> (
      match (index_coeff index a, index_coeff index b) with
      | Some x, Some y -> Some (x - y)
      | _ -> None)
  | Ast.Bin (Ast.Mul, Ast.Int c, b) -> (
      match index_coeff index b with Some y -> Some (c * y) | None -> None)
  | Ast.Bin (Ast.Mul, a, Ast.Int c) -> (
      match index_coeff index a with Some x -> Some (c * x) | None -> None)
  | Ast.Un (Ast.Neg, a) -> (
      match index_coeff index a with Some x -> Some (-x) | None -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Fresh names                                                         *)
(* ------------------------------------------------------------------ *)

(* Domain-local so concurrent restructuring jobs (one per worker domain)
   never race on the counter: each domain numbers its own temporaries, and
   [reset_fresh] at every program-unit boundary keeps the generated names
   a function of the unit alone — identical whichever domain runs it. *)
let fresh_counter : int ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref 0)

(* Observers of fresh-name generation, innermost first.  The nest
   memoizer records the (prefix, name) stream of a transformation so a
   replayed hit can re-draw the same names from the live counter and stay
   byte-identical with a direct run. *)
let fresh_hooks : (string -> string -> unit) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let fresh_name prefix =
  let c = Domain.DLS.get fresh_counter in
  incr c;
  let n = Printf.sprintf "%s%d" prefix !c in
  List.iter (fun f -> f prefix n) !(Domain.DLS.get fresh_hooks);
  n

let reset_fresh () = Domain.DLS.get fresh_counter := 0

let with_fresh_hook (f : string -> string -> unit) (body : unit -> 'a) : 'a =
  let hooks = Domain.DLS.get fresh_hooks in
  hooks := f :: !hooks;
  Fun.protect ~finally:(fun () -> hooks := List.tl !hooks) body

(* ------------------------------------------------------------------ *)
(* Simple constant folding / simplification                            *)
(* ------------------------------------------------------------------ *)

let rec simplify e =
  match e with
  | Bin (op, a, b) -> (
      let a = simplify a and b = simplify b in
      match (op, a, b) with
      | Add, Int x, Int y -> Int (x + y)
      | Sub, Int x, Int y -> Int (x - y)
      | Mul, Int x, Int y -> Int (x * y)
      | Div, Int x, Int y when y <> 0 && x mod y = 0 -> Int (x / y)
      | Add, e, Int 0 | Add, Int 0, e -> e
      | Sub, e, Int 0 -> e
      | Mul, e, Int 1 | Mul, Int 1, e -> e
      | Mul, _, Int 0 | Mul, Int 0, _ -> Int 0
      | Div, e, Int 1 -> e
      | Pow, e, Int 1 -> e
      | _ -> Bin (op, a, b))
  | Un (Neg, Int x) -> Int (-x)
  | Un (op, a) -> Un (op, simplify a)
  | Idx (n, args) -> Idx (n, List.map simplify args)
  | Call (n, args) -> Call (n, List.map simplify args)
  | Section (n, dims) ->
      Section
        ( n,
          List.map
            (function
              | Elem e -> Elem (simplify e)
              | Range (lo, hi, st) ->
                  Range
                    ( Option.map simplify lo,
                      Option.map simplify hi,
                      Option.map simplify st ))
            dims )
  | Int _ | Num _ | Str _ | Bool _ | Var _ -> e

(** Try to evaluate an expression to an integer constant given PARAMETER
    bindings. *)
let rec const_eval params e =
  match e with
  | Int n -> Some n
  | Var v -> (
      match List.assoc_opt v params with
      | Some e -> const_eval params e
      | None -> None)
  | Bin (op, a, b) -> (
      match (const_eval params a, const_eval params b) with
      | Some x, Some y -> (
          match op with
          | Add -> Some (x + y)
          | Sub -> Some (x - y)
          | Mul -> Some (x * y)
          | Div -> if y = 0 then None else Some (x / y)
          | Pow ->
              if y < 0 then None
              else
                let rec pow b e = if e = 0 then 1 else b * pow b (e - 1) in
                Some (pow x y)
          | _ -> None)
      | _ -> None)
  | Un (Neg, a) -> Option.map (fun x -> -x) (const_eval params a)
  | _ -> None
