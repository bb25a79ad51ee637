(** Scalar classification for one loop.

    Every scalar written inside a candidate parallel loop creates a
    memory-reuse dependence across iterations unless it can be handled
    specially.  This pass classifies each written scalar as:

    - an {b induction variable} ([v = v + k] / [v = v * k], [k] invariant);
    - a {b reduction} ([v = v op e] with [op] associative-commutative, and
      [v] not otherwise used);
    - {b privatizable} (defined before every use in each iteration), with a
      flag telling whether its last value is live after the loop;
    - or a genuine {b shared dependence}, which blocks DOALL execution.

    The walk is structural: definitions under IF/WHERE or inside inner DO
    loops are treated as conditional (they may not execute), which keeps
    the analysis sound for the programs in this repository. *)

open Fortran
module SSet = Ast_utils.SSet
module SMap = Ast_utils.SMap

type red_op = Rsum | Rprod | Rmin | Rmax
[@@deriving show { with_path = false }, eq]

type giv_kind =
  | Additive of Ast.expr  (** v = v + k *)
  | Multiplicative of Ast.expr  (** v = v * k *)
[@@deriving show { with_path = false }, eq]

type classification =
  | Induction of giv_kind
  | Reduction of { op : red_op; sites : int }
      (** [sites] accumulation statements, all with operator [op] *)
  | Privatizable of { live_out : bool }
  | Shared_dep
[@@deriving show { with_path = false }, eq]

(* ------------------------------------------------------------------ *)
(* Pattern recognition on single statements                            *)
(* ------------------------------------------------------------------ *)

(** Is [s] the accumulation [v = v op e] (either operand order; [v - e]
    read as [v + (-e)])?  Returns the operator and [e].  An [e] that
    reads [v] makes no accumulation: reordering the steps of
    [s = s + a(i)*s] would change its result.  The census, the
    recurrence and GIV matchers and the OpenMP merge all build on this. *)
let reduction_form v (s : Ast.stmt) : (red_op * Ast.expr) option =
  let form =
    match s with
    | Ast.Assign (Ast.LVar x, rhs) when x = v -> (
        let minmax f e =
          match String.lowercase_ascii f with
          | "min" -> Some (Rmin, e)
          | "max" -> Some (Rmax, e)
          | _ -> None
        in
        match rhs with
        | Ast.Bin (Ast.Add, Ast.Var y, e) when y = v -> Some (Rsum, e)
        | Ast.Bin (Ast.Add, e, Ast.Var y) when y = v -> Some (Rsum, e)
        | Ast.Bin (Ast.Sub, Ast.Var y, e) when y = v ->
            Some (Rsum, Ast.Un (Ast.Neg, e))
        | Ast.Bin (Ast.Mul, Ast.Var y, e) when y = v -> Some (Rprod, e)
        | Ast.Bin (Ast.Mul, e, Ast.Var y) when y = v -> Some (Rprod, e)
        | Ast.Call (f, [ Ast.Var y; e ]) when y = v -> minmax f e
        | Ast.Call (f, [ e; Ast.Var y ]) when y = v -> minmax f e
        | _ -> None)
    | _ -> None
  in
  match form with
  | Some (_, e) when Ast_utils.mentions v e -> None
  | form -> form

(* ------------------------------------------------------------------ *)
(* Occurrence census                                                   *)
(* ------------------------------------------------------------------ *)

type occ = {
  mutable writes : int;  (** assignments to v *)
  mutable reduction_stmts : int;  (** assignments in reduction form *)
  mutable other_reads : int;  (** reads outside the reduction statements *)
  mutable red_ops : red_op list;
  mutable induction_updates : giv_kind list;
  mutable written_in_call : bool;
}

let census (body : Ast.stmt list) : (string, occ) Hashtbl.t =
  let tbl : (string, occ) Hashtbl.t = Hashtbl.create 16 in
  let get v =
    match Hashtbl.find_opt tbl v with
    | Some o -> o
    | None ->
        let o =
          {
            writes = 0;
            reduction_stmts = 0;
            other_reads = 0;
            red_ops = [];
            induction_updates = [];
            written_in_call = false;
          }
        in
        Hashtbl.add tbl v o;
        o
  in
  let count_reads e =
    Ast_utils.fold_expr
      (fun () e ->
        match e with
        | Ast.Var v ->
            let o = get v in
            o.other_reads <- o.other_reads + 1
        | _ -> ())
      () e
  in
  (* the body's write set, built at the first accumulation statement *)
  let invariant = lazy (Loops.is_invariant_expr body) in
  let rec stmt (s : Ast.stmt) =
    match s with
    | Ast.Assign (Ast.LVar v, rhs) -> (
        let o = get v in
        o.writes <- o.writes + 1;
        count_reads rhs;
        match reduction_form v s with
        | Some (op, operand) ->
            o.reduction_stmts <- o.reduction_stmts + 1;
            o.red_ops <- op :: o.red_ops;
            (* also record as a candidate induction update when the
               operand is loop invariant *)
            (match op with
            | Rsum when Lazy.force invariant operand ->
                o.induction_updates <- Additive operand :: o.induction_updates
            | Rprod when Lazy.force invariant operand ->
                o.induction_updates <-
                  Multiplicative operand :: o.induction_updates
            | Rsum | Rprod | Rmin | Rmax -> ());
            (* the self-read inside a reduction statement is not an
               "other read" *)
            o.other_reads <- o.other_reads - 1
        | None -> ())
    | Ast.Assign (l, rhs) ->
        (match l with
        | Ast.LIdx (_, subs) -> List.iter count_reads subs
        | Ast.LSection (_, dims) ->
            List.iter
              (function
                | Ast.Elem e -> count_reads e
                | Ast.Range (a, b, c) ->
                    List.iter (Option.iter count_reads) [ a; b; c ])
              dims
        | Ast.LVar _ -> ());
        count_reads rhs
    | Ast.If (c, t, e) ->
        count_reads c;
        List.iter stmt t;
        List.iter stmt e
    | Ast.Do (h, blk) ->
        let o = get h.index in
        o.writes <- o.writes + 1;
        count_reads h.lo;
        count_reads h.hi;
        Option.iter count_reads h.step;
        List.iter stmt blk.body
    | Ast.Where (m, b) ->
        count_reads m;
        List.iter stmt b
    | Ast.CallSt (_, args) ->
        List.iter
          (fun a ->
            match a with
            | Ast.Var v ->
                let o = get v in
                o.other_reads <- o.other_reads + 1;
                o.written_in_call <- true;
                o.writes <- o.writes + 1
            | e -> count_reads e)
          args
    | Ast.Print args -> List.iter count_reads args
    | Ast.Read ls ->
        List.iter
          (fun l ->
            match l with
            | Ast.LVar v ->
                let o = get v in
                o.writes <- o.writes + 1
            | _ -> ())
          ls
    | Ast.Labeled (_, s) -> stmt s
    | Ast.Return | Ast.Stop | Ast.Continue | Ast.Goto _ -> ()
  in
  List.iter stmt body;
  tbl

(* ------------------------------------------------------------------ *)
(* Definite definition-before-use walk (for privatization)             *)
(* ------------------------------------------------------------------ *)

(* The definite-definition walk behind [upward_exposed]: [stmt exposed
   defined s] adds to [!exposed] the names [s] reads that are not in
   [defined], and returns [defined] plus the definite definitions of [s].
   The defined set only ever grows by union, so walking from [defined]
   exposes exactly what walking from the empty set exposes, minus
   [defined]: that is what lets liveness run as one backward pass. *)
let rec stmt exposed defined (s : Ast.stmt) : SSet.t =
  let read e =
    exposed :=
      Ast_utils.fold_expr
        (fun acc e ->
          match e with
          | (Ast.Var v | Ast.Idx (v, _) | Ast.Section (v, _))
            when not (SSet.mem v defined) ->
              SSet.add v acc
          | _ -> acc)
        !exposed e
  in
  match s with
  | Ast.Assign (l, rhs) -> (
      read rhs;
      (match l with
      | Ast.LIdx (_, subs) -> List.iter read subs
      | Ast.LSection (_, dims) ->
          List.iter
            (function
              | Ast.Elem e -> read e
              | Ast.Range (a, b, c) -> List.iter (Option.iter read) [ a; b; c ])
            dims
      | Ast.LVar _ -> ());
      match l with
      | Ast.LVar v -> SSet.add v defined
      | Ast.LIdx _ | Ast.LSection _ -> defined)
  | Ast.If (c, t, e) ->
      read c;
      let dt = List.fold_left (stmt exposed) defined t in
      let de = List.fold_left (stmt exposed) defined e in
      (* only definitions on both branches are definite *)
      SSet.union defined (SSet.inter dt de)
  | Ast.Do (h, blk) ->
      read h.lo;
      read h.hi;
      Option.iter read h.step;
      let defined_in = SSet.add h.index defined in
      let _ = List.fold_left (stmt exposed) defined_in blk.body in
      (* the inner loop may run zero times: its definitions are not
         definite, but reads inside it that we recorded stand; the index
         is written *)
      SSet.add h.index defined
  | Ast.Where (m, b) ->
      read m;
      let _ = List.fold_left (stmt exposed) defined b in
      defined
  | Ast.CallSt (_, args) | Ast.Print args ->
      List.iter read args;
      defined
  | Ast.Read ls ->
      List.fold_left
        (fun d l -> match l with Ast.LVar v -> SSet.add v d | _ -> d)
        defined ls
  | Ast.Labeled (_, s) -> stmt exposed defined s
  | Ast.Return | Ast.Stop | Ast.Continue | Ast.Goto _ -> defined

(** Returns the set of scalars read before any definite write within one
    iteration of [body] (the upward-exposed scalars). *)
let upward_exposed (body : Ast.stmt list) : SSet.t =
  let exposed = ref SSet.empty in
  let _ = List.fold_left (stmt exposed) SSet.empty body in
  !exposed

(** One backward liveness step: [exposed_before s (upward_exposed rest)] is
    [upward_exposed (s :: rest)], i.e. what [s] exposes plus what [rest]
    exposes that [s] does not definitely define. *)
let exposed_before (s : Ast.stmt) (exposed_after : SSet.t) : SSet.t =
  let exposed = ref SSet.empty in
  let defs = stmt exposed SSet.empty s in
  SSet.union !exposed (SSet.diff exposed_after defs)

(* Is the LAST write to v in the body unconditional and at the top level?
   (needed for a last-value assignment) *)
let last_write_unconditional v (body : Ast.stmt list) =
  let rec last acc (s : Ast.stmt) =
    match s with
    | Ast.Assign (Ast.LVar x, _) when x = v -> Some true
    | Ast.If (_, t, e) ->
        let wt = List.fold_left last None t and we = List.fold_left last None e in
        if wt <> None || we <> None then Some false else acc
    | Ast.Do (_, blk) ->
        let w = List.fold_left last None blk.body in
        if w <> None then Some false else acc
    | Ast.Where (_, b) ->
        let w = List.fold_left last None b in
        if w <> None then Some false else acc
    | Ast.Labeled (_, s) -> last acc s
    | _ -> acc
  in
  match List.fold_left last None body with Some b -> b | None -> false

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)
(* ------------------------------------------------------------------ *)

type result = {
  classes : classification SMap.t;  (** every scalar written in the body *)
  exposed : SSet.t;
}

(** Classify the scalars of loop [index] with body [body].
    [live_after] tells which variables are read after the loop. *)
let classify ~(index : string) ~(live_after : string -> bool)
    (body : Ast.stmt list) : result =
  let tbl = census body in
  let exposed = upward_exposed body in
  let inner = Loops.inner_loops body in
  let inner_indices = List.map (fun h -> h.Ast.index) inner in
  let classes =
    Hashtbl.fold
      (fun v o acc ->
        if o.writes = 0 then acc
        else if v = index then acc (* the loop's own index *)
        else if List.mem v inner_indices then
          (* inner loop indices are trivially private *)
          SMap.add v (Privatizable { live_out = false }) acc
        else if o.written_in_call then SMap.add v Shared_dep acc
        else
          (* an induction variable is read before written and used beyond
             its own update; an update never otherwise read is better
             treated as a reduction (partial sums need no closed form) *)
          let is_induction =
            o.writes = 1
            && List.length o.induction_updates = 1
            && SSet.mem v exposed && o.other_reads > 0
          in
          let is_reduction =
            o.writes >= 1
            && o.reduction_stmts = o.writes
            && o.other_reads <= 0
            && match List.sort_uniq compare o.red_ops with
               | [ _ ] -> true
               | _ -> false
          in
          if is_induction then
            SMap.add v (Induction (List.hd o.induction_updates)) acc
          else if is_reduction then
            SMap.add v
              (Reduction { op = List.hd o.red_ops; sites = o.reduction_stmts })
              acc
          else if not (SSet.mem v exposed) then
            SMap.add v (Privatizable { live_out = live_after v }) acc
          else SMap.add v Shared_dep acc)
      tbl SMap.empty
  in
  { classes; exposed }
