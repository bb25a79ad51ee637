(** Library-call substitution for recognized recurrences (paper §3.3).

    Dot products, first-order linear recurrences and min/max searches are
    replaced by calls into the Cedar-optimized runtime library, whose
    two-level (within-cluster, then cross-cluster) algorithms the
    simulator's runtime implements:

    - [cedar_dotp(x, y, lo, hi)] — parallel dot product (function)
    - [cedar_slr1(x, b, c, lo, hi)] — x(i) = x(i-1)*b(i) + c(i)
    - [cedar_maxval(x, lo, hi)] / [cedar_minval] — searches

    Substitution requires the operand shapes to be plain vector accesses
    [a(i)] of the loop index. *)

open Fortran
open Analysis

let simple_vec idx e =
  match e with
  | Ast.Idx (a, [ Ast.Var i ]) when i = idx -> Some a
  | _ -> None

(** Vector-intrinsic substitution for reduction loops that run {i inside}
    an already-parallel context, where the cross-machine library routine
    would be wrong: use the Cedar Fortran vector reduction intrinsics
    (paper §2.1) instead —
    [DO j: s = s + a(i,j)*p(j)]  ⇒  [s = s + dotproduct(a(i,1:n), p(1:n))].
    Returns [None] when the operands do not vectorize. *)
let vector_reduce (h : Ast.do_header) (body : Ast.stmt list) :
    Ast.stmt list option =
  let idx = h.Ast.index in
  let vec e =
    try
      Some
        (Vectorize.vector_expr ~index:idx ~lo:h.Ast.lo ~hi:h.Ast.hi ~expanded:[]
           e)
    with Vectorize.Fail _ -> None
  in
  if h.Ast.step <> None && h.Ast.step <> Some (Ast.Int 1) then None
  else
    match Recurrence.recognize idx body with
    | Some (Recurrence.Dotproduct { acc; a; b }) -> (
        match (vec a, vec b) with
        | Some va, Some vb when va <> a && vb <> b ->
            Some
              [
                Ast.Assign
                  ( Ast.LVar acc,
                    Ast.Bin
                      (Ast.Add, Ast.Var acc, Ast.Call ("dotproduct", [ va; vb ]))
                  );
              ]
        | _ -> None)
    | Some (Recurrence.Minmax_search { acc; arg; is_max }) -> (
        match vec arg with
        | Some va when va <> arg ->
            let f = if is_max then "maxval" else "minval" in
            let op = if is_max then "max" else "min" in
            Some
              [
                Ast.Assign
                  ( Ast.LVar acc,
                    Ast.Call (op, [ Ast.Var acc; Ast.Call (f, [ va ]) ]) );
              ]
        | _ -> None)
    | _ -> (
        (* max/min search with index bookkeeping (GAUSSJ's pivot search):
           DO l: IF (e(l) .ge. big) THEN big = e(l); idx = <invariant>
           becomes
           t = maxval(e(lo:hi)); IF (t .ge. big) THEN big = t; idx = ... *)
        match List.map Ast_utils.strip_labels_stmt body with
        | [ Ast.If (Ast.Bin (((Ast.Ge | Ast.Gt) as rel), e, Ast.Var acc), updates, []) ]
          when (match updates with
               | Ast.Assign (Ast.LVar acc', e') :: rest ->
                   acc' = acc && Ast.equal_expr e' e
                   && List.for_all
                        (fun s ->
                          match s with
                          | Ast.Assign (Ast.LVar _, v) ->
                              not (Ast_utils.mentions idx v)
                          | _ -> false)
                        rest
               | _ -> false)
               && not (Ast_utils.mentions acc e) -> (
            match vec e with
            | Some ve when ve <> e ->
                let t = Ast_utils.fresh_name "mx_" in
                let rest_updates = List.tl updates in
                Some
                  [
                    Ast.Assign (Ast.LVar t, Ast.Call ("maxval", [ ve ]));
                    Ast.If
                      ( Ast.Bin (rel, Ast.Var t, Ast.Var acc),
                        Ast.Assign (Ast.LVar acc, Ast.Var t) :: rest_updates,
                        [] );
                  ]
            | _ -> None)
        (* plain sum loop: s = s + e  or  s = s - e *)
        | [ (Ast.Assign (Ast.LVar acc, _) as s) ] -> (
            let sum op e =
              match vec e with
              | Some ve when ve <> e ->
                  Some
                    [
                      Ast.Assign
                        ( Ast.LVar acc,
                          Ast.Bin (op, Ast.Var acc, Ast.Call ("sum", [ ve ])) );
                    ]
              | _ -> None
            in
            match Scalars.reduction_form acc s with
            | Some (Scalars.Rsum, Ast.Un (Ast.Neg, e)) -> sum Ast.Sub e
            | Some (Scalars.Rsum, e) -> sum Ast.Add e
            | _ -> None)
        | _ -> None)

(** Try to replace loop [h]/[body] by library calls.  Returns the
    recognized pattern and the replacement statements. *)
let apply (h : Ast.do_header) (body : Ast.stmt list) :
    (Recurrence.pattern * Ast.stmt list) option =
  let idx = h.Ast.index in
  let lower = function
    | Recurrence.Dotproduct { acc; a; b } -> (
        match (simple_vec idx a, simple_vec idx b) with
        | Some x, Some y ->
            Some
              [
                Ast.Assign
                  ( Ast.LVar acc,
                    Ast.Bin
                      ( Ast.Add,
                        Ast.Var acc,
                        Ast.Call
                          ( "cedar_dotp",
                            [ Ast.Var x; Ast.Var y; h.Ast.lo; h.Ast.hi ] ) ) );
              ]
        | _ -> None)
    | Recurrence.Linear_recurrence { x; mul; add } -> (
        let name_of o =
          match o with
          | None -> Some None
          | Some e -> (
              match simple_vec idx e with Some a -> Some (Some a) | None -> None)
        in
        match (name_of mul, name_of add) with
        | Some m, Some a ->
            let args =
              [ Ast.Var x ]
              @ (match m with Some b -> [ Ast.Var b ] | None -> [ Ast.Int 1 ])
              @ (match a with Some c -> [ Ast.Var c ] | None -> [ Ast.Int 0 ])
              @ [ h.Ast.lo; h.Ast.hi ]
            in
            Some [ Ast.CallSt ("cedar_slr1", args) ]
        | _ -> None)
    | Recurrence.Minmax_search { acc; arg; is_max } -> (
        match simple_vec idx arg with
        | Some x ->
            let f = if is_max then "cedar_maxval" else "cedar_minval" in
            let call = Ast.Call (f, [ Ast.Var x; h.Ast.lo; h.Ast.hi ]) in
            let op = if is_max then "max" else "min" in
            Some
              [ Ast.Assign (Ast.LVar acc, Ast.Call (op, [ Ast.Var acc; call ])) ]
        | None -> None)
  in
  Option.bind (Recurrence.recognize idx body) (fun p ->
      Option.map (fun stmts -> (p, stmts)) (lower p))
