(** Generalized induction variables (GIVs) and their closed forms.

    The paper (§4.1.4) distinguishes ordinary induction variables
    ([v = v + k], arithmetic progression) from two generalized kinds found
    in the Perfect codes: multiplicative updates (geometric progression,
    OCEAN) and additive updates inside triangular inner loops (TRFD).
    This module recognizes all three in a loop nest and produces closed
    forms in terms of the loop indices, plus a monotonicity fact the
    dependence tester uses to prove iterations access disjoint cells. *)

open Fortran
module SMap = Ast_utils.SMap
module SSet = Ast_utils.SSet

type closed_form = {
  g_var : string;
  g_at_use : Ast.expr;
      (** value of the variable where it is used, right after its update,
          in terms of the loop indices and the pre-loop value [v0] (spelled
          as the variable name itself, to be bound before the loop) *)
  g_final : Ast.expr;  (** value after the whole outer loop *)
  g_monotonic : bool;  (** strictly monotonic over the iteration space *)
  g_update_paths : int list list;  (** statements to delete *)
}

(* every assignment to v in the body, with its path and the loop
   structure above it *)
type update_site = {
  site_path : int list;
  site_kind : Scalars.giv_kind option;
      (** [None]: the write is no [v = v + k] or [v = v * k] update *)
  site_inner : Ast.do_header list;  (** inner loops enclosing the update *)
  site_guarded : bool;
      (** the update sits under an IF or WHERE: it does not execute every
          iteration, so no closed form exists *)
}

let find_update_sites v (body : Ast.stmt list) : update_site list =
  let sites = ref [] in
  let rec stmt inner guarded path i (s : Ast.stmt) =
    let path = i :: path in
    match s with
    | Ast.Assign (Ast.LVar x, _) when x = v ->
        let kind =
          match Scalars.reduction_form v s with
          | Some (Scalars.Rsum, k) -> Some (Scalars.Additive k)
          | Some (Scalars.Rprod, k) -> Some (Scalars.Multiplicative k)
          | Some ((Scalars.Rmin | Scalars.Rmax), _) | None -> None
        in
        sites :=
          {
            site_path = List.rev path;
            site_kind = kind;
            site_inner = List.rev inner;
            site_guarded = guarded;
          }
          :: !sites
    | Ast.If (_, t, e) ->
        List.iteri (stmt inner true path) t;
        List.iteri (stmt inner true path) e
    | Ast.Do (h, blk) -> List.iteri (stmt (h :: inner) guarded path) blk.body
    | Ast.Where (_, b) -> List.iteri (stmt inner true path) b
    | Ast.Labeled (_, s) -> stmt inner guarded (List.tl path) i s
    | _ -> ()
  in
  List.iteri (stmt [] false []) body;
  List.rev !sites

let int_const e = Ast_utils.const_eval [] e

(** Iteration-count expression of the tested loop from its header:
    number of completed iterations before index value [i] is
    [(i - lo) / step]; we only handle step 1. *)
let completed_iters (lvl : Loops.level) =
  match lvl.l_step with
  | Ast.Int 1 ->
      Ast_utils.simplify (Ast.Bin (Ast.Sub, Ast.Var lvl.l_index, lvl.l_lo))
  | _ -> Ast.Var "?" (* unused: callers reject non-unit steps *)

(** Recognize [v] as a GIV of the loop [lvl] with [body]; returns its
    closed form or [None]. *)
let recognize ~(lvl : Loops.level) v (body : Ast.stmt list) :
    closed_form option =
  if lvl.l_step <> Ast.Int 1 then None
  else
    let sites = find_update_sites v body in
    (* the step must be invariant: in particular it must not read the
       analyzed loop's own index, which never appears in the body's write
       set *)
    let invariant_step k =
      Loops.is_invariant_expr body k
      && not (Ast_utils.mentions lvl.l_index k)
    in
    match sites with
    | [
     {
       site_kind = Some (Scalars.Additive k);
       site_inner = [];
       site_path;
       site_guarded = false;
     };
    ]
      when invariant_step k ->
        (* flat additive: after the update in iteration i, v = v0 +
           k*(i - lo + 1) *)
        let iters_done =
          Ast.Bin (Ast.Add, completed_iters lvl, Ast.Int 1)
        in
        let at_use =
          Ast_utils.simplify
            (Ast.Bin (Ast.Add, Ast.Var v, Ast.Bin (Ast.Mul, k, iters_done)))
        in
        let trip =
          Ast_utils.simplify
            (Ast.Bin
               ( Ast.Add,
                 Ast.Bin (Ast.Sub, lvl.l_hi, lvl.l_lo),
                 Ast.Int 1 ))
        in
        let final =
          Ast_utils.simplify
            (Ast.Bin (Ast.Add, Ast.Var v, Ast.Bin (Ast.Mul, k, trip)))
        in
        let mono = match int_const k with Some n -> n <> 0 | None -> false in
        Some
          {
            g_var = v;
            g_at_use = at_use;
            g_final = final;
            g_monotonic = mono;
            g_update_paths = [ site_path ];
          }
    | [
     {
       site_kind = Some (Scalars.Multiplicative k);
       site_inner = [];
       site_path;
       site_guarded = false;
     };
    ]
      when invariant_step k ->
        (* geometric: after update in iteration i, v = v0 * k**(i - lo + 1) *)
        let iters_done = Ast.Bin (Ast.Add, completed_iters lvl, Ast.Int 1) in
        let at_use =
          Ast.Bin (Ast.Mul, Ast.Var v, Ast.Bin (Ast.Pow, k, iters_done))
        in
        let trip =
          Ast_utils.simplify
            (Ast.Bin
               (Ast.Add, Ast.Bin (Ast.Sub, lvl.l_hi, lvl.l_lo), Ast.Int 1))
        in
        let final =
          Ast.Bin (Ast.Mul, Ast.Var v, Ast.Bin (Ast.Pow, k, trip))
        in
        let mono =
          match int_const k with Some n -> n >= 2 | None -> false
        in
        Some
          {
            g_var = v;
            g_at_use = at_use;
            g_final = final;
            g_monotonic = mono;
            g_update_paths = [ site_path ];
          }
    | [
     {
       site_kind = Some (Scalars.Additive (Ast.Int k));
       site_inner = [ ih ];
       site_path;
       site_guarded = false;
     };
    ] -> (
        (* triangular: update inside one inner loop whose bound depends on
           the outer index, e.g. DO i / DO j = 1, i / v = v + 1.
           After the update at (i, j):
             v = v0 + k * (sum of inner trips for outer 1..i-1) + k*j' where
           j' = j - jlo + 1. We require jlo = 1 and the inner bound to be
           affine in i: j = 1, a*i + b. *)
        match (lvl.l_lo, ih.Ast.lo, ih.Ast.step) with
        | Ast.Int 1, Ast.Int 1, (None | Some (Ast.Int 1)) -> (
            match Affine.of_expr ih.Ast.hi with
            | Some aff
              when Affine.vars aff = [ lvl.l_index ]
                   || Affine.is_const aff -> (
                let a = Affine.coeff lvl.l_index aff in
                let b = aff.Affine.const in
                (* completed inner trips for outer index values 1..i-1:
                   sum_{t=1}^{i-1} (a*t + b)
                     = a*(i-1)*i/2 + b*(i-1) *)
                let i = Ast.Var lvl.l_index in
                let im1 = Ast.Bin (Ast.Sub, i, Ast.Int 1) in
                let tri =
                  Ast.Bin
                    ( Ast.Div,
                      Ast.Bin (Ast.Mul, im1, i),
                      Ast.Int 2 )
                in
                let before_outer =
                  Ast_utils.simplify
                    (Ast.Bin
                       ( Ast.Add,
                         Ast.Bin (Ast.Mul, Ast.Int a, tri),
                         Ast.Bin (Ast.Mul, Ast.Int b, im1) ))
                in
                let j = Ast.Var ih.Ast.index in
                let at_use =
                  Ast_utils.simplify
                    (Ast.Bin
                       ( Ast.Add,
                         Ast.Var v,
                         Ast.Bin
                           ( Ast.Mul,
                             Ast.Int k,
                             Ast.Bin (Ast.Add, before_outer, j) ) ))
                in
                (* final value: all outer iterations done: substitute hi+1 *)
                let n1 = Ast.Bin (Ast.Add, lvl.l_hi, Ast.Int 1) in
                let total =
                  Ast.Bin
                    ( Ast.Add,
                      Ast.Bin
                        ( Ast.Mul,
                          Ast.Int a,
                          Ast.Bin
                            ( Ast.Div,
                              Ast.Bin (Ast.Mul, lvl.l_hi, n1),
                              Ast.Int 2 ) ),
                      Ast.Bin (Ast.Mul, Ast.Int b, lvl.l_hi) )
                in
                let final =
                  Ast_utils.simplify
                    (Ast.Bin
                       (Ast.Add, Ast.Var v, Ast.Bin (Ast.Mul, Ast.Int k, total)))
                in
                match a >= 0 && k <> 0 with
                | true ->
                    Some
                      {
                        g_var = v;
                        g_at_use = at_use;
                        g_final = final;
                        g_monotonic = true;
                        g_update_paths = [ site_path ];
                      }
                | false -> None)
            | _ -> None)
        | _ -> None)
    | _ -> None
