(** Array-element and multi-statement reduction recognition (paper §4.1.3).

    The 1991 restructurer handled only [sum = sum + a(i)]; the hand
    analysis found loops with {i multiple} accumulation statements whose
    accumulation locations are {i array elements}:

    {v
      DO i ... DO j ...
        a(j) = a(j) + e1
        a(j) = a(j) + e2
    v}

    Recognizing these enables the parallel-reduction transformation for
    BDNA, DYFESM, MDG, MG3D and SPEC77.  An array [a] is a reduction
    array for a loop when every access to it in the body is an
    accumulation [a(s) = a(s) op e] with one operator, and neither [e] nor
    any subscript reads [a]. *)

open Fortran
module SSet = Ast_utils.SSet

type array_reduction = {
  ar_array : string;
  ar_op : Scalars.red_op;
  ar_sites : int;  (** number of accumulation statements *)
}

(** Is statement [s] of the form [a(subs) = a(subs) op e1 op e2 ...]?
    The additive case looks down the whole left-associated +/- spine, so
    [a(k) = a(k) + x + y] is recognized. *)
let accum_form (s : Ast.stmt) : (string * Ast.expr list * Scalars.red_op * Ast.expr) option =
  match s with
  | Ast.Assign (Ast.LIdx (a, subs), rhs) -> (
      let same = function
        | Ast.Idx (x, subs') ->
            x = a
            && List.length subs = List.length subs'
            && List.for_all2 Ast.equal_expr subs subs'
        | _ -> false
      in
      (* additive spine: split rhs into (self-term?, other terms sum) *)
      let rec split_add (e : Ast.expr) : Ast.expr option * Ast.expr option =
        match e with
        | _ when same e -> (Some e, None)
        | Ast.Bin (Ast.Add, l, r) -> (
            match split_add l with
            | Some self, rest ->
                ( Some self,
                  Some
                    (match rest with
                    | None -> r
                    | Some rest -> Ast.Bin (Ast.Add, rest, r)) )
            | None, _ -> (
                match split_add r with
                | Some self, rest ->
                    ( Some self,
                      Some
                        (match rest with
                        | None -> l
                        | Some rest -> Ast.Bin (Ast.Add, l, rest)) )
                | None, _ -> (None, Some e)))
        | Ast.Bin (Ast.Sub, l, r) -> (
            match split_add l with
            | Some self, rest ->
                ( Some self,
                  Some
                    (match rest with
                    | None -> Ast.Un (Ast.Neg, r)
                    | Some rest -> Ast.Bin (Ast.Sub, rest, r)) )
            | None, _ -> (None, Some e))
        | e -> (None, Some e)
      in
      match split_add rhs with
      | Some _, Some others -> Some (a, subs, Scalars.Rsum, others)
      | _ -> (
          match rhs with
          | Ast.Bin (Ast.Mul, l, e) when same l -> Some (a, subs, Scalars.Rprod, e)
          | Ast.Bin (Ast.Mul, e, r) when same r -> Some (a, subs, Scalars.Rprod, e)
          | Ast.Call (f, [ l; e ])
            when String.lowercase_ascii f = "min" && same l ->
              Some (a, subs, Scalars.Rmin, e)
          | Ast.Call (f, [ l; e ])
            when String.lowercase_ascii f = "max" && same l ->
              Some (a, subs, Scalars.Rmax, e)
          | _ -> None))
  | _ -> None

(** Census of array [a]'s accesses within a body: are they all accumulation
    statements with a single operator? *)
let recognize a (body : Ast.stmt list) : array_reduction option =
  let ok = ref true in
  let ops = ref [] in
  let sites = ref 0 in
  let check_expr_free e =
    if Ast_utils.mentions a e then ok := false
  in
  let rec stmt (s : Ast.stmt) =
    match s with
    | Ast.Assign (l, rhs) -> (
        match accum_form s with
        | Some (x, subs, op, e) when x = a ->
            incr sites;
            ops := op :: !ops;
            List.iter check_expr_free subs;
            check_expr_free e
        | _ ->
            (match l with
            | Ast.LIdx (x, _) | Ast.LSection (x, _) ->
                if x = a then ok := false
            | Ast.LVar _ -> ());
            check_expr_free rhs;
            (match l with
            | Ast.LIdx (_, subs) -> List.iter check_expr_free subs
            | _ -> ()))
    | Ast.If (c, t, e) ->
        check_expr_free c;
        List.iter stmt t;
        List.iter stmt e
    | Ast.Do (h, blk) ->
        check_expr_free h.lo;
        check_expr_free h.hi;
        Option.iter check_expr_free h.step;
        List.iter stmt blk.body
    | Ast.Where (m, b) ->
        check_expr_free m;
        List.iter stmt b
    | Ast.CallSt (_, args) -> List.iter check_expr_free args
    | Ast.Print args -> List.iter check_expr_free args
    | Ast.Read ls ->
        List.iter
          (function
            | Ast.LVar _ -> ()
            | Ast.LIdx (x, _) | Ast.LSection (x, _) ->
                if x = a then ok := false)
          ls
    | Ast.Labeled (_, s) -> stmt s
    | Ast.Return | Ast.Stop | Ast.Continue | Ast.Goto _ -> ()
  in
  List.iter stmt body;
  if (not !ok) || !sites = 0 then None
  else
    match List.sort_uniq compare !ops with
    | [ op ] -> Some { ar_array = a; ar_op = op; ar_sites = !sites }
    | _ -> None
