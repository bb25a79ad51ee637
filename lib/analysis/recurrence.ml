(** Recognition of loops replaceable by Cedar-optimized library calls
    (paper §3.3): dot products, first-order linear recurrences
    [x(i) = x(i-1)*b(i) + c(i)], and min/max searches.

    The payoff of substitution is the library's parallel two-level
    algorithm (within clusters, then across), at the price of loop
    distribution overhead — the cost model weighs that. *)

open Fortran

type pattern =
  | Dotproduct of { acc : string; a : Ast.expr; b : Ast.expr }
      (** s = s + a(i)*b(i) *)
  | Linear_recurrence of {
      x : string;
      mul : Ast.expr option;  (** coefficient expression, None for 1 *)
      add : Ast.expr option;  (** additive term, None for 0 *)
    }  (** x(i) = x(i-1)*b(i) + c(i) *)
  | Minmax_search of { acc : string; arg : Ast.expr; is_max : bool }

let subscript_is e idx off =
  match Affine.of_expr e with
  | Some a ->
      Affine.coeff idx a = 1
      && Affine.vars a = [ idx ]
      && a.Affine.const = off
  | None -> false

(** Recognize the body of loop [idx] (a single statement) as a pattern. *)
let recognize_stmt idx (s : Ast.stmt) : pattern option =
  match s with
  | Ast.Assign (Ast.LVar acc, _) -> (
      match Scalars.reduction_form acc s with
      | Some (Scalars.Rsum, Ast.Bin (Ast.Mul, a, b)) ->
          Some (Dotproduct { acc; a; b })
      | Some (((Scalars.Rmin | Scalars.Rmax) as op), arg) ->
          Some (Minmax_search { acc; arg; is_max = op = Scalars.Rmax })
      | Some ((Scalars.Rsum | Scalars.Rprod), _) | None -> None)
  | Ast.Assign (Ast.LIdx (x, [ sub ]), rhs) when subscript_is sub idx 0 -> (
      (* x(i) = f(x(i-1), ...) *)
      let is_xm1 = function
        | Ast.Idx (x', [ s ]) -> x' = x && subscript_is s idx (-1)
        | _ -> false
      in
      match rhs with
      | Ast.Bin (Ast.Add, Ast.Bin (Ast.Mul, l, m), c) when is_xm1 l ->
          Some (Linear_recurrence { x; mul = Some m; add = Some c })
      | Ast.Bin (Ast.Add, Ast.Bin (Ast.Mul, m, l), c) when is_xm1 l ->
          Some (Linear_recurrence { x; mul = Some m; add = Some c })
      | Ast.Bin (Ast.Add, l, c) when is_xm1 l ->
          Some (Linear_recurrence { x; mul = None; add = Some c })
      | Ast.Bin (Ast.Mul, l, m) when is_xm1 l ->
          Some (Linear_recurrence { x; mul = Some m; add = None })
      | _ -> None)
  | _ -> None

(** Recognize a whole single-statement loop body. *)
let recognize idx (body : Ast.stmt list) : pattern option =
  match List.filter (function Ast.Continue | Ast.Labeled (_, Ast.Continue) -> false | _ -> true) body with
  | [ s ] -> recognize_stmt idx (Ast_utils.strip_labels_stmt s)
  | _ -> None
