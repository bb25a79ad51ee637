(** Affine (linear) forms over program variables.

    An affine form is [c0 + Σ ci * vi] with integer coefficients.  The
    dependence tests, induction-variable substitution and run-time test
    synthesis all operate on this normal form.  Conversion fails (returns
    [None]) on non-affine expressions — products of variables, calls,
    array references in subscripts — which the dependence tester then
    treats conservatively. *)

open Fortran
module SMap = Ast_utils.SMap

type t = { const : int; coeffs : int SMap.t }

let zero = { const = 0; coeffs = SMap.empty }
let const n = { const = n; coeffs = SMap.empty }
let var v = { const = 0; coeffs = SMap.singleton v 1 }

let normalize a = { a with coeffs = SMap.filter (fun _ c -> c <> 0) a.coeffs }

let add a b =
  normalize
    {
      const = a.const + b.const;
      coeffs = SMap.union (fun _ x y -> Some (x + y)) a.coeffs b.coeffs;
    }

let neg a = { const = -a.const; coeffs = SMap.map (fun c -> -c) a.coeffs }
let sub a b = add a (neg b)
let scale k a = normalize { const = k * a.const; coeffs = SMap.map (fun c -> k * c) a.coeffs }

let is_const a = SMap.is_empty a.coeffs
let coeff v a = match SMap.find_opt v a.coeffs with Some c -> c | None -> 0
let vars a = SMap.fold (fun v _ acc -> v :: acc) a.coeffs [] |> List.rev

let equal a b = a.const = b.const && SMap.equal Int.equal a.coeffs b.coeffs

(** Convert an expression to affine form.  [env] maps variable names that
    are themselves known affine forms (e.g. substituted induction
    variables); other variables become symbolic terms. *)
let rec of_expr ?(env = SMap.empty) (e : Ast.expr) : t option =
  let open Ast in
  match e with
  | Int n -> Some (const n)
  | Var v -> (
      match SMap.find_opt v env with Some a -> Some a | None -> Some (var v))
  | Bin (Add, a, b) -> combine ~env ( add ) a b
  | Bin (Sub, a, b) -> combine ~env ( sub ) a b
  | Bin (Mul, a, b) -> (
      match (of_expr ~env a, of_expr ~env b) with
      | Some x, Some y when is_const x -> Some (scale x.const y)
      | Some x, Some y when is_const y -> Some (scale y.const x)
      | _ -> None)
  | Bin (Div, a, b) -> (
      match (of_expr ~env a, of_expr ~env b) with
      | Some x, Some y when is_const y && y.const <> 0 ->
          if
            x.const mod y.const = 0
            && SMap.for_all (fun _ c -> c mod y.const = 0) x.coeffs
          then
            Some
              {
                const = x.const / y.const;
                coeffs = SMap.map (fun c -> c / y.const) x.coeffs;
              }
          else None
      | _ -> None)
  | Un (Neg, a) -> Option.map neg (of_expr ~env a)
  | Num _ | Str _ | Bool _ | Idx _ | Section _ | Call _ | Bin _ | Un _ -> None

and combine ~env op a b =
  match (of_expr ~env a, of_expr ~env b) with
  | Some x, Some y -> Some (op x y)
  | _ -> None

(** Back to an expression. *)
let to_expr a : Ast.expr =
  let open Ast in
  let terms =
    SMap.fold
      (fun v c acc ->
        if c = 0 then acc
        else
          let t = if c = 1 then Var v else Bin (Mul, Int c, Var v) in
          t :: acc)
      a.coeffs []
    |> List.rev
  in
  let base =
    match terms with
    | [] -> Int a.const
    | t :: rest ->
        let sum = List.fold_left (fun acc t -> Bin (Add, acc, t)) t rest in
        if a.const = 0 then sum
        else if a.const > 0 then Bin (Add, sum, Int a.const)
        else Bin (Sub, sum, Int (-a.const))
  in
  Ast_utils.simplify base

let pp fmt a =
  let terms =
    (if a.const <> 0 || SMap.is_empty a.coeffs then [ string_of_int a.const ]
     else [])
    @ SMap.fold
        (fun v c acc -> Printf.sprintf "%+d*%s" c v :: acc)
        a.coeffs []
  in
  Format.fprintf fmt "%s" (String.concat " " terms)

let to_string a = Format.asprintf "%a" pp a
