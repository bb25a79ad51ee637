(** Vectorization of an innermost loop into fortran90-style vector
    statements, and the strip-local variant used by stripmining.

    A loop [DO i = lo, hi] whose body is a sequence of assignments (and
    IF-converted WHERE blocks) vectorizes when every array subscript is
    affine in [i] with coefficient 0 or 1 and there is no carried
    dependence (the caller has established that).  Each assignment becomes
    a vector-section assignment over [i = lo..hi]; scalars defined in the
    body must have been expanded by the caller. *)

open Fortran
module SSet = Ast_utils.SSet

type failure =
  | Non_assign_stmt
  | Non_unit_stride of string
  | Scalar_write of string  (** needs scalar expansion first *)
  | User_call of string  (** only intrinsics apply elementwise *)

exception Fail of failure

let failure_to_string = function
  | Non_assign_stmt -> "body contains a non-assignment statement"
  | Non_unit_stride a -> Printf.sprintf "array %s has non-unit stride" a
  | Scalar_write v -> Printf.sprintf "scalar %s assigned in body" v
  | User_call f -> Printf.sprintf "call to %s cannot vectorize" f

(** Rewrite an expression over scalar index [i] into its vector form over
    the range [lo..hi]: array references indexed affinely by [i] with unit
    coefficient become sections; [i]-invariant parts stay scalar.
    [expanded] maps scalar names to their expansion arrays, which are
    sectioned over [exp_range] (e.g. [1:i3] inside a strip). *)
let rec vector_expr ~index ~lo ~hi ?(exp_range = None)
    ~(expanded : (string * string) list) (e : Ast.expr) : Ast.expr =
  let ve = vector_expr ~index ~lo ~hi ~exp_range ~expanded in
  match e with
  | Ast.Var v -> (
      match List.assoc_opt v expanded with
      | Some arr ->
          let elo, ehi =
            match exp_range with Some r -> r | None -> (lo, hi)
          in
          Ast.Section (arr, [ Ast.Range (Some elo, Some ehi, None) ])
      | None ->
          if v = index then
            (* a bare index used as a value becomes an index vector *)
            Ast.Call ("cedar_iota", [ lo; hi ])
          else e)
  | Ast.Idx (a, subs) ->
      (* a diagonal access a(i, i) is stride leading-dim+1: a section
         cannot express it *)
      let index_dims =
        List.length
          (List.filter (Ast_utils.mentions index) subs)
      in
      if index_dims > 1 then raise (Fail (Non_unit_stride a));
      let dims =
        List.map
          (fun sub ->
            match Ast_utils.index_coeff index sub with
            | Some 1 ->
                let base = Ast_utils.subst_var index lo sub in
                let top = Ast_utils.subst_var index hi sub in
                Ast.Range
                  ( Some (Ast_utils.simplify base),
                    Some (Ast_utils.simplify top),
                    None )
            | Some 0 -> Ast.Elem sub
            | Some _ | None -> raise (Fail (Non_unit_stride a)))
          subs
      in
      if List.exists (function Ast.Range _ -> true | _ -> false) dims then
        Ast.Section (a, dims)
      else Ast.Idx (a, subs)
  | Ast.Call (f, args) ->
      (* a user function applied to index-dependent operands is not
         elementwise; intrinsics are *)
      if
        (not (Ast.is_intrinsic f))
        && List.exists (Ast_utils.mentions index) args
      then raise (Fail (User_call f));
      Ast.Call (f, List.map ve args)
  | Ast.Bin (op, a, b) -> Ast.Bin (op, ve a, ve b)
  | Ast.Un (op, a) -> Ast.Un (op, ve a)
  | Ast.Int _ | Ast.Num _ | Ast.Str _ | Ast.Bool _ | Ast.Section _ -> e

let vector_lhs ~index ~lo ~hi ?(exp_range = None) ~expanded (l : Ast.lhs) :
    Ast.lhs =
  match l with
  | Ast.LVar v -> (
      match List.assoc_opt v expanded with
      | Some arr ->
          let elo, ehi =
            match exp_range with Some r -> r | None -> (lo, hi)
          in
          Ast.LSection (arr, [ Ast.Range (Some elo, Some ehi, None) ])
      | None -> raise (Fail (Scalar_write v)))
  | Ast.LIdx (a, subs) -> (
      match vector_expr ~index ~lo ~hi ~exp_range ~expanded (Ast.Idx (a, subs)) with
      | Ast.Section (a, dims) -> Ast.LSection (a, dims)
      | Ast.Idx (a, subs) -> Ast.LIdx (a, subs)
      | _ -> assert false)
  | Ast.LSection _ -> l

(** Vectorize the body statements of loop [index] over [lo..hi]. *)
let rec vector_stmts ~index ~lo ~hi ?(exp_range = None) ~expanded
    (body : Ast.stmt list) : Ast.stmt list =
  List.map
    (fun s ->
      match Ast_utils.strip_labels_stmt s with
      | Ast.Assign (l, rhs) ->
          Ast.Assign
            ( vector_lhs ~index ~lo ~hi ~exp_range ~expanded l,
              vector_expr ~index ~lo ~hi ~exp_range ~expanded rhs )
      | Ast.If (c, t, []) ->
          if Ast_utils.mentions index c then
            (* IF-to-WHERE conversion *)
            Ast.Where
              ( vector_expr ~index ~lo ~hi ~exp_range ~expanded c,
                vector_stmts ~index ~lo ~hi ~exp_range ~expanded t )
          else
            (* an index-invariant guard hoists: same decision for the
               whole strip *)
            Ast.If
              (c, vector_stmts ~index ~lo ~hi ~exp_range ~expanded t, [])
      | Ast.Where (m, b) ->
          Ast.Where
            ( vector_expr ~index ~lo ~hi ~exp_range ~expanded m,
              vector_stmts ~index ~lo ~hi ~exp_range ~expanded b )
      | Ast.Continue -> Ast.Continue
      | _ -> raise (Fail Non_assign_stmt))
    body
  |> List.filter (function Ast.Continue -> false | _ -> true)

(** Can the loop body be vectorized at all (statement shapes only; the
    dependence side is the caller's burden)? *)
let vectorizable_shape (body : Ast.stmt list) =
  List.for_all
    (fun s ->
      match Ast_utils.strip_labels_stmt s with
      | Ast.Assign _ | Ast.Continue -> true
      | Ast.If (_, t, []) ->
          List.for_all
            (fun s ->
              match Ast_utils.strip_labels_stmt s with
              | Ast.Assign _ -> true
              | _ -> false)
            t
      | _ -> false)
    body

(** Whole-loop vectorization: [DO i] body becomes a statement list of
    vector assignments (no loop).  Returns [None] when not vectorizable. *)
let vectorize_loop (h : Ast.do_header) (body : Ast.stmt list) :
    Ast.stmt list option =
  if h.Ast.step <> None && h.Ast.step <> Some (Ast.Int 1) then None
  else if not (vectorizable_shape body) then None
  else
    try Some (vector_stmts ~index:h.Ast.index ~lo:h.Ast.lo ~hi:h.Ast.hi ~expanded:[] body)
    with Fail _ -> None
