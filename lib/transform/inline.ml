(** Inline subroutine expansion (paper §3.2, §4.1.1).

    The 1991 restructurer's only interprocedural mechanism.  Faithfully
    including its failure modes: inlining fails when call nesting is too
    deep, when the callee is too large (the "out of memory" behaviour),
    when arrays are reshaped across the boundary (formal and actual ranks
    differ), or when the callee contains RETURN in a non-tail position,
    GOTO, or I/O. *)

open Fortran
module SMap = Ast_utils.SMap

type failure =
  | Unknown_routine of string
  | Too_deep
  | Too_large of string
  | Reshaped of string
  | Unsupported_body of string
[@@deriving show { with_path = false }]

type limits = { max_depth : int; max_stmts : int }

let default_limits = { max_depth = 3; max_stmts = 40 }

let stmt_count u = Ast_utils.fold_stmts (fun n _ -> n + 1) 0 u.Ast.u_body

(* strip a single trailing RETURN; any other RETURN is unsupported *)
let body_without_tail_return name body =
  let rec strip_rev = function
    | [] -> []
    | Ast.Return :: rest -> strip_rev rest
    | (Ast.Labeled (_, Ast.Return)) :: rest -> strip_rev rest
    | x -> x
  in
  let body = List.rev (strip_rev (List.rev body)) in
  if Ast_utils.exists_stmt (function Ast.Return -> true | _ -> false) body then
    Error (Unsupported_body (name ^ ": non-tail RETURN"))
  else if Ast_utils.contains_goto body then
    Error (Unsupported_body (name ^ ": GOTO"))
  else Ok body

(** Substitute formal names by actual expressions in a statement list,
    renaming callee locals with fresh names. *)
let substitute ~(formal_map : Ast.expr SMap.t) ~(renames : string SMap.t) body =
  let subst_name v =
    match SMap.find_opt v renames with Some r -> r | None -> v
  in
  let rec expr (e : Ast.expr) : Ast.expr =
    match e with
    | Ast.Var v -> (
        match SMap.find_opt v formal_map with
        | Some a -> a
        | None -> Ast.Var (subst_name v))
    | Ast.Idx (a, subs) -> (
        let subs = List.map expr subs in
        match SMap.find_opt a formal_map with
        | Some (Ast.Var actual) -> Ast.Idx (actual, subs)
        | Some (Ast.Idx (actual, offs)) ->
            (* formal array anchored at actual(o1, o2, ...): the formal's
               subscripts offset the leading dimensions; the actual's
               remaining subscripts carry over (column-slice passing) *)
            let rec combine subs offs =
              match (subs, offs) with
              | [], rest -> rest
              | s :: subs', o :: offs' ->
                  Ast_utils.simplify
                    (Ast.Bin (Ast.Sub, Ast.Bin (Ast.Add, s, o), Ast.Int 1))
                  :: combine subs' offs'
              | rest, [] -> rest
            in
            Ast.Idx (actual, combine subs offs)
        | Some _ | None -> Ast.Idx (subst_name a, subs))
    | Ast.Section (a, dims) ->
        let dims =
          List.map
            (function
              | Ast.Elem e -> Ast.Elem (expr e)
              | Ast.Range (x, y, z) ->
                  Ast.Range (Option.map expr x, Option.map expr y, Option.map expr z))
            dims
        in
        Ast.Section (subst_name a, dims)
    | Ast.Call (f, args) -> Ast.Call (f, List.map expr args)
    | Ast.Bin (op, a, b) -> Ast.Bin (op, expr a, expr b)
    | Ast.Un (op, a) -> Ast.Un (op, expr a)
    | Ast.Int _ | Ast.Num _ | Ast.Str _ | Ast.Bool _ -> e
  in
  let lhs (l : Ast.lhs) : Ast.lhs =
    match l with
    | Ast.LVar v -> (
        match SMap.find_opt v formal_map with
        | Some (Ast.Var a) -> Ast.LVar a
        | Some (Ast.Idx (a, subs)) -> Ast.LIdx (a, subs)
        | Some _ | None -> Ast.LVar (subst_name v))
    | Ast.LIdx (a, subs) -> (
        match expr (Ast.Idx (a, subs)) with
        | Ast.Idx (a, subs) -> Ast.LIdx (a, subs)
        | _ -> Ast.LIdx (subst_name a, List.map expr subs))
    | Ast.LSection (a, dims) -> (
        match expr (Ast.Section (a, dims)) with
        | Ast.Section (a, dims) -> Ast.LSection (a, dims)
        | _ -> l)
  in
  let rec stmt (s : Ast.stmt) : Ast.stmt =
    match s with
    | Ast.Assign (l, e) -> Ast.Assign (lhs l, expr e)
    | Ast.If (c, t, f) -> Ast.If (expr c, List.map stmt t, List.map stmt f)
    | Ast.Do (h, b) ->
        Ast.Do
          ( {
              h with
              Ast.index = subst_name h.Ast.index;
              lo = expr h.Ast.lo;
              hi = expr h.Ast.hi;
              step = Option.map expr h.Ast.step;
            },
            {
              Ast.preamble = List.map stmt b.Ast.preamble;
              body = List.map stmt b.Ast.body;
              postamble = List.map stmt b.Ast.postamble;
            } )
    | Ast.Where (m, b) -> Ast.Where (expr m, List.map stmt b)
    | Ast.CallSt (n, args) -> Ast.CallSt (n, List.map expr args)
    | Ast.Print args -> Ast.Print (List.map expr args)
    | Ast.Read ls -> Ast.Read (List.map lhs ls)
    | Ast.Labeled (l, s) -> Ast.Labeled (l, stmt s)
    | Ast.Return | Ast.Stop | Ast.Continue | Ast.Goto _ -> s
  in
  List.map stmt body

(** Inline one call site: [call name(actuals)] with callee [callee], whose
    symbol table is [csyms].  Returns the replacement statements and the
    local declarations that must be added to the caller. *)
let inline_call ~(limits : limits) ~(depth : int) ~(csyms : Symbols.t)
    (callee : Ast.punit) (actuals : Ast.expr list) :
    (Ast.stmt list * Ast.decl list, failure) result =
  let name = callee.Ast.u_name in
  if depth > limits.max_depth then Error Too_deep
  else if stmt_count callee > limits.max_stmts then Error (Too_large name)
  else
    let formals =
      match callee.Ast.u_kind with
      | Ast.Subroutine ps -> ps
      | Ast.Function (_, ps) -> ps
      | Ast.Program -> []
    in
    if List.length formals <> List.length actuals then Error (Reshaped name)
    else
      (* reshaping check: formal arrays must match actual array rank *)
      let reshaped =
        List.exists2
          (fun f a ->
            let frank =
              match Symbols.lookup csyms f with
              | Some s -> List.length s.Symbols.s_dims
              | None -> 0
            in
            match a with
            | Ast.Var _ -> false (* whole object: accept, checked by use *)
            | Ast.Idx _ -> frank > 1 (* element-anchored reshape beyond 1-d *)
            | _ -> frank > 0)
          formals actuals
      in
      if reshaped then Error (Reshaped name)
      else
        match body_without_tail_return name callee.Ast.u_body with
        | Error e -> Error e
        | Ok body ->
            let formal_map =
              List.fold_left2
                (fun acc f a -> SMap.add f a acc)
                SMap.empty formals actuals
            in
            (* rename callee locals *)
            let locals =
              SMap.fold
                (fun v s acc ->
                  if
                    s.Symbols.s_formal
                    || s.Symbols.s_common <> None
                    || Ast.is_intrinsic v
                  then acc
                  else (v, s) :: acc)
                csyms.Symbols.syms []
            in
            let renames =
              List.fold_left
                (fun acc (v, _) ->
                  SMap.add v (Ast_utils.fresh_name (v ^ "_" ^ name)) acc)
                SMap.empty locals
            in
            let decls =
              List.map
                (fun (v, s) ->
                  {
                    Ast.d_name = SMap.find v renames;
                    d_type = s.Symbols.s_type;
                    d_dims = s.Symbols.s_dims;
                    d_vis = Ast.Default;
                  })
                locals
            in
            Ok (substitute ~formal_map ~renames body, decls)

(** Inline every call in a unit body (one level), given the program's
    units and [syms], which gives a callee's symbol table.  Returns the new
    unit — [u] itself when nothing was inlined — and the list of failures
    encountered. *)
let inline_unit ?(limits = default_limits) ~(syms : Ast.punit -> Symbols.t)
    (prog : Ast.program) (u : Ast.punit) : Ast.punit * failure list =
  let find name =
    List.find_opt
      (fun c -> String.lowercase_ascii c.Ast.u_name = String.lowercase_ascii name)
      prog
  in
  let failures = ref [] in
  let inlined = ref false in
  let new_decls = ref [] in
  let rec go depth stmts =
    List.concat_map
      (fun s ->
        match s with
        | Ast.CallSt (name, args)
          when not
                 (List.mem
                    (String.lowercase_ascii name)
                    [ "await"; "advance"; "lock"; "unlock"; "post"; "wait" ])
          -> (
            match find name with
            | None ->
                failures := Unknown_routine name :: !failures;
                [ s ]
            | Some callee -> (
                match
                  inline_call ~limits ~depth ~csyms:(syms callee) callee args
                with
                | Ok (body, decls) ->
                    inlined := true;
                    new_decls := !new_decls @ decls;
                    go (depth + 1) body
                | Error e ->
                    failures := e :: !failures;
                    [ s ]))
        | Ast.If (c, t, f) -> [ Ast.If (c, go depth t, go depth f) ]
        | Ast.Do (h, b) ->
            [ Ast.Do (h, { b with Ast.body = go depth b.Ast.body }) ]
        | Ast.Where (m, b) -> [ Ast.Where (m, go depth b) ]
        | Ast.Labeled (l, s') -> (
            match go depth [ s' ] with
            | [] -> [ Ast.Labeled (l, Ast.Continue) ]
            | first :: rest -> Ast.Labeled (l, first) :: rest)
        | s -> [ s ])
      stmts
  in
  let body = go 0 u.Ast.u_body in
  let u =
    if !inlined then
      { u with Ast.u_body = body; u_decls = u.Ast.u_decls @ !new_decls }
    else u
  in
  (u, List.rev !failures)
