(** Generalized induction-variable substitution (paper §4.1.4).

    Once {!Analysis.Giv} has a closed form, the recursive update statement
    is deleted, uses are replaced by the closed form (in terms of the loop
    indices and the pre-loop value), and the final value is assigned after
    the loop.  We require every use to appear lexically at-or-after the
    update within the body, which holds for the TRFD/OCEAN patterns; the
    transform refuses otherwise. *)

open Fortran
open Analysis

let is_update_of v s =
  Scalars.reduction_form v (Ast_utils.strip_labels_stmt s) <> None

(* check order: no read of v before its update in the body walk *)
let uses_follow_update v body =
  let seen_update = ref false in
  let ok = ref true in
  let check_expr e =
    if (not !seen_update) && Ast_utils.mentions v e then
      ok := false
  in
  let rec stmt s =
    match Ast_utils.strip_labels_stmt s with
    | Ast.Assign (l, e) ->
        if is_update_of v s then seen_update := true
        else begin
          check_expr e;
          match l with
          | Ast.LIdx (_, subs) -> List.iter check_expr subs
          | _ -> ()
        end
    | Ast.If (c, t, f) ->
        check_expr c;
        List.iter stmt t;
        List.iter stmt f
    | Ast.Do (h, blk) ->
        check_expr h.Ast.lo;
        check_expr h.Ast.hi;
        List.iter stmt blk.Ast.body
    | Ast.Where (m, b) ->
        check_expr m;
        List.iter stmt b
    | Ast.CallSt (_, args) | Ast.Print args -> List.iter check_expr args
    | _ -> ()
  in
  List.iter stmt body;
  !ok

(** Substitute GIV [cf] away in loop [h]/[blk].  Returns
    [(transformed loop, after_stmts)]: the final-value assignment to place
    after the loop.  [None] when the use pattern is unsupported. *)
let apply (cf : Giv.closed_form) (h : Ast.do_header) (blk : Ast.block) :
    (Ast.stmt * Ast.stmt list) option =
  let v = cf.Giv.g_var in
  if not (uses_follow_update v blk.Ast.body) then None
  else
    let subst_expr = Ast_utils.subst_var v cf.Giv.g_at_use in
    let rec rewrite s =
      match s with
      | _ when is_update_of v s -> []
      | Ast.Assign (l, e) ->
          let l =
            match l with
            | Ast.LVar x -> Ast.LVar x
            | Ast.LIdx (a, subs) -> Ast.LIdx (a, List.map subst_expr subs)
            | Ast.LSection (a, dims) ->
                Ast.LSection
                  ( a,
                    List.map
                      (function
                        | Ast.Elem e -> Ast.Elem (subst_expr e)
                        | Ast.Range (x, y, z) ->
                            Ast.Range
                              ( Option.map subst_expr x,
                                Option.map subst_expr y,
                                Option.map subst_expr z ))
                      dims )
          in
          [ Ast.Assign (l, subst_expr e) ]
      | Ast.If (c, t, f) ->
          [ Ast.If (subst_expr c, List.concat_map rewrite t, List.concat_map rewrite f) ]
      | Ast.Do (hd, b) ->
          [
            Ast.Do
              ( {
                  hd with
                  Ast.lo = subst_expr hd.Ast.lo;
                  hi = subst_expr hd.Ast.hi;
                  step = Option.map subst_expr hd.Ast.step;
                },
                { b with Ast.body = List.concat_map rewrite b.Ast.body } );
          ]
      | Ast.Where (m, b) -> [ Ast.Where (subst_expr m, List.concat_map rewrite b) ]
      | Ast.CallSt (n, args) -> [ Ast.CallSt (n, List.map subst_expr args) ]
      | Ast.Print args -> [ Ast.Print (List.map subst_expr args) ]
      | Ast.Labeled (l, s) -> (
          match rewrite s with
          | [] -> [ Ast.Labeled (l, Ast.Continue) ]
          | first :: rest -> Ast.Labeled (l, first) :: rest)
      | s -> [ s ]
    in
    let body = List.concat_map rewrite blk.Ast.body in
    let after = [ Ast.Assign (Ast.LVar v, cf.Giv.g_final) ] in
    Some (Ast.Do (h, { blk with Ast.body = body }), after)
