(** Globalization pass (paper §3.2).

    After parallel loops are formed, every variable used inside a loop
    that involves processors from different clusters (SDO/XDO classes) —
    including the loop bounds and strip variables — must be GLOBAL; data
    used only within one cluster is marked CLUSTER.  Loop-local data is
    excluded (it lives in processor/cluster-private storage already).
    Interface data (formals, COMMON) follows the user-settable default
    placement unless forced. *)

open Fortran
module SSet = Ast_utils.SSet

type placement_default = Default_global | Default_cluster

(** Names that must be global: used under any cross-cluster loop, except
    loop indices and loop-local data of any enclosing or nested loop. *)
let cross_cluster_uses (body : Ast.stmt list) : SSet.t =
  let acc = ref SSet.empty in
  (* all loop indices and loop-local names inside a statement *)
  let nested_locals stmts =
    Ast_utils.fold_stmts
      (fun acc s ->
        match s with
        | Ast.Do (h, _) ->
            List.fold_left
              (fun acc d -> SSet.add d.Ast.d_name acc)
              (SSet.add h.Ast.index acc)
              h.Ast.locals
        | _ -> acc)
      SSet.empty stmts
  in
  let rec stmt in_cross enclosing (s : Ast.stmt) =
    match s with
    | Ast.Do (h, blk) ->
        let enclosing =
          List.fold_left
            (fun acc d -> SSet.add d.Ast.d_name acc)
            (SSet.add h.Ast.index enclosing)
            h.Ast.locals
        in
        let cross =
          in_cross
          ||
          match h.Ast.cls with
          | Ast.Sdoall | Ast.Xdoall | Ast.Sdoacross | Ast.Xdoacross -> true
          | Ast.Seq | Ast.Cdoall | Ast.Cdoacross -> false
        in
        if cross then begin
          let used = Ast_utils.names_of [ s ] in
          let hidden = SSet.union enclosing (nested_locals [ s ]) in
          acc := SSet.union !acc (SSet.diff used hidden)
        end;
        List.iter (stmt cross enclosing) blk.Ast.preamble;
        List.iter (stmt cross enclosing) blk.Ast.body;
        List.iter (stmt cross enclosing) blk.Ast.postamble
    | Ast.If (_, t, e) ->
        List.iter (stmt in_cross enclosing) t;
        List.iter (stmt in_cross enclosing) e
    | Ast.Where (_, b) -> List.iter (stmt in_cross enclosing) b
    | Ast.Labeled (_, s) -> stmt in_cross enclosing s
    | _ -> ()
  in
  List.iter (stmt false SSet.empty) body;
  !acc

(** Rewrite a unit's declarations with visibility markings.  [syms] is
    the unit's table from before its body was transformed: the passes
    between inlining and globalization change only the body, so a name
    they introduced gets the entry [Symbols.of_unit] would give it (its
    implicit type; PARAMETERs and intrinsics have none).  [default]
    applies to interface data not otherwise forced. *)
let apply ?(default = Default_cluster) ~(syms : Symbols.t) (u : Ast.punit) :
    Ast.punit =
  let must_global = cross_cluster_uses u.Ast.u_body in
  let vis_of name (sym : Symbols.sym) =
    if sym.Symbols.s_vis <> Ast.Default then sym.Symbols.s_vis
    else if SSet.mem name must_global then Ast.Global
    else if sym.Symbols.s_process_common then Ast.Global
    else if
      (sym.Symbols.s_formal || sym.Symbols.s_common <> None)
      && default = Default_global
    then Ast.Global
    else Ast.Cluster
  in
  (* update existing decls; add visibility-only decls for names that have
     none but need global placement *)
  let declared = SSet.of_list (List.map (fun d -> d.Ast.d_name) u.Ast.u_decls) in
  let decls =
    List.concat_map
      (fun d ->
        match Symbols.lookup syms d.Ast.d_name with
        | Some sym ->
            let marked = { d with Ast.d_vis = vis_of d.Ast.d_name sym } in
            (* a marked REAL scalar record reads as a bare GLOBAL/CLUSTER
               line, which types the name by the implicit rule: where that
               rule does not say REAL, keep the record and mark the
               visibility on a record of its own *)
            if
              d.Ast.d_vis = Ast.Default && Ast.visibility_only marked
              && Symbols.implicit_type d.Ast.d_name <> Ast.Real
            then [ d; marked ]
            else [ marked ]
        | None -> [ d ])
      u.Ast.u_decls
  in
  let global name d_type d_dims =
    { Ast.d_name = name; d_type; d_dims; d_vis = Ast.Global }
  in
  let extra =
    SSet.fold
      (fun name acc ->
        if SSet.mem name declared then acc
        else
          match Symbols.lookup syms name with
          | Some sym -> global name sym.Symbols.s_type sym.Symbols.s_dims :: acc
          | None
            when List.mem_assoc name u.Ast.u_params || Ast.is_intrinsic name ->
              acc
          | None -> global name (Symbols.implicit_type name) [] :: acc)
      must_global []
  in
  { u with Ast.u_decls = decls @ List.rev extra }
