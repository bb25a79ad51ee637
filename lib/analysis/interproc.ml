(** Interprocedural summary information (paper §4.1.1).

    The 1991 restructurer relied on inlining, which fails on deep call
    chains and reshaped arrays; the hand analysis instead used
    {i interprocedural summary information}: which interface variables
    (formals and COMMON members) each routine uses and defines,
    transitively through its callees.  This module computes exactly those
    summaries over a whole program, plus the call graph.

    With summaries, a loop containing CALL statements can still be
    parallelized when the callee's side effects are confined to arguments
    indexed by the loop (checked by the caller) and to no shared COMMON
    data — the condition the restructurer's driver applies. *)

open Fortran
module SSet = Ast_utils.SSet
module SMap = Ast_utils.SMap

type summary = {
  s_unit : string;
  s_formal_use : bool array;  (** per formal position: read? *)
  s_formal_def : bool array;  (** per formal position: written? *)
  s_common_use : SSet.t;  (** common/global vars read (own names) *)
  s_common_def : SSet.t;
  s_calls : string list;
  s_has_io : bool;
  s_pure : bool;  (** no common defs, no I/O, at most formal defs *)
}

type t = {
  summaries : summary SMap.t;
  tables : (Ast.punit * Symbols.t) list;
      (** each analysed unit with the symbol table built for it *)
}

let find t name = SMap.find_opt (String.lowercase_ascii name) t.summaries

(* collect direct per-unit facts from the body's one walk *)
let direct_summary (u : Ast.punit) (syms : Symbols.t)
    (facts : Ast_utils.body_facts) : summary =
  let formals =
    match u.u_kind with
    | Ast.Program -> []
    | Ast.Subroutine ps | Ast.Function (_, ps) -> ps
  in
  let nf = List.length formals in
  let commons =
    SMap.fold
      (fun name s acc ->
        if s.Symbols.s_common <> None || s.Symbols.s_vis = Ast.Global then
          SSet.add name acc
        else acc)
      syms.Symbols.syms SSet.empty
  in
  let reads = facts.Ast_utils.reads and writes = facts.Ast_utils.writes in
  let fuse = Array.make nf false and fdef = Array.make nf false in
  List.iteri
    (fun i f ->
      if SSet.mem f reads then fuse.(i) <- true;
      if SSet.mem f writes then fdef.(i) <- true)
    formals;
  {
    s_unit = String.lowercase_ascii u.u_name;
    s_formal_use = fuse;
    s_formal_def = fdef;
    s_common_use = SSet.inter reads commons;
    s_common_def = SSet.inter writes commons;
    s_calls = List.map String.lowercase_ascii facts.Ast_utils.calls;
    s_has_io = facts.Ast_utils.io;
    s_pure = false;
  }

(** Compute transitively-closed summaries for a whole program.
    Callee effects through arguments are folded conservatively: if a
    callee may define any formal, each array/variable actual passed to it
    is considered defined (the caller-side refinement happens in the
    restructurer using positions). *)
let analyze (prog : Ast.program) : t =
  (* one walk per unit body: its table is built from reads ∪ writes,
     which is the [names_of] that [Symbols.of_unit] would walk for *)
  let direct, tables =
    List.fold_left
      (fun (acc, tables) u ->
        let facts = Ast_utils.body_facts u.Ast.u_body in
        let syms =
          Symbols.of_decls u
            ~used:(SSet.union facts.Ast_utils.reads facts.Ast_utils.writes)
        in
        let s = direct_summary u syms facts in
        (SMap.add s.s_unit s acc, (u, syms) :: tables))
      (SMap.empty, []) prog
  in
  let tables = List.rev tables in
  (* fixpoint on common use/def and io through calls *)
  let tbl = ref direct in
  let changed = ref true in
  while !changed do
    changed := false;
    !tbl
    |> SMap.iter (fun name s ->
           let cu = ref s.s_common_use
           and cd = ref s.s_common_def
           and io = ref s.s_has_io in
           List.iter
             (fun callee ->
               match SMap.find_opt callee !tbl with
               | Some cs ->
                   cu := SSet.union !cu cs.s_common_use;
                   cd := SSet.union !cd cs.s_common_def;
                   io := !io || cs.s_has_io
               | None -> ())
             s.s_calls;
           if
             (not (SSet.equal !cu s.s_common_use))
             || (not (SSet.equal !cd s.s_common_def))
             || !io <> s.s_has_io
           then begin
             changed := true;
             tbl :=
               SMap.add name
                 { s with s_common_use = !cu; s_common_def = !cd; s_has_io = !io }
                 !tbl
           end)
  done;
  let tbl =
    SMap.map
      (fun s ->
        let pure = SSet.is_empty s.s_common_def && not s.s_has_io in
        { s with s_pure = pure })
      !tbl
  in
  { summaries = tbl; tables }

(** The symbol table of [u]: the one {!analyze} built, when [u] is
    (physically) one of the analysed units, so each unit's table is built
    once per program; otherwise a fresh [Symbols.of_unit u]. *)
let symbols t (u : Ast.punit) : Symbols.t =
  match List.assq_opt u t.tables with
  | Some syms -> syms
  | None -> Symbols.of_unit u

(** Conservative effect of CALL [name](args) as seen from a loop body:
    returns [(uses, defs)] over caller variable names, or [None] if the
    callee is unknown (assume worst). *)
let call_effect t name (args : Ast.expr list) : (SSet.t * SSet.t) option =
  match find t name with
  | None -> None
  | Some s ->
      if s.s_has_io then None
      else
        let base_of = function
          | Ast.Var v -> Some v
          | Ast.Idx (a, _) | Ast.Section (a, _) -> Some a
          | _ -> None
        in
        let uses = ref SSet.empty and defs = ref SSet.empty in
        List.iteri
          (fun i arg ->
            match base_of arg with
            | None -> ()
            | Some v ->
                let u = if i < Array.length s.s_formal_use then s.s_formal_use.(i) else true in
                let d = if i < Array.length s.s_formal_def then s.s_formal_def.(i) else true in
                if u then uses := SSet.add v !uses;
                if d then defs := SSet.add v !defs)
          args;
        (* common effects are in the callee's namespace; matching common
           blocks across units is approximated by name identity *)
        uses := SSet.union !uses s.s_common_use;
        defs := SSet.union !defs s.s_common_def;
        Some (!uses, !defs)
