(** Loop interchange (paper §3.4).

    Moving a parallel loop outward enlarges the parallel grain; the
    central coordinator tries interchanged versions of each nest.  We
    interchange a perfectly-nested pair when the inner bounds are
    invariant of the outer index and the caller has established that both
    loops are independently parallelizable (then any interleaving is
    legal, so interchange is too). *)

open Fortran
module SSet = Ast_utils.SSet

(** [Do (h1, [Do (h2, body)])] with no other statements between. *)
let perfectly_nested (s : Ast.stmt) : (Ast.do_header * Ast.do_header * Ast.stmt list) option =
  match Ast_utils.strip_labels_stmt s with
  | Ast.Do (h1, b1) -> (
      let inner =
        List.filter
          (fun s ->
            match Ast_utils.strip_labels_stmt s with
            | Ast.Continue -> false
            | _ -> true)
          b1.Ast.body
      in
      match inner with
      | [ s2 ] -> (
          match Ast_utils.strip_labels_stmt s2 with
          | Ast.Do (h2, b2) when h1.Ast.cls = Ast.Seq && h2.Ast.cls = Ast.Seq ->
              Some (h1, h2, b2.Ast.body)
          | _ -> None)
      | _ -> None)
  | _ -> None

let bounds_invariant_of (h : Ast.do_header) index =
  (not (Ast_utils.mentions index h.Ast.lo))
  && (not (Ast_utils.mentions index h.Ast.hi))
  && match h.Ast.step with
     | None -> true
     | Some s -> not (Ast_utils.mentions index s)

(** Swap the two loops of a perfect nest.  The caller guarantees legality
    (e.g. both levels carry no dependence). *)
let swap (s : Ast.stmt) : Ast.stmt option =
  match perfectly_nested s with
  | Some (h1, h2, body) when bounds_invariant_of h2 h1.Ast.index ->
      Some (Ast.Do (h2, Ast.seq_block [ Ast.Do (h1, Ast.seq_block body) ]))
  | _ -> None
