(** Per-unit symbol information derived from declarations.

    Collects, for one program unit: types, array shapes (with PARAMETER
    constants resolved where possible), visibility, common-block and
    EQUIVALENCE membership, and formal parameters.  Used by analyses
    (dependence testing needs array bounds), by data placement, and by the
    interpreter/performance model (storage sizes, element sizes). *)

open Ast
module SMap = Ast_utils.SMap
module SSet = Ast_utils.SSet

type sym = {
  s_name : string;
  s_type : dtype;
  s_dims : (expr * expr) list;
  s_vis : visibility;
  s_common : string option;  (** common block name ("" = blank common) *)
  s_process_common : bool;
  s_formal : bool;
  s_equiv : bool;  (** appears in an EQUIVALENCE group *)
}

type t = {
  syms : sym SMap.t;
  params : (string * expr) list;
  unit_name : string;
  formals : string list;
}

let element_bytes = function
  | Integer -> 4
  | Real -> 4
  | Double -> 8
  | Logical -> 4
  | Character -> 1

let lookup t name = SMap.find_opt name t.syms

let is_array t name =
  match lookup t name with Some s -> s.s_dims <> [] | None -> false

let rank t name =
  match lookup t name with Some s -> List.length s.s_dims | None -> 0

let dtype_of t name =
  match lookup t name with Some s -> s.s_type | None -> Real

(** Dimension extents as integer constants where known: [(lo, extent)] per
    dimension; [None] extent when symbolic. *)
let extents t name =
  match lookup t name with
  | None -> []
  | Some s ->
      List.map
        (fun (lo, hi) ->
          let lo_c = Ast_utils.const_eval t.params lo in
          let hi_c = Ast_utils.const_eval t.params hi in
          match (lo_c, hi_c) with
          | Some l, Some h when h >= l -> (l, Some (h - l + 1))
          | Some l, _ -> (l, None)
          | None, _ -> (1, None))
        s.s_dims

(** Total element count when all dimensions are constant. *)
let size_elems t name =
  match lookup t name with
  | None -> None
  | Some s ->
      if s.s_dims = [] then Some 1
      else
        List.fold_left
          (fun acc (_, ext) ->
            match (acc, ext) with
            | Some a, Some e -> Some (a * e)
            | _ -> None)
          (Some 1) (extents t name)

let size_bytes t name =
  match (size_elems t name, lookup t name) with
  | Some n, Some s -> Some (n * element_bytes s.s_type)
  | _ -> None

(** Default type from the implicit rules: I-N integer, else real. *)
let implicit_type name =
  if name = "" then Real
  else
    match name.[0] with
    | 'i' | 'j' | 'k' | 'l' | 'm' | 'n' -> Integer
    | _ -> Real

(** Build the symbol table of one unit from its declarations, COMMON
    blocks, EQUIVALENCEs and formals; each name of [used] not declared
    otherwise gets implicit typing. *)
let of_decls (u : punit) ~(used : SSet.t) : t =
  let formals =
    match u.u_kind with
    | Program -> []
    | Subroutine ps | Function (_, ps) -> ps
  in
  let common_of = Hashtbl.create 8 in
  let process_common = Hashtbl.create 8 in
  List.iter
    (fun cb ->
      List.iter
        (fun v ->
          Hashtbl.replace common_of v cb.c_name;
          if cb.c_process then Hashtbl.replace process_common v ())
        cb.c_vars)
    u.u_commons;
  let equiv_vars =
    List.fold_left
      (fun acc group ->
        List.fold_left
          (fun acc (a, b) -> SSet.add a (SSet.add b acc))
          acc group)
      SSet.empty u.u_equivs
  in
  let make name ty dims vis =
    {
      s_name = name;
      s_type = ty;
      s_dims = dims;
      s_vis = vis;
      s_common = Hashtbl.find_opt common_of name;
      s_process_common = Hashtbl.mem process_common name;
      s_formal = List.mem name formals;
      s_equiv = SSet.mem name equiv_vars;
    }
  in
  (* merge multiple decl records for the same name: a bare GLOBAL/CLUSTER
     line contributes only visibility *)
  let syms =
    List.fold_left
      (fun acc d ->
        match SMap.find_opt d.d_name acc with
        | None ->
            let ty =
              (* bare visibility decl: type unknown yet, use implicit *)
              if visibility_only d then implicit_type d.d_name else d.d_type
            in
            SMap.add d.d_name (make d.d_name ty d.d_dims d.d_vis) acc
        | Some s ->
            let ty = if d.d_dims <> [] || d.d_type <> Real then d.d_type else s.s_type in
            let dims = if d.d_dims <> [] then d.d_dims else s.s_dims in
            let vis = if d.d_vis <> Default then d.d_vis else s.s_vis in
            SMap.add d.d_name { s with s_type = ty; s_dims = dims; s_vis = vis } acc)
      SMap.empty u.u_decls
  in
  (* add implicitly declared scalars used in the body *)
  let syms =
    SSet.fold
      (fun v acc ->
        if SMap.mem v acc || List.mem_assoc v u.u_params then acc
        else if Ast.is_intrinsic v then acc
        else SMap.add v (make v (implicit_type v) [] Default) acc)
      used syms
  in
  (* formals not otherwise declared *)
  let syms =
    List.fold_left
      (fun acc f ->
        if SMap.mem f acc then acc
        else SMap.add f (make f (implicit_type f) [] Default) acc)
      syms formals
  in
  { syms; params = u.u_params; unit_name = u.u_name; formals }

let of_unit (u : punit) = of_decls u ~used:(Ast_utils.names_of u.u_body)

(** Interface data of the unit: formals, commons, equivalenced vars — data
    whose usage may cross a routine boundary (the paper's placement
    default applies to these). *)
let interface_vars t =
  SMap.fold
    (fun name s acc ->
      if s.s_formal || s.s_common <> None || s.s_equiv then SSet.add name acc
      else acc)
    t.syms SSet.empty
