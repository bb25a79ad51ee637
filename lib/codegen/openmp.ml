(** OpenMP backend: lowers the restructurer's Cedar loop annotations to
    standard Fortran with OpenMP directives.

    Mapping (see README "Targets"):
    - CDOALL/SDOALL/XDOALL with no residual preamble/postamble lower to
      [!$omp parallel do] with [private(...)] for loop-locals and
      [firstprivate(...)] for locals initialized to loop-invariant values
      in the preamble (the init hoists in front of the directive).
    - Scalar reductions recognized by {!Transform.Reduction_par.recognize}
      lower to [reduction(op:var)] clauses; the partial-accumulator
      machinery is stripped and the body accumulates into the shared name.
    - CDOACROSS lowers to [!$omp parallel do ordered(1)]; [call await(c,d)]
      becomes [!$omp ordered depend(sink: i - d)] and [call advance(c)]
      becomes [!$omp ordered depend(source)].
    - [call lock(k)] / [call unlock(k)] inside a parallel region become
      [!$omp critical (lkk)] / [!$omp end critical (lkk)]; in serial
      context they are dropped (nothing to protect).
    - Loops whose preamble/postamble cannot be expressed as clauses
      (array reductions, residual block structure) demote to serial DO
      loops: preamble, loop, postamble emitted in sequence, with the
      synchronization calls stripped.
    - Loop-local declarations hoist to unit level (names are fresh per
      restructuring run, so hoisting cannot collide).
    - Cedar [process common] (one copy in global memory) is exactly an
      OpenMP common block, so it prints as plain [common]; a task-local
      plain Cedar [common] gets [!$omp threadprivate(/blk/)] when named.
      GLOBAL/CLUSTER visibility lines are dropped (shared memory).

    [lift_source] is the inverse front end used by the validator: it
    re-reads this module's own output back into the Cedar dialect so the
    existing parser and static checks run unchanged on OpenMP output. *)

open Fortran
open Ast
module R = Transform.Reduction_par
module U = Ast_utils
module E = Fortran.Emit

let expr_str = E.expr_str
let lhs_str = E.lhs_str
let decl_line = E.decl_line
let emit_line = E.emit_line
let dir buf indent text = emit_line buf indent ("!$omp " ^ text)

type ctx = {
  in_par : bool;  (** inside some enclosing parallel region *)
  ordered : string option;  (** innermost ordered doacross index *)
  hoist : decl list ref;  (** loop-locals hoisted to unit level *)
}

(* indices of sequential DO loops nested in [stmts]; each thread of an
   enclosing parallel loop needs its own copy *)
let rec seq_indices acc stmts =
  List.fold_left
    (fun acc st ->
      match st with
      | Do (h, b) when h.cls = Seq ->
          let acc = h.index :: acc in
          seq_indices (seq_indices (seq_indices acc b.preamble) b.body) b.postamble
      | Do (_, _) -> acc (* nested parallel loops carry their own directive *)
      | If (_, t, e) -> seq_indices (seq_indices acc t) e
      | Where (_, b) -> seq_indices acc b
      | Labeled (_, s) -> seq_indices acc [ s ]
      | _ -> acc)
    acc stmts

let rec dedup = function
  | [] -> []
  | x :: rest -> if List.mem x rest then dedup rest else x :: dedup rest

(* When the whole preamble is [local = loop-invariant-expr] inits, each
   becomes a hoisted assignment plus a firstprivate clause. *)
let fp_split index (locals : decl list) preamble =
  let lnames = List.map (fun d -> d.d_name) locals in
  let rec go fps = function
    | [] -> Some (List.rev fps)
    | Assign (LVar p, e) :: rest
      when List.mem p lnames
           && (not (List.mem_assoc p fps))
           &&
           let vs = U.expr_vars e in
           (not (U.SSet.mem index vs))
           && not (List.exists (fun l -> U.SSet.mem l vs) lnames) ->
        go ((p, e) :: fps) rest
    | _ -> None
  in
  go [] preamble

let critical_name args =
  match args with [ Int k ] -> Printf.sprintf " (lk%d)" k | _ -> ""

let do_line h =
  let step = match h.step with None -> "" | Some s -> ", " ^ expr_str s in
  Printf.sprintf "DO %s = %s, %s%s" h.index (expr_str h.lo) (expr_str h.hi) step

let mapped_call = [ "lock"; "unlock"; "await"; "advance" ]

let rec emit_stmt ctx buf indent = function
  | Assign (l, e) -> emit_line buf indent (lhs_str l ^ " = " ^ expr_str e)
  | If (c, [ s ], [])
    when match s with
         | Assign _ | Goto _ | Return | Stop -> true
         | CallSt (n, _) -> not (List.mem n mapped_call)
         | _ -> false ->
      let inner = Buffer.create 64 in
      emit_stmt ctx inner 0 s;
      let text = String.trim (Buffer.contents inner) in
      emit_line buf indent (Printf.sprintf "if (%s) %s" (expr_str c) text)
  | If (c, t, e) ->
      emit_line buf indent (Printf.sprintf "if (%s) then" (expr_str c));
      List.iter (emit_stmt ctx buf (indent + 1)) t;
      if e <> [] then begin
        emit_line buf indent "else";
        List.iter (emit_stmt ctx buf (indent + 1)) e
      end;
      emit_line buf indent "endif"
  | Where (m, body) ->
      emit_line buf indent (Printf.sprintf "where (%s)" (expr_str m));
      List.iter (emit_stmt ctx buf (indent + 1)) body;
      emit_line buf indent "endwhere"
  | Do (hdr, blk) when hdr.cls = Seq ->
      emit_line buf indent (do_line hdr);
      List.iter (emit_stmt ctx buf (indent + 1)) blk.body;
      emit_line buf indent "enddo"
  | Do (hdr, blk) -> emit_parallel ctx buf indent hdr blk
  | CallSt ("lock", args) ->
      if ctx.in_par then dir buf indent ("critical" ^ critical_name args)
  | CallSt ("unlock", args) ->
      if ctx.in_par then dir buf indent ("end critical" ^ critical_name args)
  | CallSt ("await", [ _; d ]) -> (
      match ctx.ordered with
      | Some i ->
          dir buf indent
            (Printf.sprintf "ordered depend(sink: %s - %s)" i (expr_str d))
      | None -> ())
  | CallSt ("advance", _) -> (
      match ctx.ordered with
      | Some _ -> dir buf indent "ordered depend(source)"
      | None -> ())
  | CallSt (n, []) -> emit_line buf indent ("call " ^ n)
  | CallSt (n, args) ->
      emit_line buf indent
        (Printf.sprintf "call %s(%s)" n
           (String.concat ", " (List.map expr_str args)))
  | Return -> emit_line buf indent "return"
  | Stop -> emit_line buf indent "stop"
  | Continue -> emit_line buf indent "continue"
  | Goto n -> emit_line buf indent (Printf.sprintf "goto %d" n)
  | Labeled (l, s) ->
      let inner = Buffer.create 64 in
      emit_stmt ctx inner indent s;
      let text = Buffer.contents inner in
      let lbl = Printf.sprintf "%4d" l in
      if String.length text > 4 then
        Buffer.add_string buf (lbl ^ String.sub text 4 (String.length text - 4))
      else Buffer.add_string buf text
  | Print [] -> emit_line buf indent "print *"
  | Print args ->
      emit_line buf indent
        ("print *, " ^ String.concat ", " (List.map expr_str args))
  | Read ls ->
      emit_line buf indent
        ("read *, " ^ String.concat ", " (List.map lhs_str ls))

and emit_parallel ctx buf indent h blk =
  let reds, h', blk' =
    match R.recognize h blk with
    | Some (r, h2, b2) -> (r, h2, b2)
    | None -> ([], h, blk)
  in
  let fp =
    if blk'.postamble = [] then fp_split h'.index h'.locals blk'.preamble
    else None
  in
  match fp with
  | Some fps ->
      (* clean clause lowering *)
      ctx.hoist := !(ctx.hoist) @ h'.locals;
      let fp_names = List.map fst fps in
      let privates =
        List.filter_map
          (fun d ->
            if List.mem d.d_name fp_names then None else Some d.d_name)
          h'.locals
        @ seq_indices [] blk'.body
        |> dedup
        |> List.filter (fun v -> v <> h'.index)
      in
      List.iter
        (fun (p, e) -> emit_line buf indent (p ^ " = " ^ expr_str e))
        fps;
      let is_dax = is_doacross h.cls in
      let clauses =
        (if is_dax then [ "ordered(1)" ] else [])
        @ List.map
            (fun r ->
              Printf.sprintf "reduction(%s:%s)" (R.op_clause r.R.rr_op)
                r.R.rr_shared)
            reds
        @ (if privates = [] then []
           else [ "private(" ^ String.concat ", " privates ^ ")" ])
        @
        if fp_names = [] then []
        else [ "firstprivate(" ^ String.concat ", " fp_names ^ ")" ]
      in
      dir buf indent (String.concat " " ("parallel do" :: clauses));
      emit_line buf indent (do_line h');
      let bctx =
        {
          ctx with
          in_par = true;
          ordered = (if is_dax then Some h'.index else None);
        }
      in
      List.iter (emit_stmt bctx buf (indent + 1)) blk'.body;
      emit_line buf indent "enddo";
      dir buf indent "end parallel do"
  | None ->
      (* serial demotion of the original loop: preamble, plain DO,
         postamble; synchronization calls drop with the parallelism *)
      ctx.hoist := !(ctx.hoist) @ h.locals;
      List.iter (emit_stmt ctx buf indent) blk.preamble;
      emit_line buf indent (do_line h);
      List.iter (emit_stmt ctx buf (indent + 1)) blk.body;
      emit_line buf indent "enddo";
      List.iter (emit_stmt ctx buf indent) blk.postamble

let emit_unit buf (u : punit) =
  (match u.u_kind with
  | Program -> emit_line buf 0 ("program " ^ u.u_name)
  | Subroutine ps ->
      emit_line buf 0
        (Printf.sprintf "subroutine %s(%s)" u.u_name (String.concat ", " ps))
  | Function (ty, ps) ->
      emit_line buf 0
        (Printf.sprintf "%s function %s(%s)" (E.dtype_str ty) u.u_name
           (String.concat ", " ps)));
  List.iter
    (fun (n, e) ->
      emit_line buf 1 (Printf.sprintf "parameter (%s = %s)" n (expr_str e)))
    u.u_params;
  (* body first: lowering decides which loop-locals hoist to unit level *)
  let bodybuf = Buffer.create 1024 in
  let ctx = { in_par = false; ordered = None; hoist = ref [] } in
  List.iter (emit_stmt ctx bodybuf 1) u.u_body;
  let declared = List.map (fun d -> d.d_name) u.u_decls in
  let hoisted =
    List.filter (fun d -> not (List.mem d.d_name declared)) !(ctx.hoist)
    |> dedup
  in
  (* every declaration prints with its type, once per name: visibility
     lines drop, and a visibility-only record prints only for a name no
     other record declares (Globalize marks a REAL I-N scalar on a
     record of its own) *)
  let printed = Hashtbl.create 16 in
  List.iter
    (fun d -> if not (visibility_only d) then Hashtbl.replace printed d.d_name ())
    u.u_decls;
  List.iter
    (fun d ->
      if not (visibility_only d) then emit_line buf 1 (decl_line d)
      else if not (Hashtbl.mem printed d.d_name) then begin
        Hashtbl.add printed d.d_name ();
        emit_line buf 1 (decl_line d)
      end)
    u.u_decls;
  List.iter (fun d -> emit_line buf 1 (decl_line d)) hoisted;
  List.iter
    (fun cb ->
      let blk = if cb.c_name = "" then "" else "/" ^ cb.c_name ^ "/ " in
      emit_line buf 1 ("common " ^ blk ^ String.concat ", " cb.c_vars);
      if (not cb.c_process) && cb.c_name <> "" then
        dir buf 1 (Printf.sprintf "threadprivate(/%s/)" cb.c_name))
    u.u_commons;
  List.iter
    (fun group ->
      List.iter
        (fun (a, b) ->
          emit_line buf 1 (Printf.sprintf "equivalence (%s, %s)" a b))
        group)
    u.u_equivs;
  Buffer.add_buffer buf bodybuf;
  emit_line buf 0 "end"

let program_to_string (p : program) =
  let buf = Buffer.create 4096 in
  List.iteri
    (fun i u ->
      if i > 0 then Buffer.add_char buf '\n';
      emit_unit buf u)
    p;
  Buffer.contents buf

let unit_to_string u =
  let buf = Buffer.create 1024 in
  emit_unit buf u;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Lift front end: OpenMP output -> Cedar dialect text                 *)
(* ------------------------------------------------------------------ *)

exception Lift_error of string

let trim = String.trim

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let leading_ws s =
  let n = String.length s in
  let i = ref 0 in
  while !i < n && (s.[!i] = ' ' || s.[!i] = '\t') do incr i done;
  String.sub s 0 !i

let is_directive s = starts_with ~prefix:"!$omp" (trim s)

let directive_text s =
  let t = trim s in
  trim (String.sub t 5 (String.length t - 5))

(* split "private(a, b) reduction(+:s)" into [(name, payload); ...] *)
let parse_clauses text =
  let n = String.length text in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    while !i < n && (text.[!i] = ' ' || text.[!i] = ',') do incr i done;
    if !i < n then begin
      let start = !i in
      while !i < n && text.[!i] <> '(' && text.[!i] <> ' ' do incr i done;
      let name = String.sub text start (!i - start) in
      let payload =
        if !i < n && text.[!i] = '(' then begin
          let depth = ref 0 and pstart = !i + 1 in
          let stop = ref (-1) in
          while !i < n && !stop < 0 do
            (if text.[!i] = '(' then incr depth
             else if text.[!i] = ')' then begin
               decr depth;
               if !depth = 0 then stop := !i
             end);
            incr i
          done;
          if !stop < 0 then raise (Lift_error ("unbalanced clause: " ^ text));
          String.sub text pstart (!stop - pstart)
        end
        else ""
      in
      if name <> "" then out := (String.lowercase_ascii name, payload) :: !out
    end
  done;
  List.rev !out

let split_commas s =
  String.split_on_char ',' s |> List.map trim |> List.filter (fun x -> x <> "")

(* word-boundary rename outside quoted strings *)
let rename_word ~from ~into line =
  let is_word c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_'
  in
  let n = String.length line and fl = String.length from in
  let buf = Buffer.create (n + 8) in
  let i = ref 0 and in_str = ref false in
  while !i < n do
    let c = line.[!i] in
    if c = '\'' then begin
      in_str := not !in_str;
      Buffer.add_char buf c;
      incr i
    end
    else if
      (not !in_str)
      && !i + fl <= n
      && String.sub line !i fl = from
      && ((!i = 0) || not (is_word line.[!i - 1]))
      && (!i + fl = n || not (is_word line.[!i + fl]))
    then begin
      Buffer.add_string buf into;
      i := !i + fl
    end
    else begin
      Buffer.add_char buf c;
      incr i
    end
  done;
  Buffer.contents buf

let decl_keywords =
  [ "double precision "; "integer "; "real "; "logical "; "character " ]

(* "real x(10)" -> Some ("x", "real x(10)") *)
let parse_decl_line t =
  let rec find = function
    | [] -> None
    | kw :: rest ->
        if starts_with ~prefix:kw t then
          let body = trim (String.sub t (String.length kw) (String.length t - String.length kw)) in
          let stop = ref (String.length body) in
          String.iteri (fun i c -> if c = '(' && !stop = String.length body then stop := i) body;
          let name = trim (String.sub body 0 !stop) in
          (* a single declared name only; multi-name decls are not in our
             emission format *)
          if name <> "" && not (String.contains name ',') then Some (name, t)
          else None
        else find rest
  in
  find decl_keywords

let implicit_decl name =
  let c = Char.lowercase_ascii name.[0] in
  if c >= 'i' && c <= 'n' then "integer " ^ name else "real " ^ name

let decl_type t =
  if starts_with ~prefix:"integer" t then Integer
  else if starts_with ~prefix:"double precision" t then Double
  else if starts_with ~prefix:"logical" t then Logical
  else if starts_with ~prefix:"character" t then Character
  else Real

let identity_text op ty =
  match (op, ty) with
  | Analysis.Scalars.Rsum, Integer -> "0"
  | Analysis.Scalars.Rsum, _ -> "0.0"
  | Analysis.Scalars.Rprod, Integer -> "1"
  | Analysis.Scalars.Rprod, _ -> "1.0"
  | Analysis.Scalars.Rmin, Integer -> "1073741823"
  | Analysis.Scalars.Rmin, _ -> "1e30"
  | Analysis.Scalars.Rmax, Integer -> "(-1073741823)"
  | Analysis.Scalars.Rmax, _ -> "(-1e30)"

let merge_text op s p =
  match op with
  | Analysis.Scalars.Rsum -> Printf.sprintf "%s = %s + %s" s s p
  | Analysis.Scalars.Rprod -> Printf.sprintf "%s = %s * %s" s s p
  | Analysis.Scalars.Rmin -> Printf.sprintf "%s = min(%s, %s)" s s p
  | Analysis.Scalars.Rmax -> Printf.sprintf "%s = max(%s, %s)" s s p


(* "critical (lk2)" / "end critical (lk2)" -> "2" *)
let critical_id dt =
  match String.index_opt dt '(' with
  | None -> "1"
  | Some i -> (
      let rest = trim (String.sub dt (i + 1) (String.length dt - i - 1)) in
      if starts_with ~prefix:"lk" rest then
        match String.index_opt rest ')' with
        | Some j -> String.sub rest 2 (j - 2)
        | None -> "1"
      else "1")

(* trimmed line with any leading statement label stripped *)
let code_text t =
  let n = String.length t in
  let i = ref 0 in
  while !i < n && t.[!i] >= '0' && t.[!i] <= '9' do incr i done;
  if !i > 0 && !i < n && t.[!i] = ' ' then trim (String.sub t !i (n - !i))
  else if !i = 0 then t
  else t

type frame = {
  f_ws : string;  (** leading whitespace of the loop header line *)
  f_kind : string;  (** ["cdoall"] or ["cdoacross"] *)
  f_locals : string list;  (** loop-local decl line texts (no ws) *)
  f_pre : string list;  (** preamble statement texts (no ws) *)
  f_post : string list;  (** postamble statement texts (no ws) *)
  f_renames : (string * string) list;  (** shared -> partial, body only *)
  mutable f_depth : int;  (** open DO nesting inside this loop *)
  f_lines : Buffer.t;  (** accumulated body lines *)
}

(** Re-read this module's own OpenMP output back into Cedar dialect
    source, so the Cedar parser and the static race checks run unchanged
    on OpenMP output.  Directive-lowered loops come back as
    [cdoall]/[cdoacross] (the placement flavor collapses); clause-lowered
    privatization and reductions come back as loop-local declarations and
    partial-accumulator machinery in the accepted shapes.  Returns
    [Error _] on a directive the lift does not understand. *)
let lift_source (src : string) : (string, string) result =
  try
    let raw = String.split_on_char '\n' src in
    let raw = match List.rev raw with "" :: r -> List.rev r | _ -> raw in
    let out = Buffer.create (String.length src) in
    let stack : frame list ref = ref [] in
    let pending : (string * string) list option ref = ref None in
    let decls : (string, string) Hashtbl.t = Hashtbl.create 16 in
    let threadpriv : (string, unit) Hashtbl.t = Hashtbl.create 4 in
    let fresh = ref 0 in
    (* prescan: which named commons stay task-local *)
    List.iter
      (fun l ->
        if is_directive l then
          let dt = directive_text l in
          if starts_with ~prefix:"threadprivate" dt then
            match String.index_opt dt '/' with
            | Some i -> (
                match String.index_from_opt dt (i + 1) '/' with
                | Some j ->
                    Hashtbl.replace threadpriv (String.sub dt (i + 1) (j - i - 1)) ()
                | None -> ())
            | None -> ())
      raw;
    let cur_buf () = match !stack with [] -> out | f :: _ -> f.f_lines in
    let emit line = Buffer.add_string (cur_buf ()) (line ^ "\n") in
    (* pop the newest emitted line at the current level if [p] holds *)
    let pop_last p =
      let buf = cur_buf () in
      let s = Buffer.contents buf in
      let n = String.length s in
      if n = 0 then None
      else
        let start =
          match String.rindex_opt (String.sub s 0 (n - 1)) '\n' with
          | Some i -> i + 1
          | None -> 0
        in
        let last = String.sub s start (n - start - 1) in
        if p last then begin
          Buffer.clear buf;
          Buffer.add_string buf (String.sub s 0 start);
          Some last
        end
        else None
    in
    let close_frame f =
      let b = Buffer.create 256 in
      let add ws t = Buffer.add_string b (ws ^ t ^ "\n") in
      let inner = f.f_ws ^ "  " in
      List.iter (add inner) f.f_locals;
      let has_blocks = f.f_pre <> [] || f.f_post <> [] in
      if has_blocks then begin
        List.iter (add inner) f.f_pre;
        add f.f_ws "loop"
      end;
      Buffer.add_buffer b f.f_lines;
      if has_blocks then begin
        add f.f_ws "endloop";
        List.iter (add inner) f.f_post
      end;
      add f.f_ws ("end " ^ f.f_kind);
      Buffer.add_buffer (cur_buf ()) b
    in
    let open_frame line clauses =
      let t = trim line in
      let ct = code_text t in
      if not (starts_with ~prefix:"DO " ct) then
        raise (Lift_error ("directive not followed by DO: " ^ t));
      let ws = leading_ws line in
      let hdr_rest = String.sub ct 3 (String.length ct - 3) in
      let ordered = List.mem_assoc "ordered" clauses in
      let get name =
        match List.assoc_opt name clauses with
        | Some p -> split_commas p
        | None -> []
      in
      let privates = get "private" in
      let firstpriv = get "firstprivate" in
      let reds =
        List.filter_map
          (fun (n, p) ->
            if n <> "reduction" then None
            else
              match String.index_opt p ':' with
              | Some i -> (
                  let op = trim (String.sub p 0 i) in
                  let v = trim (String.sub p (i + 1) (String.length p - i - 1)) in
                  match R.op_of_clause op with
                  | Some o -> Some (o, v)
                  | None -> raise (Lift_error ("bad reduction op: " ^ op)))
              | None -> raise (Lift_error ("bad reduction clause: " ^ p)))
          clauses
      in
      (* firstprivate inits were hoisted just before the directive: pull
         them back into the preamble (newest first) *)
      let fp_inits =
        List.map
          (fun v ->
            match
              pop_last (fun l -> starts_with ~prefix:(v ^ " =") (trim l))
            with
            | Some l -> trim l
            | None -> raise (Lift_error ("missing firstprivate init: " ^ v)))
          (List.rev firstpriv)
        |> List.rev
      in
      let local_decl v =
        match Hashtbl.find_opt decls v with
        | Some d -> d
        | None -> implicit_decl v
      in
      let machinery =
        List.map
          (fun (op, v) ->
            incr fresh;
            let partial = Printf.sprintf "%s_q%d" v !fresh in
            let ty = decl_type (local_decl v) in
            let pdecl =
              (match ty with
              | Integer -> "integer "
              | Double -> "double precision "
              | Logical -> "logical "
              | Character -> "character "
              | Real -> "real ")
              ^ partial
            in
            ( pdecl,
              Printf.sprintf "%s = %s" partial (identity_text op ty),
              merge_text op v partial,
              (v, partial) ))
          reds
      in
      let kind = if ordered then "cdoacross" else "cdoall" in
      emit (ws ^ kind ^ " " ^ hdr_rest);
      stack :=
        {
          f_ws = ws;
          f_kind = kind;
          f_locals =
            List.map local_decl (privates @ firstpriv)
            @ List.map (fun (d, _, _, _) -> d) machinery;
          f_pre = fp_inits @ List.map (fun (_, i, _, _) -> i) machinery;
          f_post =
            (match machinery with
            | [] -> []
            | _ ->
                ("call lock(1)" :: List.map (fun (_, _, m, _) -> m) machinery)
                @ [ "call unlock(1)" ]);
          f_renames = List.map (fun (_, _, _, r) -> r) machinery;
          f_depth = 1;
          f_lines = Buffer.create 256;
        }
        :: !stack
    in
    let process line =
      let t = trim line in
      if t = "" then emit line
      else if is_directive line then begin
        let dt = directive_text line in
        let ws = leading_ws line in
        if starts_with ~prefix:"parallel do" dt then
          pending :=
            Some (parse_clauses (String.sub dt 11 (String.length dt - 11)))
        else if starts_with ~prefix:"end parallel do" dt then ()
        else if starts_with ~prefix:"ordered depend(source" dt then
          emit (ws ^ "call advance(1)")
        else if starts_with ~prefix:"ordered depend(sink" dt then begin
          let payload =
            match String.index_opt dt ':' with
            | Some i -> (
                let rest = String.sub dt (i + 1) (String.length dt - i - 1) in
                match String.rindex_opt rest ')' with
                | Some j -> String.sub rest 0 j
                | None -> rest)
            | None -> raise (Lift_error ("bad sink clause: " ^ dt))
          in
          let d =
            match String.index_opt payload '-' with
            | Some i ->
                trim (String.sub payload (i + 1) (String.length payload - i - 1))
            | None -> "0"
          in
          emit (ws ^ Printf.sprintf "call await(1, %s)" d)
        end
        else if starts_with ~prefix:"end critical" dt then
          emit (ws ^ Printf.sprintf "call unlock(%s)" (critical_id dt))
        else if starts_with ~prefix:"critical" dt then
          emit (ws ^ Printf.sprintf "call lock(%s)" (critical_id dt))
        else if starts_with ~prefix:"threadprivate" dt then ()
        else raise (Lift_error ("unknown directive: " ^ dt))
      end
      else
        match !pending with
        | Some clauses ->
            pending := None;
            open_frame line clauses
        | None ->
            let ct = code_text t in
            let lower_ct = String.lowercase_ascii ct in
            (if !stack = [] then
               match parse_decl_line ct with
               | Some (name, text) -> Hashtbl.replace decls name text
               | None -> ());
            (* a named common with no threadprivate mark is process-shared *)
            let line =
              if !stack = [] && starts_with ~prefix:"common" lower_ct then begin
                let blkname =
                  match String.index_opt ct '/' with
                  | Some i -> (
                      match String.index_from_opt ct (i + 1) '/' with
                      | Some j -> String.sub ct (i + 1) (j - i - 1)
                      | None -> "")
                  | None -> ""
                in
                if blkname <> "" && Hashtbl.mem threadpriv blkname then line
                else leading_ws line ^ "process " ^ t
              end
              else line
            in
            (* body renames of every open frame (shared -> partial) *)
            let line =
              List.fold_left
                (fun l f ->
                  List.fold_left
                    (fun l (shared, partial) ->
                      rename_word ~from:shared ~into:partial l)
                    l f.f_renames)
                line !stack
            in
            if lower_ct = "enddo" && !stack <> [] then begin
              let f = List.hd !stack in
              f.f_depth <- f.f_depth - 1;
              if f.f_depth = 0 then begin
                stack := List.tl !stack;
                close_frame f
              end
              else emit line
            end
            else begin
              (match !stack with
              | f :: _ when starts_with ~prefix:"do " lower_ct ->
                  f.f_depth <- f.f_depth + 1
              | _ -> ());
              if ct = "end" && !stack = [] then Hashtbl.reset decls;
              emit line
            end
    in
    List.iter process raw;
    (match !stack with
    | [] -> ()
    | _ -> raise (Lift_error "input ended inside a parallel loop"));
    if !pending <> None then
      raise (Lift_error "parallel do directive not followed by a loop");
    Ok (Buffer.contents out)
  with Lift_error m -> Error m
