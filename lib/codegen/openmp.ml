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

let add = Buffer.add_string

(* an OpenMP directive line: [dir_start], its text, [E.end_line] *)
let dir_start buf indent =
  E.start_line buf indent;
  add buf "!$omp "

let dir buf indent text =
  dir_start buf indent;
  add buf text;
  E.end_line buf

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
           && not
                (U.exists_var (fun v -> v = index || List.mem v lnames) e) ->
        go ((p, e) :: fps) rest
    | _ -> None
  in
  go [] preamble

(* "critical" or "end critical", named after a constant lock *)
let critical_line buf indent keyword args =
  dir_start buf indent;
  add buf keyword;
  (match args with
  | [ Int k ] ->
      add buf " (lk";
      E.add_int buf k;
      Buffer.add_char buf ')'
  | _ -> ());
  E.end_line buf

let do_line buf indent h =
  E.start_line buf indent;
  add buf "DO ";
  add buf h.index;
  add buf " = ";
  E.add_expr buf h.lo;
  add buf ", ";
  E.add_expr buf h.hi;
  (match h.step with
  | None -> ()
  | Some s ->
      add buf ", ";
      E.add_expr buf s);
  E.end_line buf

let mapped_call = [ "lock"; "unlock"; "await"; "advance" ]

let rec emit_stmt ctx buf indent = function
  | If (c, [ s ], [])
    when match s with
         | Assign _ | Goto _ | Return | Stop -> true
         | CallSt (n, _) -> not (List.mem n mapped_call)
         | _ -> false ->
      E.start_line buf indent;
      add buf "if (";
      E.add_expr buf c;
      add buf ") ";
      E.add_simple_stmt buf s;
      E.end_line buf
  | If (c, t, e) ->
      E.start_line buf indent;
      add buf "if (";
      E.add_expr buf c;
      add buf ") then";
      E.end_line buf;
      emit_block ctx buf (indent + 1) t;
      (match e with
      | [] -> ()
      | e ->
          E.emit_line buf indent "else";
          emit_block ctx buf (indent + 1) e);
      E.emit_line buf indent "endif"
  | Where (m, body) ->
      E.start_line buf indent;
      add buf "where (";
      E.add_expr buf m;
      Buffer.add_char buf ')';
      E.end_line buf;
      emit_block ctx buf (indent + 1) body;
      E.emit_line buf indent "endwhere"
  | Do (hdr, blk) when hdr.cls = Seq ->
      do_line buf indent hdr;
      emit_block ctx buf (indent + 1) blk.body;
      E.emit_line buf indent "enddo"
  | Do (hdr, blk) -> emit_parallel ctx buf indent hdr blk
  | CallSt ("lock", args) ->
      if ctx.in_par then critical_line buf indent "critical" args
  | CallSt ("unlock", args) ->
      if ctx.in_par then critical_line buf indent "end critical" args
  | CallSt ("await", [ _; d ]) -> (
      match ctx.ordered with
      | Some i ->
          dir_start buf indent;
          add buf "ordered depend(sink: ";
          add buf i;
          add buf " - ";
          E.add_expr buf d;
          Buffer.add_char buf ')';
          E.end_line buf
      | None -> ())
  | CallSt ("advance", _) -> (
      match ctx.ordered with
      | Some _ -> dir buf indent "ordered depend(source)"
      | None -> ())
  | Labeled (l, s) -> E.relabel buf l (fun () -> emit_stmt ctx buf indent s)
  | s -> E.simple_line buf indent s

and emit_block ctx buf indent = function
  | [] -> ()
  | s :: rest ->
      emit_stmt ctx buf indent s;
      emit_block ctx buf indent rest

(* "name(item, item)" as one clause of a directive *)
and clause buf name items =
  Buffer.add_char buf ' ';
  add buf name;
  Buffer.add_char buf '(';
  E.add_list buf Buffer.add_string items;
  Buffer.add_char buf ')'

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
      List.iter (fun (p, e) -> E.simple_line buf indent (Assign (LVar p, e))) fps;
      let is_dax = is_doacross h.cls in
      dir_start buf indent;
      add buf "parallel do";
      if is_dax then add buf " ordered(1)";
      List.iter
        (fun r ->
          add buf " reduction(";
          add buf (R.op_clause r.R.rr_op);
          Buffer.add_char buf ':';
          add buf r.R.rr_shared;
          Buffer.add_char buf ')')
        reds;
      if privates <> [] then clause buf "private" privates;
      if fp_names <> [] then clause buf "firstprivate" fp_names;
      E.end_line buf;
      do_line buf indent h';
      let bctx =
        {
          ctx with
          in_par = true;
          ordered = (if is_dax then Some h'.index else None);
        }
      in
      emit_block bctx buf (indent + 1) blk'.body;
      E.emit_line buf indent "enddo";
      dir buf indent "end parallel do"
  | None ->
      (* serial demotion of the original loop: preamble, plain DO,
         postamble; synchronization calls drop with the parallelism *)
      ctx.hoist := !(ctx.hoist) @ h.locals;
      emit_block ctx buf indent blk.preamble;
      do_line buf indent h;
      emit_block ctx buf (indent + 1) blk.body;
      E.emit_line buf indent "enddo";
      emit_block ctx buf indent blk.postamble

let emit_unit buf (u : punit) =
  E.unit_header buf u;
  (* body first: lowering decides which loop-locals hoist to unit level *)
  let bodybuf = Buffer.create 1024 in
  let ctx = { in_par = false; ordered = None; hoist = ref [] } in
  emit_block ctx bodybuf 1 u.u_body;
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
      if not (visibility_only d) then E.decl_line buf 1 d
      else if not (Hashtbl.mem printed d.d_name) then begin
        Hashtbl.add printed d.d_name ();
        E.decl_line buf 1 d
      end)
    u.u_decls;
  List.iter (E.decl_line buf 1) hoisted;
  List.iter
    (fun cb ->
      E.start_line buf 1;
      add buf "common ";
      if cb.c_name <> "" then begin
        Buffer.add_char buf '/';
        add buf cb.c_name;
        add buf "/ "
      end;
      E.add_list buf Buffer.add_string cb.c_vars;
      E.end_line buf;
      if (not cb.c_process) && cb.c_name <> "" then begin
        dir_start buf 1;
        add buf "threadprivate(/";
        add buf cb.c_name;
        add buf "/)";
        E.end_line buf
      end)
    u.u_commons;
  E.equivalence_lines buf u;
  Buffer.add_buffer buf bodybuf;
  E.emit_line buf 0 "end"

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
let starts_with = String.starts_with

(* The lift reads its input line by line, each line a range [i, e) of
   the source: these helpers test it in place. *)

(* the characters [String.trim] drops *)
let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let rec skip_space s i e = if i < e && is_space s.[i] then skip_space s (i + 1) e else i
let rec rskip_space s i e = if e > i && is_space s.[e - 1] then rskip_space s i (e - 1) else e

(* [s.[i..e)] begins with [prefix]; when [fold], ignoring the case of
   [s] ([prefix] is lower case) *)
let rec prefix_from fold s i prefix k =
  k = String.length prefix
  || (let c = s.[i + k] in
      (if fold then Char.lowercase_ascii c else c) = prefix.[k])
     && prefix_from fold s i prefix (k + 1)

let has_prefix s i e prefix =
  i + String.length prefix <= e && prefix_from false s i prefix 0

let has_prefix_ci s i e prefix =
  i + String.length prefix <= e && prefix_from true s i prefix 0

(* [s.[i..e)] is exactly [w] *)
let is_word s i e w = e - i = String.length w && has_prefix s i e w
let is_word_ci s i e w = e - i = String.length w && has_prefix_ci s i e w

(* Calls [f ls le] on each line of [src], as [String.split_on_char '\n']
   splits it, less a final empty piece. *)
let iter_lines src f =
  let n = String.length src in
  let ls = ref 0 in
  while !ls < n do
    let le = ref !ls in
    while !le < n && String.unsafe_get src !le <> '\n' do
      incr le
    done;
    f !ls !le;
    ls := !le + 1
  done

let leading_ws s =
  let n = String.length s in
  let i = ref 0 in
  while !i < n && (s.[!i] = ' ' || s.[!i] = '\t') do incr i done;
  String.sub s 0 !i

let is_directive s i e = has_prefix s (skip_space s i e) e "!$omp"

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

(* the name between the first two '/' of [s], "" if there are not two *)
let slashed s =
  match String.index_opt s '/' with
  | Some i -> (
      match String.index_from_opt s (i + 1) '/' with
      | Some j -> String.sub s (i + 1) (j - i - 1)
      | None -> "")
  | None -> ""

let split_commas s =
  String.split_on_char ',' s |> List.map trim |> List.filter (fun x -> x <> "")

let is_word_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_'

(* [from] occurs in [line] at [i] as a whole word *)
let word_at line i from =
  let n = String.length line and fl = String.length from in
  has_prefix line i n from
  && (i = 0 || not (is_word_char line.[i - 1]))
  && (i + fl = n || not (is_word_char line.[i + fl]))

(* word-boundary rename outside quoted strings; [line] itself when
   [from] does not occur *)
let rename_word ~from ~into line =
  let n = String.length line and fl = String.length from in
  let buf = ref None in
  let i = ref 0 and in_str = ref false in
  while !i < n do
    let c = line.[!i] in
    if c <> '\'' && (not !in_str) && word_at line !i from then begin
      let b =
        match !buf with
        | Some b -> b
        | None ->
            let b = Buffer.create (n + 8) in
            Buffer.add_substring b line 0 !i;
            buf := Some b;
            b
      in
      Buffer.add_string b into;
      i := !i + fl
    end
    else begin
      if c = '\'' then in_str := not !in_str;
      (match !buf with Some b -> Buffer.add_char b c | None -> ());
      incr i
    end
  done;
  match !buf with Some b -> Buffer.contents b | None -> line

let decl_keywords =
  [ "double precision "; "integer "; "real "; "logical "; "character " ]

(* [s.[i..e)] starts with one of [decl_keywords] *)
let rec starts_with_any s i e = function
  | [] -> false
  | kw :: rest -> has_prefix s i e kw || starts_with_any s i e rest

let is_decl_start s i e = starts_with_any s i e decl_keywords

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

(* where the code of the trimmed line [s.[i..e)] starts, past any
   leading statement label *)
let code_start s i e =
  let k = ref i in
  while !k < e && s.[!k] >= '0' && s.[!k] <= '9' do incr k done;
  if !k > i && !k < e && s.[!k] = ' ' then skip_space s !k e else i

(* trimmed line with any leading statement label stripped *)
let code_text t =
  let n = String.length t in
  let k = code_start t 0 n in
  String.sub t k (n - k)

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
    let out = Buffer.create (String.length src) in
    let stack : frame list ref = ref [] in
    let pending : (string * string) list option ref = ref None in
    let decls : (string, string) Hashtbl.t = Hashtbl.create 16 in
    let fresh = ref 0 in
    (* which named commons stay task-local: read from the whole text when
       the first named common line needs it *)
    let threadpriv =
      lazy
        (let tp = Hashtbl.create 4 in
         iter_lines src (fun ls le ->
             if is_directive src ls le then
               let dt = directive_text (String.sub src ls (le - ls)) in
               if starts_with ~prefix:"threadprivate" dt then Hashtbl.replace tp (slashed dt) ());
         tp)
    in
    let cur_buf () = match !stack with [] -> out | f :: _ -> f.f_lines in
    let emit line =
      let b = cur_buf () in
      Buffer.add_string b line;
      Buffer.add_char b '\n'
    in
    let emit_range ls le =
      let b = cur_buf () in
      Buffer.add_substring b src ls (le - ls);
      Buffer.add_char b '\n'
    in
    (* pop the newest emitted line at the current level if [p] holds *)
    let pop_last p =
      let buf = cur_buf () in
      let n = Buffer.length buf in
      if n = 0 then None
      else begin
        let start = ref (n - 1) in
        while !start > 0 && Buffer.nth buf (!start - 1) <> '\n' do
          decr start
        done;
        let last = Buffer.sub buf !start (n - !start - 1) in
        if p last then begin
          Buffer.truncate buf !start;
          Some last
        end
        else None
      end
    in
    let close_frame f =
      let b = cur_buf () in
      let add ws t =
        Buffer.add_string b ws;
        Buffer.add_string b t;
        Buffer.add_char b '\n'
      in
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
      add f.f_ws ("end " ^ f.f_kind)
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
    let directive line =
      let dt = directive_text line in
      let ws = leading_ws line in
      if starts_with ~prefix:"parallel do" dt then
        pending := Some (parse_clauses (String.sub dt 11 (String.length dt - 11)))
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
    in
    (* a named common with no threadprivate mark is process-shared *)
    let common_line ls le ts te cs =
      let blkname = slashed (String.sub src cs (te - cs)) in
      if blkname <> "" && Hashtbl.mem (Lazy.force threadpriv) blkname then
        String.sub src ls (le - ls)
      else
        leading_ws (String.sub src ls (le - ls))
        ^ "process " ^ String.sub src ts (te - ts)
    in
    (* a body line as it goes out: a process common at unit level, the
       renames of every open frame (shared -> partial) inside loops *)
    let emit_code ls le ts te cs =
      match !stack with
      | [] when has_prefix_ci src cs te "common" ->
          emit (common_line ls le ts te cs)
      | frames when List.exists (fun f -> not (List.is_empty f.f_renames)) frames ->
          emit
            (List.fold_left
               (fun l f ->
                 List.fold_left
                   (fun l (shared, partial) ->
                     rename_word ~from:shared ~into:partial l)
                   l f.f_renames)
               (String.sub src ls (le - ls))
               frames)
      | _ -> emit_range ls le
    in
    let process ls le =
      let ts = skip_space src ls le in
      let te = rskip_space src ts le in
      if ts = te then emit_range ls le
      else if has_prefix src ts te "!$omp" then
        directive (String.sub src ls (le - ls))
      else
        match !pending with
        | Some clauses ->
            pending := None;
            open_frame (String.sub src ls (le - ls)) clauses
        | None ->
            let cs = code_start src ts te in
            if !stack = [] && is_decl_start src cs te then (
              match parse_decl_line (String.sub src cs (te - cs)) with
              | Some (name, text) -> Hashtbl.replace decls name text
              | None -> ());
            if is_word_ci src cs te "enddo" && !stack <> [] then begin
              let f = List.hd !stack in
              f.f_depth <- f.f_depth - 1;
              if f.f_depth = 0 then begin
                stack := List.tl !stack;
                close_frame f
              end
              else emit_code ls le ts te cs
            end
            else begin
              (match !stack with
              | f :: _ when has_prefix_ci src cs te "do " ->
                  f.f_depth <- f.f_depth + 1
              | _ -> ());
              if !stack = [] && is_word src cs te "end" then Hashtbl.reset decls;
              emit_code ls le ts te cs
            end
    in
    iter_lines src process;
    (match !stack with
    | [] -> ()
    | _ -> raise (Lift_error "input ended inside a parallel loop"));
    if !pending <> None then
      raise (Lift_error "parallel do directive not followed by a loop");
    Ok (Buffer.contents out)
  with Lift_error m -> Error m
