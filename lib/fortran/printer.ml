(** Cedar Fortran source printer.

    Emits the whole AST back as (Cedar) Fortran source.  The output is
    free-form-ish (leading six blanks, labels in the label field) and
    re-parses with {!Parser.parse_program}, which the round-trip property
    tests rely on.

    The expression/declaration/line layer lives in {!Emit} (shared with
    the OpenMP backend in [lib/codegen]); this module owns the Cedar
    statement and unit structure — CDOALL/CDOACROSS headers, loop-local
    declarations, preamble/loop/endloop/postamble blocks, GLOBAL/CLUSTER
    visibility and process-common lines. *)

open Ast

let buf_add = Buffer.add_string
let expr_str = Emit.expr_str
let lhs_str = Emit.lhs_str
let dtype_str = Emit.dtype_str
let decl_line = Emit.decl_line
let emit_line = Emit.emit_line

let rec emit_stmt buf indent = function
  | Assign (l, e) -> emit_line buf indent (lhs_str l ^ " = " ^ expr_str e)
  | If (c, [ s ], [])
    when match s with
         | Assign _ | CallSt _ | Goto _ | Return | Stop -> true
         | _ -> false ->
      let inner = Buffer.create 64 in
      emit_stmt inner 0 s;
      (* strip the 6-blank prefix and trailing newline of the inner emit *)
      let text = Buffer.contents inner in
      let text = String.trim text in
      emit_line buf indent (Printf.sprintf "if (%s) %s" (expr_str c) text)
  | If (c, t, e) ->
      emit_line buf indent (Printf.sprintf "if (%s) then" (expr_str c));
      List.iter (emit_stmt buf (indent + 1)) t;
      if e <> [] then begin
        emit_line buf indent "else";
        List.iter (emit_stmt buf (indent + 1)) e
      end;
      emit_line buf indent "endif"
  | Where (m, body) ->
      emit_line buf indent (Printf.sprintf "where (%s)" (expr_str m));
      List.iter (emit_stmt buf (indent + 1)) body;
      emit_line buf indent "endwhere"
  | Do (hdr, blk) ->
      let step_str =
        match hdr.step with None -> "" | Some s -> ", " ^ expr_str s
      in
      emit_line buf indent
        (Printf.sprintf "%s %s = %s, %s%s" (loop_keyword hdr.cls) hdr.index
           (expr_str hdr.lo) (expr_str hdr.hi) step_str);
      if hdr.cls = Seq then begin
        List.iter (emit_stmt buf (indent + 1)) blk.body;
        emit_line buf indent "enddo"
      end
      else begin
        List.iter (fun d -> emit_line buf (indent + 1) (decl_line d)) hdr.locals;
        if blk.preamble <> [] || blk.postamble <> [] then begin
          List.iter (emit_stmt buf (indent + 1)) blk.preamble;
          emit_line buf indent "loop";
          List.iter (emit_stmt buf (indent + 1)) blk.body;
          emit_line buf indent "endloop";
          List.iter (emit_stmt buf (indent + 1)) blk.postamble
        end
        else List.iter (emit_stmt buf (indent + 1)) blk.body;
        emit_line buf indent ("end " ^ String.lowercase_ascii (loop_keyword hdr.cls))
      end
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
      (* print the inner statement carrying the label *)
      let inner = Buffer.create 64 in
      emit_stmt inner indent s;
      let text = Buffer.contents inner in
      (* replace the first 4 chars with the label *)
      let lbl = Printf.sprintf "%4d" l in
      if String.length text > 4 then
        buf_add buf (lbl ^ String.sub text 4 (String.length text - 4))
      else buf_add buf text
  | Print [] -> emit_line buf indent "print *"
  | Print args ->
      emit_line buf indent
        ("print *, " ^ String.concat ", " (List.map expr_str args))
  | Read ls ->
      emit_line buf indent
        ("read *, " ^ String.concat ", " (List.map lhs_str ls))

let emit_unit buf (u : punit) =
  (match u.u_kind with
  | Program -> emit_line buf 0 ("program " ^ u.u_name)
  | Subroutine ps ->
      emit_line buf 0
        (Printf.sprintf "subroutine %s(%s)" u.u_name (String.concat ", " ps))
  | Function (ty, ps) ->
      emit_line buf 0
        (Printf.sprintf "%s function %s(%s)" (dtype_str ty) u.u_name
           (String.concat ", " ps)));
  List.iter
    (fun (n, e) ->
      emit_line buf 1 (Printf.sprintf "parameter (%s = %s)" n (expr_str e)))
    u.u_params;
  (* type declarations first, then every visibility as a GLOBAL/CLUSTER
     statement, visibility-only decls' before the typed ones' *)
  let vis_decls, type_decls = List.partition visibility_only u.u_decls in
  List.iter (fun d -> emit_line buf 1 (decl_line d)) type_decls;
  List.iter
    (fun d ->
      match d.d_vis with
      | Global -> emit_line buf 1 ("global " ^ d.d_name)
      | Cluster -> emit_line buf 1 ("cluster " ^ d.d_name)
      | Default -> ())
    (vis_decls @ type_decls);
  List.iter
    (fun cb ->
      let kw = if cb.c_process then "process common" else "common" in
      let blk = if cb.c_name = "" then "" else "/" ^ cb.c_name ^ "/ " in
      emit_line buf 1 (kw ^ " " ^ blk ^ String.concat ", " cb.c_vars))
    u.u_commons;
  List.iter
    (fun group ->
      List.iter
        (fun (a, b) ->
          emit_line buf 1 (Printf.sprintf "equivalence (%s, %s)" a b))
        group)
    u.u_equivs;
  List.iter (emit_stmt buf 1) u.u_body;
  emit_line buf 0 "end"

(** Print a whole program as Cedar Fortran source text. *)
let program_to_string (p : program) =
  let buf = Buffer.create 4096 in
  List.iteri
    (fun i u ->
      if i > 0 then Buffer.add_char buf '\n';
      emit_unit buf u)
    p;
  Buffer.contents buf

let stmt_to_string s =
  let buf = Buffer.create 128 in
  emit_stmt buf 0 s;
  Buffer.contents buf

let unit_to_string u =
  let buf = Buffer.create 1024 in
  emit_unit buf u;
  Buffer.contents buf
