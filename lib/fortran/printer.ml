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
open Emit

let add = Buffer.add_string
let expr_str = Emit.expr_str

let end_keyword = function
  | Seq -> "end do"
  | Cdoall -> "end cdoall"
  | Sdoall -> "end sdoall"
  | Xdoall -> "end xdoall"
  | Cdoacross -> "end cdoacross"
  | Sdoacross -> "end sdoacross"
  | Xdoacross -> "end xdoacross"

let rec emit_stmt buf indent = function
  | If (c, [ s ], [])
    when match s with
         | Assign _ | CallSt _ | Goto _ | Return | Stop -> true
         | _ -> false ->
      start_line buf indent;
      add buf "if (";
      add_expr buf c;
      add buf ") ";
      add_simple_stmt buf s;
      end_line buf
  | If (c, t, e) ->
      start_line buf indent;
      add buf "if (";
      add_expr buf c;
      add buf ") then";
      end_line buf;
      emit_block buf (indent + 1) t;
      (match e with
      | [] -> ()
      | e ->
          emit_line buf indent "else";
          emit_block buf (indent + 1) e);
      emit_line buf indent "endif"
  | Where (m, body) ->
      start_line buf indent;
      add buf "where (";
      add_expr buf m;
      Buffer.add_char buf ')';
      end_line buf;
      emit_block buf (indent + 1) body;
      emit_line buf indent "endwhere"
  | Do (hdr, blk) ->
      start_line buf indent;
      add buf (loop_keyword hdr.cls);
      Buffer.add_char buf ' ';
      add buf hdr.index;
      add buf " = ";
      add_expr buf hdr.lo;
      add buf ", ";
      add_expr buf hdr.hi;
      (match hdr.step with
      | None -> ()
      | Some s ->
          add buf ", ";
          add_expr buf s);
      end_line buf;
      if hdr.cls = Seq then begin
        emit_block buf (indent + 1) blk.body;
        emit_line buf indent "enddo"
      end
      else begin
        List.iter (decl_line buf (indent + 1)) hdr.locals;
        (match (blk.preamble, blk.postamble) with
        | [], [] -> emit_block buf (indent + 1) blk.body
        | _ ->
            emit_block buf (indent + 1) blk.preamble;
            emit_line buf indent "loop";
            emit_block buf (indent + 1) blk.body;
            emit_line buf indent "endloop";
            emit_block buf (indent + 1) blk.postamble);
        emit_line buf indent (end_keyword hdr.cls)
      end
  | Labeled (l, s) ->
      (* the inner statement's first line carries the label *)
      relabel buf l (fun () -> emit_stmt buf indent s)
  | s -> simple_line buf indent s

and emit_block buf indent = function
  | [] -> ()
  | s :: rest ->
      emit_stmt buf indent s;
      emit_block buf indent rest

let word_line buf indent keyword name =
  start_line buf indent;
  add buf keyword;
  add buf name;
  end_line buf

let emit_unit buf (u : punit) =
  unit_header buf u;
  (* type declarations first, then every visibility as a GLOBAL/CLUSTER
     statement, visibility-only decls' before the typed ones' *)
  let vis_decls, type_decls = List.partition visibility_only u.u_decls in
  List.iter (decl_line buf 1) type_decls;
  let visibility d =
    match d.d_vis with
    | Global -> word_line buf 1 "global " d.d_name
    | Cluster -> word_line buf 1 "cluster " d.d_name
    | Default -> ()
  in
  List.iter visibility vis_decls;
  List.iter visibility type_decls;
  List.iter
    (fun cb ->
      start_line buf 1;
      add buf (if cb.c_process then "process common " else "common ");
      if cb.c_name <> "" then begin
        Buffer.add_char buf '/';
        add buf cb.c_name;
        add buf "/ "
      end;
      add_list buf Buffer.add_string cb.c_vars;
      end_line buf)
    u.u_commons;
  equivalence_lines buf u;
  emit_block buf 1 u.u_body;
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
