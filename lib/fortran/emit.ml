(** Line- and expression-level emission core shared by every code
    generation backend.

    {!Printer} (Cedar Fortran) and the OpenMP backend both print
    expressions, declarations and fixed-form source lines identically;
    only statement- and unit-level structure differs between targets.
    That shared layer lives here so a backend cannot drift on expression
    syntax: the precedence/parenthesization logic has exactly one home.

    Everything is written straight into the output buffer: no expression
    or line is built as a string of its own first. *)

open Ast

let add = Buffer.add_string
let add_char = Buffer.add_char

let prec_of = function
  | Bin (Or, _, _) -> 1
  | Bin (And, _, _) -> 2
  | Un (Not, _) -> 3
  | Bin ((Eq | Ne | Lt | Le | Gt | Ge), _, _) -> 4
  | Bin ((Add | Sub), _, _) -> 5
  | Un (Neg, _) -> 5
  | Bin ((Mul | Div), _, _) -> 6
  | Bin (Pow, _, _) -> 7
  | Int _ | Num _ | Str _ | Bool _ | Var _ | Idx _ | Section _ | Call _ -> 9

and binop_str = function
  | Add -> " + "
  | Sub -> " - "
  | Mul -> "*"
  | Div -> "/"
  | Pow -> "**"
  | Eq -> " .eq. "
  | Ne -> " .ne. "
  | Lt -> " .lt. "
  | Le -> " .le. "
  | Gt -> " .gt. "
  | Ge -> " .ge. "
  | And -> " .and. "
  | Or -> " .or. "

let float_lit f =
  if Float.is_integer f && Float.abs f < 1e16 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.10g" f

(* the decimal digits of [n], as [string_of_int] prints them *)
let rec add_nat buf n =
  if n >= 10 then add_nat buf (n / 10);
  add_char buf (Char.unsafe_chr (Char.code '0' + (n mod 10)))

let add_int buf n = if n >= 0 then add_nat buf n else add buf (string_of_int n)

(* [items], separated by ", " *)
let rec add_list buf add_item = function
  | [] -> ()
  | x :: rest ->
      add_item buf x;
      add_rest buf add_item rest

and add_rest buf add_item = function
  | [] -> ()
  | x :: rest ->
      add buf ", ";
      add_item buf x;
      add_rest buf add_item rest

(* a string literal, each quote doubled as the lexer reads it back *)
let add_str buf s =
  add_char buf '\'';
  String.iter
    (fun c ->
      if c = '\'' then add buf "''" else add_char buf c)
    s;
  add_char buf '\''

let rec add_expr buf e =
  match e with
  | Int n ->
      if n < 0 then begin
        add_char buf '(';
        add_int buf n;
        add_char buf ')'
      end
      else add_nat buf n
  | Num f ->
      if f < 0.0 then begin
        add_char buf '(';
        add buf (float_lit f);
        add_char buf ')'
      end
      else add buf (float_lit f)
  | Str s -> add_str buf s
  | Bool true -> add buf ".true."
  | Bool false -> add buf ".false."
  | Var v -> add buf v
  | Idx (a, args) | Call (a, args) -> add_apply buf a add_expr args
  | Section (a, dims) -> add_apply buf a add_section_dim dims
  | Bin (op, a, b) ->
      let p = prec_of e in
      (* a left operand of equal precedence needs parentheses where the
         parser nests to the right: ** ((x**y)**z), .and. and .or.
         ((a .and. b) .and. c), and a relational operator, which takes
         one relational operator per operand ((a .lt. b) .lt. c) *)
      let need_lparen =
        match op with
        | Pow | And | Or | Eq | Ne | Lt | Le | Gt | Ge -> prec_of a <= p
        | Add | Sub | Mul | Div -> prec_of a < p
      in
      add_operand buf need_lparen a;
      add buf (binop_str op);
      (* a right operand of equal precedence needs them where the parser
         nests to the left (- and /, and + and * alike) and under a
         relational operator; ** .and. .or. nest to the right *)
      let need_rparen =
        match op with
        | Pow | And | Or -> prec_of b < p
        | Add | Sub | Mul | Div | Eq | Ne | Lt | Le | Gt | Ge -> prec_of b <= p
      in
      add_operand buf need_rparen b
  | Un (Neg, a) ->
      (* a nested unary minus or additive child must be parenthesized:
         "--c*a" would reparse with the inner minus binding tighter *)
      add_char buf '-';
      add_operand buf (prec_of a <= prec_of e) a
  | Un (Not, a) ->
      add buf ".not. ";
      add_operand buf (prec_of a < prec_of e) a

and add_operand buf paren e =
  if paren then begin
    add_char buf '(';
    add_expr buf e;
    add_char buf ')'
  end
  else add_expr buf e

(* [name(item, ...)] *)
and add_apply : 'a. Buffer.t -> string -> (Buffer.t -> 'a -> unit) -> 'a list -> unit =
 fun buf name add_item items ->
  add buf name;
  add_char buf '(';
  add_list buf add_item items;
  add_char buf ')'

and add_section_dim buf = function
  | Elem e -> add_expr buf e
  | Range (lo, hi, step) ->
      add_bound buf lo;
      add_char buf ':';
      add_bound buf hi;
      if Option.is_some step then add_char buf ':';
      add_bound buf step

and add_bound buf = function Some e -> add_expr buf e | None -> ()

let expr_str e =
  let buf = Buffer.create 64 in
  add_expr buf e;
  Buffer.contents buf

let add_lhs buf = function
  | LVar v -> add buf v
  | LIdx (a, args) -> add_apply buf a add_expr args
  | LSection (a, dims) -> add_apply buf a add_section_dim dims

let dtype_str = function
  | Integer -> "integer"
  | Real -> "real"
  | Double -> "double precision"
  | Logical -> "logical"
  | Character -> "character"

let add_dim buf (lo, hi) =
  match (lo, hi) with
  | Int 1, Int -1 -> add_char buf '*'
  | Int 1, hi -> add_expr buf hi
  | lo, hi ->
      add_expr buf lo;
      add_char buf ':';
      add_expr buf hi

let add_decl buf d =
  add buf (dtype_str d.d_type);
  add_char buf ' ';
  add buf d.d_name;
  match d.d_dims with
  | [] -> ()
  | dims ->
      add_char buf '(';
      add_list buf add_dim dims;
      add_char buf ')'

(* A source line is [start_line], its text, [end_line]: six blanks for
   the label field, then two spaces per indent level. *)
let start_line buf indent =
  add buf "      ";
  for _ = 1 to indent do
    add buf "  "
  done

let end_line buf = add_char buf '\n'

let emit_line buf indent text =
  start_line buf indent;
  add buf text;
  end_line buf

(* The text of a statement that prints on one line, the same in both
   targets. *)
let add_simple_stmt buf = function
  | Assign (l, e) ->
      add_lhs buf l;
      add buf " = ";
      add_expr buf e
  | CallSt (n, []) ->
      add buf "call ";
      add buf n
  | CallSt (n, args) ->
      add buf "call ";
      add_apply buf n add_expr args
  | Return -> add buf "return"
  | Stop -> add buf "stop"
  | Continue -> add buf "continue"
  | Goto n ->
      add buf "goto ";
      add_int buf n
  | Print [] -> add buf "print *"
  | Print args ->
      add buf "print *, ";
      add_list buf add_expr args
  | Read ls ->
      add buf "read *, ";
      add_list buf add_lhs ls
  | (If _ | Where _ | Do _ | Labeled _) as s ->
      invalid_arg ("Emit.add_simple_stmt: " ^ show_stmt s)

let simple_line buf indent s =
  start_line buf indent;
  add_simple_stmt buf s;
  end_line buf

(* Runs [write] and puts [label] in the label field of the first line it
   wrote: the label, right-aligned in four columns, replaces the first
   four characters. *)
let relabel buf label write =
  let start = Buffer.length buf in
  write ();
  let len = Buffer.length buf - start in
  if len > 4 then begin
    let rest = Buffer.sub buf (start + 4) (len - 4) in
    Buffer.truncate buf start;
    let digits = string_of_int label in
    for _ = String.length digits to 3 do
      add_char buf ' '
    done;
    add buf digits;
    add buf rest
  end

(* The unit's header line and its PARAMETER lines, the same in both
   targets. *)
let unit_header buf (u : punit) =
  start_line buf 0;
  (match u.u_kind with
  | Program ->
      add buf "program ";
      add buf u.u_name
  | Subroutine ps ->
      add buf "subroutine ";
      add_apply buf u.u_name Buffer.add_string ps
  | Function (ty, ps) ->
      add buf (dtype_str ty);
      add buf " function ";
      add_apply buf u.u_name Buffer.add_string ps);
  end_line buf;
  List.iter
    (fun (n, e) ->
      start_line buf 1;
      add buf "parameter (";
      add buf n;
      add buf " = ";
      add_expr buf e;
      add_char buf ')';
      end_line buf)
    u.u_params

let decl_line buf indent d =
  start_line buf indent;
  add_decl buf d;
  end_line buf

let equivalence_lines buf (u : punit) =
  List.iter
    (List.iter (fun (a, b) ->
         start_line buf 1;
         add buf "equivalence (";
         add buf a;
         add buf ", ";
         add buf b;
         add_char buf ')';
         end_line buf))
    u.u_equivs
