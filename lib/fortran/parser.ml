(** Recursive-descent parser for fortran77 / Cedar Fortran.

    The lexer delivers one token list per logical statement line; this
    parser recognizes statement keywords positionally (Fortran has no
    reserved words).  Array references are distinguished from function
    calls using the declarations seen so far in the current program unit
    (undeclared names applied to arguments parse as calls, which also
    covers the intrinsics). *)

open Ast

exception Error = Lexer.Error

let error lineno fmt =
  Printf.ksprintf (fun m -> raise (Error (m, lineno))) fmt

type state = {
  lines : Token.line array;
  mutable pos : int;
  mutable arrays : (string, int) Hashtbl.t;  (** array name -> rank *)
  (* set when a labeled-DO terminator line was consumed by an inner loop
     but outer loops sharing the label still need to close *)
  mutable closed_label : int option;
}

let eof st = st.pos >= Array.length st.lines
let peek st = st.lines.(st.pos)
let advance st = st.pos <- st.pos + 1

let cur_lineno st = if eof st then -1 else (peek st).Token.lineno

(* ------------------------------------------------------------------ *)
(* Expression parsing over a single line's token list                  *)
(* ------------------------------------------------------------------ *)

type cursor = { mutable toks : Token.t list; lineno : int }

(* Peeks match on the token list itself, so they allocate nothing; [tok]
   is a constant token, compared physically. *)
let at c tok = match c.toks with t :: _ -> t == tok | [] -> false
let at_end c = match c.toks with [] -> true | _ :: _ -> false

let cnext c =
  match c.toks with
  | [] -> error c.lineno "unexpected end of statement"
  | t :: rest ->
      c.toks <- rest;
      t

let expect c tok what =
  let t = cnext c in
  if not (Token.equal t tok) then
    error c.lineno "expected %s, got %s" what (Token.to_string t)

let expect_ident c =
  match cnext c with
  | Token.Ident s -> s
  | t -> error c.lineno "expected identifier, got %s" (Token.to_string t)

let relop = function
  | Token.OpEq -> Some Eq
  | Token.OpNe -> Some Ne
  | Token.OpLt -> Some Lt
  | Token.OpLe -> Some Le
  | Token.OpGt -> Some Gt
  | Token.OpGe -> Some Ge
  | _ -> None

(* where one position of a subscript list ends, and where one bound of
   a section ends *)
let at_subscript_end c =
  match c.toks with Token.Comma :: _ | Token.RParen :: _ -> true | _ -> false

let at_dim_end c = at c Token.Colon || at_subscript_end c

let rec parse_expr st c = parse_or st c

and parse_or st c =
  let lhs = parse_and st c in
  match c.toks with
  | Token.OpOr :: rest ->
      c.toks <- rest;
      Bin (Or, lhs, parse_or st c)
  | _ -> lhs

and parse_and st c =
  let lhs = parse_not st c in
  match c.toks with
  | Token.OpAnd :: rest ->
      c.toks <- rest;
      Bin (And, lhs, parse_and st c)
  | _ -> lhs

and parse_not st c =
  match c.toks with
  | Token.OpNot :: rest ->
      c.toks <- rest;
      Un (Not, parse_not st c)
  | _ -> parse_rel st c

and parse_rel st c =
  let lhs = parse_additive st c in
  match c.toks with
  | t :: rest -> (
      match relop t with
      | Some op ->
          c.toks <- rest;
          Bin (op, lhs, parse_additive st c)
      | None -> lhs)
  | [] -> lhs

and parse_additive st c =
  (* unary +/- binds looser than * in Fortran: -a*b = -(a*b); we fold the
     leading sign after parsing the first term, which gives the same result
     for the expressions we accept *)
  let first =
    match c.toks with
    | Token.Minus :: rest ->
        c.toks <- rest;
        Un (Neg, parse_term st c)
    | Token.Plus :: rest ->
        c.toks <- rest;
        parse_term st c
    | _ -> parse_term st c
  in
  additive_rest st c first

and additive_rest st c lhs =
  match c.toks with
  | Token.Plus :: rest ->
      c.toks <- rest;
      additive_rest st c (Bin (Add, lhs, parse_term st c))
  | Token.Minus :: rest ->
      c.toks <- rest;
      additive_rest st c (Bin (Sub, lhs, parse_term st c))
  | _ -> lhs

and parse_term st c = term_rest st c (parse_factor st c)

and term_rest st c lhs =
  match c.toks with
  | Token.Star :: rest ->
      c.toks <- rest;
      term_rest st c (Bin (Mul, lhs, parse_factor st c))
  | Token.Slash :: rest ->
      c.toks <- rest;
      term_rest st c (Bin (Div, lhs, parse_factor st c))
  | _ -> lhs

and parse_factor st c =
  let base = parse_primary st c in
  match c.toks with
  | Token.DStar :: rest ->
      c.toks <- rest;
      (* right-associative *)
      Bin (Pow, base, parse_factor st c)
  | _ -> base

and parse_primary st c =
  match cnext c with
  | Token.IntLit n -> Int n
  | Token.RealLit f -> Num f
  | Token.StrLit s -> Str s
  | Token.LogicLit b -> Bool b
  | Token.Minus -> Un (Neg, parse_factor st c)
  | Token.Plus -> parse_factor st c
  | Token.LParen ->
      let e = parse_expr st c in
      expect c Token.RParen ")";
      e
  | Token.Ident name -> (
      match c.toks with
      | Token.LParen :: rest ->
          c.toks <- rest;
          parse_ref st c name
      | _ -> Var name)
  | t -> error c.lineno "unexpected token %s in expression" (Token.to_string t)

(* name '(' already consumed: array element, section, or call *)
and parse_ref st c name =
  let dims = ref [] in
  let finished = ref false in
  if at c Token.RParen then begin
    ignore (cnext c);
    finished := true
  end;
  while not !finished do
    let dim = parse_section_dim st c in
    dims := dim :: !dims;
    match cnext c with
    | Token.Comma -> ()
    | Token.RParen -> finished := true
    | t -> error c.lineno "expected , or ) got %s" (Token.to_string t)
  done;
  let dims = List.rev !dims in
  let has_range = List.exists (function Range _ -> true | Elem _ -> false) dims in
  if has_range then Section (name, dims)
  else
    let args = List.map (function Elem e -> e | Range _ -> assert false) dims in
    if Hashtbl.mem st.arrays name then Idx (name, args) else Call (name, args)

(* one position of a (possibly sectioned) reference: e | e:e | e:e:e | : *)
and parse_section_dim st c =
  let lo = if at_dim_end c then None else Some (parse_expr st c) in
  if not (at c Token.Colon) then
    match lo with
    | Some e -> Elem e
    | None -> error c.lineno "empty subscript"
  else begin
    ignore (cnext c);
    let hi = if at_dim_end c then None else Some (parse_expr st c) in
    if at c Token.Colon then begin
      ignore (cnext c);
      let step = if at_subscript_end c then None else Some (parse_expr st c) in
      Range (lo, hi, step)
    end
    else Range (lo, hi, None)
  end

(* ------------------------------------------------------------------ *)
(* Declaration statements                                              *)
(* ------------------------------------------------------------------ *)

let dtype_of_keyword = function
  | "integer" -> Some Integer
  | "real" -> Some Real
  | "logical" -> Some Logical
  | "character" -> Some Character
  | _ -> None

(* after the type keyword: name [ (dims) ] {, name [ (dims) ]} *)
let parse_decl_names st c ty vis =
  let decls = ref [] in
  let continue_ = ref true in
  while !continue_ do
    let name = expect_ident c in
    let dims =
      match c.toks with
      | Token.LParen :: _ ->
          ignore (cnext c);
          let ds = ref [] in
          let fin = ref false in
          while not !fin do
            (* each dim: expr | expr:expr | '*' *)
            let d =
              match c.toks with
              | Token.Star :: _ ->
                  ignore (cnext c);
                  (Int 1, Int (-1)) (* assumed-size *)
              | _ ->
                  let e1 = parse_expr st c in
                  if at c Token.Colon then begin
                    ignore (cnext c);
                    let e2 = parse_expr st c in
                    (e1, e2)
                  end
                  else (Int 1, e1)
            in
            ds := d :: !ds;
            match cnext c with
            | Token.Comma -> ()
            | Token.RParen -> fin := true
            | t -> error c.lineno "bad dimension list: %s" (Token.to_string t)
          done;
          List.rev !ds
      | _ -> []
    in
    if dims <> [] then Hashtbl.replace st.arrays name (List.length dims);
    decls := { d_name = name; d_type = ty; d_dims = dims; d_vis = vis } :: !decls;
    match c.toks with
    | Token.Comma :: _ -> ignore (cnext c)
    | [] -> continue_ := false
    | t :: _ -> error c.lineno "unexpected %s in declaration" (Token.to_string t)
  done;
  List.rev !decls

(* ------------------------------------------------------------------ *)
(* Statement parsing                                                   *)
(* ------------------------------------------------------------------ *)

let loop_class_of_keyword = function
  | "do" -> Some Seq
  | "cdoall" -> Some Cdoall
  | "sdoall" -> Some Sdoall
  | "xdoall" -> Some Xdoall
  | "cdoacross" -> Some Cdoacross
  | "sdoacross" -> Some Sdoacross
  | "xdoacross" -> Some Xdoacross
  | _ -> None

let rest_cursor (line : Token.line) toks = { toks; lineno = line.Token.lineno }

(* Stop predicates compare a line's tokens in place. *)

let is_kw (line : Token.line) k =
  match line.Token.tokens with Token.Ident k' :: _ -> String.equal k' k | _ -> false

let is_kw2 (line : Token.line) k1 k2 =
  match line.Token.tokens with
  | Token.Ident a :: Token.Ident b :: _ -> String.equal a k1 && String.equal b k2
  | _ -> false

(* the line is exactly the word [k] *)
let is_exact (line : Token.line) k =
  match line.Token.tokens with
  | [ Token.Ident a ] -> String.equal a k
  | _ -> false

(* the line is "end <k>" or "end<k>", e.g. "end do" or "enddo" *)
let is_end (line : Token.line) k endk =
  match line.Token.tokens with
  | [ Token.Ident a ] -> String.equal a endk
  | [ Token.Ident "end"; Token.Ident b ] -> String.equal b k
  | _ -> false

(* does this line END the given loop class? accepts both "end xdoall"
   and "endxdoall" *)
let is_end_of_class cls line =
  match cls with
  | Seq -> is_end line "do" "enddo"
  | Cdoall -> is_end line "cdoall" "endcdoall"
  | Sdoall -> is_end line "sdoall" "endsdoall"
  | Xdoall -> is_end line "xdoall" "endxdoall"
  | Cdoacross -> is_end line "cdoacross" "endcdoacross"
  | Sdoacross -> is_end line "sdoacross" "endsdoacross"
  | Xdoacross -> is_end line "xdoacross" "endxdoacross"

let rec parse_stmts st (stop : Token.line -> bool) : stmt list =
  let acc = ref [] in
  let fin = ref false in
  while not !fin do
    (* an inner labeled DO may have closed on a shared terminator that
       outer frames still need to observe *)
    (match st.closed_label with
    | Some l ->
        if (not (eof st)) && stop { Token.label = l; lineno = 0; tokens = [] }
        then fin := true
        else st.closed_label <- None
    | None -> ());
    if !fin then ()
    else if eof st then fin := true
    else if stop (peek st) then fin := true
    else acc := parse_stmt st :: !acc
  done;
  List.rev !acc

and parse_stmt st : stmt =
  let line = peek st in
  let lbl = line.Token.label in
  let s = parse_stmt_nolabel st in
  if lbl <> 0 then Labeled (lbl, s) else s

and parse_stmt_nolabel st : stmt =
  let line = peek st in
  let ln = line.Token.lineno in
  match line.Token.tokens with
  | Token.Ident "do" :: Token.IntLit lbl :: rest ->
      advance st;
      parse_labeled_do st line lbl rest
  | Token.Ident kw :: rest when Option.is_some (loop_class_of_keyword kw) ->
      advance st;
      let cls = Option.get (loop_class_of_keyword kw) in
      parse_block_do st line cls rest
  | Token.Ident "if" :: rest -> (
      advance st;
      let c = rest_cursor line rest in
      expect c Token.LParen "(";
      let cond = parse_expr st c in
      expect c Token.RParen ")";
      match c.toks with
      | Token.Ident "then" :: _ -> parse_block_if st cond
      | _ ->
          (* one-line logical IF *)
          let body = parse_inline_stmt st line c in
          If (cond, [ body ], []))
  | Token.Ident "where" :: rest -> (
      advance st;
      let c = rest_cursor line rest in
      expect c Token.LParen "(";
      let mask = parse_expr st c in
      expect c Token.RParen ")";
      match c.toks with
      | [] ->
          (* block WHERE *)
          let body =
            parse_stmts st (fun l ->
                is_end l "where" "endwhere")
          in
          if eof st then error ln "missing ENDWHERE";
          advance st;
          Where (mask, body)
      | _ :: _ ->
          let s = parse_inline_stmt st line c in
          Where (mask, [ s ]))
  | Token.Ident "call" :: rest ->
      advance st;
      let c = rest_cursor line rest in
      parse_call st c
  | [ Token.Ident "return" ] ->
      advance st;
      Return
  | [ Token.Ident "stop" ] ->
      advance st;
      Stop
  | [ Token.Ident "continue" ] ->
      advance st;
      Continue
  | Token.Ident "goto" :: [ Token.IntLit n ] ->
      advance st;
      Goto n
  | Token.Ident "go" :: Token.Ident "to" :: [ Token.IntLit n ] ->
      advance st;
      Goto n
  | Token.Ident "print" :: Token.Star :: rest ->
      advance st;
      let c = rest_cursor line rest in
      let args =
        match c.toks with
        | [] -> []
        | Token.Comma :: _ ->
            ignore (cnext c);
            parse_expr_list st c
        | _ :: _ -> error ln "expected , after print *"
      in
      Print args
  | Token.Ident "write" :: Token.LParen :: Token.Star :: Token.Comma
    :: Token.Star :: Token.RParen :: rest ->
      advance st;
      let c = rest_cursor line rest in
      let args = if at_end c then [] else parse_expr_list st c in
      Print args
  | Token.Ident "read" :: Token.Star :: Token.Comma :: rest
  | Token.Ident "read" :: Token.LParen :: Token.Star :: Token.Comma
    :: Token.Star :: Token.RParen :: rest ->
      advance st;
      let c = rest_cursor line rest in
      let ls = ref [ parse_lhs st c ] in
      while at c Token.Comma do
        ignore (cnext c);
        ls := parse_lhs st c :: !ls
      done;
      Read (List.rev !ls)
  | _ ->
      (* assignment *)
      advance st;
      let c = rest_cursor line line.Token.tokens in
      let lhs = parse_lhs st c in
      expect c Token.Assign "=";
      let rhs = parse_expr st c in
      (match c.toks with
      | [] -> ()
      | t :: _ -> error ln "trailing token %s after assignment" (Token.to_string t));
      Assign (lhs, rhs)

(* a statement embedded after IF(...) or WHERE(...) on the same line *)
and parse_inline_stmt st line c : stmt =
  match c.toks with
  | Token.Ident "call" :: _ ->
      ignore (cnext c);
      parse_call st c
  | Token.Ident "goto" :: _ -> (
      ignore (cnext c);
      match cnext c with
      | Token.IntLit n -> Goto n
      | t -> error line.Token.lineno "goto %s" (Token.to_string t))
  | Token.Ident "return" :: _ ->
      ignore (cnext c);
      Return
  | Token.Ident "stop" :: _ ->
      ignore (cnext c);
      Stop
  | Token.Ident "print" :: _ ->
      ignore (cnext c);
      expect c Token.Star "*";
      let args =
        match c.toks with
        | [] -> []
        | Token.Comma :: _ ->
            ignore (cnext c);
            parse_expr_list st c
        | _ :: _ -> error line.Token.lineno "bad print"
      in
      Print args
  | _ :: _ ->
      let lhs = parse_lhs st c in
      expect c Token.Assign "=";
      let rhs = parse_expr st c in
      Assign (lhs, rhs)
  | [] -> error line.Token.lineno "missing statement after IF(...)"

and parse_call st c =
  let name = expect_ident c in
  let args =
    match c.toks with
    | Token.LParen :: _ ->
        ignore (cnext c);
        if at c Token.RParen then begin
          ignore (cnext c);
          []
        end
        else begin
          let args = parse_expr_list st c in
          expect c Token.RParen ")";
          args
        end
    | _ -> []
  in
  CallSt (name, args)

and parse_expr_list st c =
  let acc = ref [ parse_expr st c ] in
  while at c Token.Comma do
    ignore (cnext c);
    acc := parse_expr st c :: !acc
  done;
  List.rev !acc

and parse_lhs st c : lhs =
  let name = expect_ident c in
  match c.toks with
  | Token.LParen :: _ -> (
      ignore (cnext c);
      match parse_ref st c name with
      | Idx (n, args) -> LIdx (n, args)
      | Section (n, dims) -> LSection (n, dims)
      | Call (n, args) ->
          (* an assignment to an undeclared array: register it *)
          Hashtbl.replace st.arrays n (List.length args);
          LIdx (n, args)
      | _ -> assert false)
  | _ -> LVar name

(* DO hdr already consumed; block form ends with ENDDO / END DO, or for
   concurrent classes with END <CLS>; may carry local decls / LOOP /
   ENDLOOP structure (Cedar) *)
and parse_block_do st line cls rest =
  let c = rest_cursor line rest in
  let index = expect_ident c in
  expect c Token.Assign "=";
  let lo = parse_expr st c in
  expect c Token.Comma ",";
  let hi = parse_expr st c in
  let step =
    if at c Token.Comma then begin
      ignore (cnext c);
      Some (parse_expr st c)
    end
    else None
  in
  if cls = Seq then begin
    let body =
      parse_stmts st (fun l ->
          is_end_of_class Seq l)
    in
    if eof st then error line.Token.lineno "missing ENDDO";
    advance st;
    Do ({ index; lo; hi; step; cls; locals = [] }, seq_block body)
  end
  else begin
    (* local declarations *)
    let locals = ref [] in
    let rec scan_locals () =
      if eof st then ()
      else
        let l = peek st in
        match l.Token.tokens with
        | Token.Ident kw :: rest when Option.is_some (dtype_of_keyword kw) ->
            advance st;
            let c = rest_cursor l rest in
            locals :=
              !locals
              @ parse_decl_names st c (Option.get (dtype_of_keyword kw)) Default;
            scan_locals ()
        | Token.Ident "double" :: Token.Ident "precision" :: rest ->
            advance st;
            let c = rest_cursor l rest in
            locals := !locals @ parse_decl_names st c Double Default;
            scan_locals ()
        | _ -> ()
    in
    scan_locals ();
    let stop l = is_exact l "loop" || is_end_of_class cls l in
    let first = parse_stmts st stop in
    if eof st then error line.Token.lineno "missing END %s" (loop_keyword cls);
    let blk =
      if is_exact (peek st) "loop" then begin
        advance st;
        let body = parse_stmts st (fun l -> is_exact l "endloop") in
        if eof st then error line.Token.lineno "missing ENDLOOP";
        advance st;
        let post = parse_stmts st (fun l -> is_end_of_class cls l) in
        if eof st then
          error line.Token.lineno "missing END %s" (loop_keyword cls);
        advance st;
        { preamble = first; body; postamble = post }
      end
      else begin
        advance st;
        { preamble = []; body = first; postamble = [] }
      end
    in
    Do ({ index; lo; hi; step; cls; locals = !locals }, blk)
  end

(* DO <label> i = ... : terminated by the line carrying <label> *)
and parse_labeled_do st line lbl rest =
  let c = rest_cursor line rest in
  let index = expect_ident c in
  expect c Token.Assign "=";
  let lo = parse_expr st c in
  expect c Token.Comma ",";
  let hi = parse_expr st c in
  let step =
    if at c Token.Comma then begin
      ignore (cnext c);
      Some (parse_expr st c)
    end
    else None
  in
  let body = parse_stmts st (fun l -> l.Token.label = lbl) in
  let body =
    match st.closed_label with
    | Some l when l = lbl ->
        (* terminator already consumed by an inner loop sharing the label *)
        body
    | _ ->
        if eof st then error line.Token.lineno "missing terminator label %d" lbl;
        let term = parse_stmt st in
        st.closed_label <- Some lbl;
        body @ [ term ]
  in
  Do ({ index; lo; hi; step; cls = Seq; locals = [] }, seq_block body)

and parse_block_if st cond =
  let stop l =
    is_end l "if" "endif" || is_kw l "else" || is_kw l "elseif"
  in
  let then_branch = parse_stmts st stop in
  if eof st then error (cur_lineno st) "missing ENDIF";
  let line = peek st in
  if is_end line "if" "endif" then begin
    advance st;
    If (cond, then_branch, [])
  end
  else if is_kw line "elseif" || is_kw2 line "else" "if" then begin
    advance st;
    let toks =
      match line.Token.tokens with
      | Token.Ident "elseif" :: r -> r
      | Token.Ident "else" :: Token.Ident "if" :: r -> r
      | _ -> assert false
    in
    let c = rest_cursor line toks in
    expect c Token.LParen "(";
    let cond2 = parse_expr st c in
    expect c Token.RParen ")";
    (match c.toks with
    | Token.Ident "then" :: _ -> ()
    | _ -> error line.Token.lineno "expected THEN after ELSE IF (...)");
    let nested = parse_block_if st cond2 in
    If (cond, then_branch, [ nested ])
  end
  else begin
    (* else: but careful, "else if" handled above via is_kw "else" - need
       to distinguish plain ELSE from ELSE IF *)
    match line.Token.tokens with
    | [ Token.Ident "else" ] ->
        advance st;
        let else_branch =
          parse_stmts st (fun l ->
              is_end l "if" "endif")
        in
        if eof st then error line.Token.lineno "missing ENDIF";
        advance st;
        If (cond, then_branch, else_branch)
    | Token.Ident "else" :: Token.Ident "if" :: _ ->
        (* handled in branch above; unreachable *)
        assert false
    | _ -> error line.Token.lineno "expected ELSE or ENDIF"
  end

(* ------------------------------------------------------------------ *)
(* Program units                                                       *)
(* ------------------------------------------------------------------ *)

let parse_formals c =
  match c.toks with
  | Token.LParen :: _ ->
      ignore (cnext c);
      if at c Token.RParen then begin
        ignore (cnext c);
        []
      end
      else begin
        let acc = ref [ expect_ident c ] in
        while at c Token.Comma do
          ignore (cnext c);
          acc := expect_ident c :: !acc
        done;
        expect c Token.RParen ")";
        List.rev !acc
      end
  | _ -> []

let parse_unit st : punit =
  st.arrays <- Hashtbl.create 16;
  let line = peek st in
  let ln = line.Token.lineno in
  let name, kind =
    match line.Token.tokens with
    | Token.Ident "program" :: [ Token.Ident n ] ->
        advance st;
        (n, Program)
    | Token.Ident "subroutine" :: Token.Ident n :: rest ->
        advance st;
        let c = rest_cursor line rest in
        (n, Subroutine (parse_formals c))
    | Token.Ident "function" :: Token.Ident n :: rest ->
        advance st;
        let c = rest_cursor line rest in
        (n, Function (Real, parse_formals c))
    | Token.Ident ty :: Token.Ident "function" :: Token.Ident n :: rest
      when Option.is_some (dtype_of_keyword ty) ->
        advance st;
        let c = rest_cursor line rest in
        (n, Function (Option.get (dtype_of_keyword ty), parse_formals c))
    | Token.Ident "double" :: Token.Ident "precision" :: Token.Ident "function"
      :: Token.Ident n :: rest ->
        advance st;
        let c = rest_cursor line rest in
        (n, Function (Double, parse_formals c))
    | _ -> error ln "expected PROGRAM, SUBROUTINE or FUNCTION"
  in
  let decls = ref [] in
  let commons = ref [] in
  let equivs = ref [] in
  let params = ref [] in
  (* declaration section *)
  let parse_common_vars c process =
    let cname =
      if at c Token.Slash then begin
        ignore (cnext c);
        let n = expect_ident c in
        expect c Token.Slash "/";
        n
      end
      else ""
    in
    let vars = ref [ expect_ident c ] in
    (* skip any dims appearing in common decls: common /b/ a(10) *)
    let skip_dims () =
      if at c Token.LParen then begin
        let depth = ref 0 in
        let fin = ref false in
        while not !fin do
          match cnext c with
          | Token.LParen -> incr depth
          | Token.RParen ->
              decr depth;
              if !depth = 0 then fin := true
          | _ -> ()
        done
      end
    in
    skip_dims ();
    while at c Token.Comma do
      ignore (cnext c);
      vars := expect_ident c :: !vars;
      skip_dims ()
    done;
    commons :=
      { c_name = cname; c_vars = List.rev !vars; c_process = process }
      :: !commons
  in
  let rec decl_loop () =
    if eof st then ()
    else
      let l = peek st in
      let continue_decl c =
        decl_loop c;
        ()
      in
      ignore continue_decl;
      match l.Token.tokens with
      | Token.Ident kw :: rest when Option.is_some (dtype_of_keyword kw) -> (
          (* could be "real function..." caught above, or a decl; also
             guard against "real x" executable?? no: decls first. But an
             assignment like "realvar = 1" lexes as single ident, fine *)
          match rest with
          | Token.Ident _ :: _ | [] ->
              advance st;
              let c = rest_cursor l rest in
              decls :=
                !decls
                @ parse_decl_names st c (Option.get (dtype_of_keyword kw)) Default;
              decl_loop ()
          | _ -> ())
      | Token.Ident "double" :: Token.Ident "precision" :: rest ->
          advance st;
          let c = rest_cursor l rest in
          decls := !decls @ parse_decl_names st c Double Default;
          decl_loop ()
      | Token.Ident "dimension" :: rest ->
          advance st;
          let c = rest_cursor l rest in
          decls := !decls @ parse_decl_names st c Real Default;
          decl_loop ()
      | Token.Ident "global" :: rest ->
          advance st;
          let c = rest_cursor l rest in
          let names = ref [ expect_ident c ] in
          while at c Token.Comma do
            ignore (cnext c);
            names := expect_ident c :: !names
          done;
          List.iter
            (fun n ->
              decls :=
                !decls @ [ { d_name = n; d_type = Real; d_dims = []; d_vis = Global } ])
            (List.rev !names);
          decl_loop ()
      | Token.Ident "cluster" :: rest ->
          advance st;
          let c = rest_cursor l rest in
          let names = ref [ expect_ident c ] in
          while at c Token.Comma do
            ignore (cnext c);
            names := expect_ident c :: !names
          done;
          List.iter
            (fun n ->
              decls :=
                !decls
                @ [ { d_name = n; d_type = Real; d_dims = []; d_vis = Cluster } ])
            (List.rev !names);
          decl_loop ()
      | Token.Ident "common" :: rest ->
          advance st;
          parse_common_vars (rest_cursor l rest) false;
          decl_loop ()
      | Token.Ident "process" :: Token.Ident "common" :: rest ->
          advance st;
          parse_common_vars (rest_cursor l rest) true;
          decl_loop ()
      | Token.Ident "parameter" :: rest ->
          advance st;
          let c = rest_cursor l rest in
          expect c Token.LParen "(";
          let fin = ref false in
          while not !fin do
            let n = expect_ident c in
            expect c Token.Assign "=";
            let e = parse_expr st c in
            params := (n, e) :: !params;
            match cnext c with
            | Token.Comma -> ()
            | Token.RParen -> fin := true
            | t -> error l.Token.lineno "bad PARAMETER: %s" (Token.to_string t)
          done;
          decl_loop ()
      | Token.Ident "equivalence" :: rest ->
          advance st;
          let c = rest_cursor l rest in
          let groups = ref [] in
          let fin = ref false in
          while not !fin do
            expect c Token.LParen "(";
            let names = ref [] in
            let gfin = ref false in
            while not !gfin do
              let n = expect_ident c in
              (* skip element subscripts *)
              if at c Token.LParen then begin
                let depth = ref 0 in
                let dfin = ref false in
                while not !dfin do
                  match cnext c with
                  | Token.LParen -> incr depth
                  | Token.RParen ->
                      decr depth;
                      if !depth = 0 then dfin := true
                  | _ -> ()
                done
              end;
              names := n :: !names;
              match cnext c with
              | Token.Comma -> ()
              | Token.RParen -> gfin := true
              | t -> error l.Token.lineno "bad EQUIVALENCE: %s" (Token.to_string t)
            done;
            (match List.rev !names with
            | a :: rest -> groups := List.map (fun b -> (a, b)) rest :: !groups
            | [] -> ());
            if at c Token.Comma then ignore (cnext c) else fin := true
          done;
          equivs := !equivs @ List.rev !groups;
          decl_loop ()
      | Token.Ident "implicit" :: _ ->
          advance st;
          decl_loop ()
      | _ -> ()
  in
  decl_loop ();
  let body = parse_stmts st (fun l -> is_exact l "end") in
  if eof st then error ln "missing END for unit %s" name;
  advance st;
  {
    u_name = name;
    u_kind = kind;
    u_decls = !decls;
    u_commons = List.rev !commons;
    u_equivs = !equivs;
    u_params = List.rev !params;
    u_body = body;
  }

(** Parse a complete source file into program units. *)
let parse_program src : program =
  let lines = Array.of_list (Lexer.lex src) in
  let st = { lines; pos = 0; arrays = Hashtbl.create 16; closed_label = None } in
  let units = ref [] in
  while not (eof st) do
    units := parse_unit st :: !units
  done;
  List.rev !units

(** Parse a single expression, for tests and tools.  Bypasses the
    logical-line layer so a leading integer is a literal, not a label. *)
let parse_expr_string src : expr =
  let toks = Lexer.tokenize_line 1 src in
  let st =
    { lines = [||]; pos = 0; arrays = Hashtbl.create 1; closed_label = None }
  in
  let c = { toks; lineno = 1 } in
  let e = parse_expr st c in
  (match c.toks with
  | [] -> ()
  | t :: _ -> error 1 "trailing token %s in expression" (Token.to_string t));
  e
