(** Lexer for fortran77 / Cedar Fortran source.

    Accepts a pragmatic mix of fixed and free form:
    - comment lines start with [c], [C], [*] or [!] in column one, or are
      blank; trailing [!] comments are stripped outside strings;
    - a statement label is an integer at the start of a line;
    - continuations: a trailing [&], a leading [&], or any non-blank,
      non-label character in column 6 of a line whose columns 1-5 are blank
      (classic fixed form);
    - keywords must be blank-separated from what follows ([DO 10 I] yes,
      [DO10I] no), which every source in this repository satisfies.

    The source is scanned once, by index.  A logical line is a range of
    the source; only a continued line gets a string of its own.  Errors
    keep the order of a line-splitting pass followed by a tokenizing
    pass: an out-of-range label first, then the last dangling [&] in the
    file, then the first error inside a line. *)

exception Error of string * int  (** message, line number *)

let error lineno fmt = Printf.ksprintf (fun m -> raise (Error (m, lineno))) fmt

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_alnum c = is_alpha c || is_digit c

(* the characters [String.trim] drops *)
let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let rec all_space s i e = i >= e || (is_space s.[i] && all_space s (i + 1) e)

(* The value of the digits [s.[i..j)], or an error naming them. *)
let int_of_digits lineno what s i j =
  let rec go n k =
    if k = j then n
    else
      let d = Char.code s.[k] - Char.code '0' in
      if n > (max_int - d) / 10 then
        error lineno "%s %s out of range" what (String.sub s i (j - i))
      else go ((n * 10) + d) (k + 1)
  in
  go 0 i

let lower s i j =
  let b = Bytes.create (j - i) in
  for k = i to j - 1 do
    Bytes.unsafe_set b (k - i) (Char.lowercase_ascii (String.unsafe_get s k))
  done;
  Bytes.unsafe_to_string b

(* [s.[i..j)] equals the lower-case word [w], ignoring case *)
let word_is s i j w =
  j - i = String.length w
  &&
  let rec go k = k = j || (Char.lowercase_ascii s.[k] = w.[k - i] && go (k + 1)) in
  go i

let dotted lineno s i j =
  let is = word_is s i j in
  if is "eq" then Token.OpEq
  else if is "ne" then Token.OpNe
  else if is "lt" then Token.OpLt
  else if is "le" then Token.OpLe
  else if is "gt" then Token.OpGt
  else if is "ge" then Token.OpGe
  else if is "and" then Token.OpAnd
  else if is "or" then Token.OpOr
  else if is "not" then Token.OpNot
  else if is "true" then Token.LogicLit true
  else if is "false" then Token.LogicLit false
  else error lineno "unknown dotted operator .%s." (lower s i j)

(* a real literal's text with its d/D exponent marker read as e *)
let real_of s i j =
  let b = Bytes.create (j - i) in
  for k = i to j - 1 do
    Bytes.unsafe_set b (k - i)
      (match String.unsafe_get s k with 'd' | 'D' -> 'e' | c -> c)
  done;
  float_of_string (Bytes.unsafe_to_string b)

(* the body of the string literal [s.[i..j)], each '' read as ' *)
let undouble s i j =
  let b = Buffer.create (j - i) in
  let k = ref i in
  while !k < j do
    Buffer.add_char b s.[!k];
    k := if s.[!k] = '\'' then !k + 2 else !k + 1
  done;
  Buffer.contents b

(* Tokens of [s.[i..e)], in order: the list is built front to back. *)
let[@tail_mod_cons] rec tokens lineno s i e =
  if i >= e then []
  else
    let c = String.unsafe_get s i in
    if c = ' ' || c = '\t' || c = '\r' then tokens lineno s (i + 1) e
    else if is_digit c || (c = '.' && i + 1 < e && is_digit s.[i + 1]) then begin
      (* numeric literal: integer, or real with . e E d D exponent *)
      let k = ref i and seen_dot = ref false and seen_exp = ref false in
      let go = ref true in
      while !go && !k < e do
        let c = s.[!k] in
        if is_digit c then incr k
        else if c = '.' && (not !seen_dot) && not !seen_exp then
          (* ".and." etc must not swallow: a dot followed by a letter
             terminates the number *)
          if !k + 1 < e && is_alpha s.[!k + 1] then go := false
          else begin
            seen_dot := true;
            incr k
          end
        else if
          (c = 'e' || c = 'E' || c = 'd' || c = 'D')
          && (not !seen_exp)
          && !k + 1 < e
          && (is_digit s.[!k + 1]
             || ((s.[!k + 1] = '+' || s.[!k + 1] = '-')
                && !k + 2 < e
                && is_digit s.[!k + 2]))
        then begin
          seen_exp := true;
          k := !k + (if is_digit s.[!k + 1] then 1 else 2)
        end
        else go := false
      done;
      let tok =
        if !seen_dot || !seen_exp then Token.RealLit (real_of s i !k)
        else Token.IntLit (int_of_digits lineno "integer literal" s i !k)
      in
      tok :: tokens lineno s !k e
    end
    else if is_alpha c then begin
      let k = ref (i + 1) in
      while !k < e && is_alnum s.[!k] do
        incr k
      done;
      let tok = Token.Ident (lower s i !k) in
      tok :: tokens lineno s !k e
    end
    else if c = '\'' then begin
      let k = ref (i + 1) and doubled = ref false and fin = ref false in
      while not !fin do
        if !k >= e then error lineno "unterminated string literal"
        else if s.[!k] = '\'' then
          if !k + 1 < e && s.[!k + 1] = '\'' then begin
            doubled := true;
            k := !k + 2
          end
          else fin := true
        else incr k
      done;
      let body =
        if !doubled then undouble s (i + 1) !k else String.sub s (i + 1) (!k - i - 1)
      in
      let tok = Token.StrLit body in
      tok :: tokens lineno s (!k + 1) e
    end
    else if c = '.' then begin
      (* dotted operator or logical literal *)
      let j = ref (i + 1) in
      while !j < e && is_alpha s.[!j] do
        incr j
      done;
      if !j < e && s.[!j] = '.' then begin
        let tok = dotted lineno s (i + 1) !j in
        tok :: tokens lineno s (!j + 1) e
      end
      else raise (Error ("stray '.'", lineno))
    end
    else
      let second = if i + 1 < e then s.[i + 1] else ' ' in
      let tok =
        match c with
        | '+' -> Token.Plus
        | '-' -> Token.Minus
        | '*' -> if second = '*' then Token.DStar else Token.Star
        | '/' -> if second = '=' then Token.OpNe else Token.Slash
        | '(' -> Token.LParen
        | ')' -> Token.RParen
        | ',' -> Token.Comma
        | ':' -> Token.Colon
        | '=' -> if second = '=' then Token.OpEq else Token.Assign
        | '<' -> if second = '=' then Token.OpLe else Token.OpLt
        | '>' -> if second = '=' then Token.OpGe else Token.OpGt
        | c -> error lineno "unexpected character %c" c
      in
      (* every two-character operator is one of these *)
      let next =
        match tok with
        | Token.DStar | Token.OpNe | Token.OpEq | Token.OpLe | Token.OpGe -> i + 2
        | _ -> i + 1
      in
      tok :: tokens lineno s next e

let tokenize_line lineno s = tokens lineno s 0 (String.length s)

(* Fixed-form continuation: columns 1-5 blank, column 6 non-blank non-'0'. *)
let is_fixed_continuation s i e =
  e - i >= 6
  && s.[i] = ' ' && s.[i + 1] = ' ' && s.[i + 2] = ' ' && s.[i + 3] = ' '
  && s.[i + 4] = ' ' && s.[i + 5] <> ' ' && s.[i + 5] <> '0'

(* The end of [s.[i..e)] with a trailing '!' comment cut, respecting
   '...' strings. *)
let bang_cut s i e =
  let rec scan k in_str =
    if k >= e then e
    else
      match s.[k] with
      | '\'' -> scan (k + 1) (not in_str)
      | '!' when not in_str -> k
      | _ -> scan (k + 1) in_str
  in
  scan i false

(* A finished logical line waiting on a trailing '&': its text is
   [f_text.[f_start..f_stop)]. *)
type finished = {
  f_label : int;
  f_lineno : int;
  f_text : string;
  f_start : int;
  f_stop : int;
}

(** Lex a whole source text into labeled token lines. *)
let lex src : Token.line list =
  let n = String.length src in
  let out = ref [] in
  (* the first error inside a line, raised once no dangling '&' is found *)
  let line_error = ref None in
  (* line of the last '&' with nothing to continue into, 0 if none *)
  let dangling = ref 0 in
  (* finished lines ending in '&', newest first *)
  let chain = ref [] in
  let emit label lineno s i e =
    match !line_error with
    | Some _ -> ()
    | None -> (
        match tokens lineno s i e with
        | toks -> out := { Token.label; lineno; tokens = toks } :: !out
        | exception Error (m, l) -> line_error := Some (m, l))
  in
  (* a trailing '&' splices in the next line if it has no label; a chain
     of them is spliced right to left, each '&' replaced by a blank *)
  let rec finish label lineno s i e =
    let amp = e > i && s.[e - 1] = '&' in
    let link () =
      { f_label = label; f_lineno = lineno; f_text = s; f_start = i; f_stop = e }
    in
    match !chain with
    | [] -> if amp then chain := [ link () ] else emit label lineno s i e
    | newest :: _ when label <> 0 ->
        (* a labeled line continues nothing: the newest '&' dangles *)
        dangling := newest.f_lineno;
        chain := [];
        finish label lineno s i e
    | _ when amp -> chain := link () :: !chain
    | links ->
        let text =
          List.fold_left
            (fun acc f ->
              String.trim
                (String.sub f.f_text f.f_start (f.f_stop - f.f_start - 1)
                ^ " " ^ acc))
            (String.sub s i (e - i))
            links
        in
        let first = List.hd (List.rev links) in
        chain := [];
        emit first.f_label first.f_lineno text 0 (String.length text)
  in
  (* the logical line being read: [src.[cur_start..cur_stop)], or [cont]
     once a continuation has been appended *)
  let started = ref false in
  let cur_label = ref 0 and cur_lineno = ref 0 in
  let cur_start = ref 0 and cur_stop = ref 0 in
  let cont = ref None in
  let continue_with i e =
    let b =
      match !cont with
      | Some b -> b
      | None ->
          let b = Buffer.create (2 * (!cur_stop - !cur_start + e - i)) in
          Buffer.add_substring b src !cur_start (!cur_stop - !cur_start);
          cont := Some b;
          b
    in
    Buffer.add_char b ' ';
    Buffer.add_substring b src i (e - i)
  in
  let close () =
    if !started then
      match !cont with
      | None -> finish !cur_label !cur_lineno src !cur_start !cur_stop
      | Some b ->
          let text = String.trim (Buffer.contents b) in
          cont := None;
          finish !cur_label !cur_lineno text 0 (String.length text)
  in
  let lineno = ref 0 and pos = ref 0 in
  while !pos <= n do
    let ls = !pos in
    let le = ref ls in
    while !le < n && String.unsafe_get src !le <> '\n' do
      incr le
    done;
    let le = !le in
    incr lineno;
    pos := le + 1;
    let comment =
      le = ls
      || (match src.[ls] with 'c' | 'C' | '*' | '!' -> true | _ -> false)
      || all_space src ls le
    in
    if not comment then begin
      let le = bang_cut src ls le in
      if all_space src ls le then ()
      else if !started && is_fixed_continuation src ls le then
        continue_with (ls + 6) le
      else begin
        let ts = ref ls and te = ref le in
        while is_space src.[!ts] do incr ts done;
        while is_space src.[!te - 1] do decr te done;
        let ts = !ts and te = !te in
        if src.[ts] = '&' && !started then continue_with (ts + 1) te
        else begin
          close ();
          started := true;
          cur_lineno := !lineno;
          let k = ref ts in
          while !k < te && is_digit src.[!k] do
            incr k
          done;
          if !k > ts && !k < te && src.[!k] = ' ' then begin
            cur_label := int_of_digits !lineno "statement label" src ts !k;
            let bs = ref !k in
            while is_space src.[!bs] do incr bs done;
            cur_start := !bs
          end
          else begin
            cur_label := 0;
            cur_start := ts
          end;
          cur_stop := te
        end
      end
    end
  done;
  close ();
  (match !chain with newest :: _ -> dangling := newest.f_lineno | [] -> ());
  if !dangling > 0 then error !dangling "dangling continuation '&'";
  match !line_error with
  | Some (m, l) -> raise (Error (m, l))
  | None -> List.rev !out
