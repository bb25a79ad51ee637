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

    Each physical line is read in one scan, its tokens with it.  A
    statement reads as its pieces joined by blanks: a column-6 piece as it
    stands, others less their trailing blanks, a trailing ['&'] dropped
    where the next statement continues it.  A blank ends every token but a
    string literal, so only an open literal, and the ['&'] or blanks that
    end a piece, carry over to the next piece.  Errors come in the order of
    a line-splitting pass then a tokenizing pass: an out-of-range label,
    then the last dangling [&] in the file, then the first error in a line. *)

exception Error of string * int  (** message, line number *)

let error lineno fmt = Printf.ksprintf (fun m -> raise (Error (m, lineno))) fmt

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_alnum c = is_alpha c || is_digit c

(* the characters [String.trim] drops, but for the line end *)
let is_blank = function ' ' | '\012' | '\r' | '\t' -> true | _ -> false

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

let dotted_words =
  Token.[ ("eq", OpEq); ("ne", OpNe); ("lt", OpLt); ("le", OpLe); ("gt", OpGt); ("ge", OpGe);
          ("and", OpAnd); ("or", OpOr); ("not", OpNot); ("true", LogicLit true);
          ("false", LogicLit false) ]

let dotted lineno s i j =
  match List.find_opt (fun (w, _) -> word_is s i j w) dotted_words with
  | Some (_, tok) -> tok
  | None -> error lineno "unknown dotted operator .%s." (lower s i j)

(* a real literal's text with its d/D exponent marker read as e *)
let real_of s i j =
  float_of_string (String.map (function 'd' | 'D' -> 'e' | c -> c) (String.sub s i (j - i)))

(* the string literal body [s.[i..j)] into [b], each '' read as ' *)
let add_body b s i j =
  let k = ref i in
  while !k < j do
    Buffer.add_char b s.[!k];
    k := if s.[!k] = '\'' then !k + 2 else !k + 1
  done

let body s i j =
  let b = Buffer.create (j - i) in add_body b s i j; Buffer.contents b

(* the first index from [i] past a run of blanks, spaces, digits or letters *)
let rec blanks s i = if i < String.length s && is_blank s.[i] then blanks s (i + 1) else i
let rec spaces s i = if i < String.length s && s.[i] = ' ' then spaces s (i + 1) else i
let rec digits s i = if i < String.length s && is_digit s.[i] then digits s (i + 1) else i
let rec alphas s i = if i < String.length s && is_alpha s.[i] then alphas s (i + 1) else i

(* the end of the line holding [s.[i]] *)
let eol s i =
  match String.index_from s i '\n' with k -> k | exception Not_found -> String.length s

(* What the scan carries between the pieces of a statement, a piece being
   what one line adds after its label, column-6 mark or leading '&'.  A '!'
   starts a comment where the line so far holds an even number of quotes. *)
type st = {
  src : string;
  raw : bool;  (** [tokenize_line]: no line end, comment or continuation *)
  mutable lineno : int;  (** the statement's first line *)
  mutable at : int;  (** where the token being read starts *)
  mutable flip : bool;  (** that number is odd outside a literal *)
  mutable amp : bool;  (** the last non-blank so far is an '&' *)
  mutable bare : bool;  (** nor has the statement any other *)
  mutable ff : bool;  (** a form feed outside a literal, then only blanks *)
  mutable str : Buffer.t option;  (** a string literal left open *)
  pend : Buffer.t;  (** the blanks after that literal's last non-blank *)
  mutable mark : int;  (** how many of them came before this piece *)
  mutable stop : int;  (** the end of the line: its '\n' or of [src] *)
}

let state ~raw lineno src =
  { src; raw; lineno; at = 0; flip = false; amp = false; bare = false; ff = false; str = None;
    pend = Buffer.create 16; mark = 0; stop = 0 }

(* A non-blank at [i]: an '&' or a form feed held back before it is
   inside the statement after all. *)
let solid st i =
  st.at <- i;
  st.bare <- false;
  if st.amp || st.ff then error st.lineno "unexpected character %c" (if st.amp then '&' else '\012')

(* what was held back from the open literal [b] goes into it *)
let release st b =
  if st.amp then Buffer.add_char b '&';
  st.amp <- false;
  Buffer.add_buffer b st.pend;
  Buffer.clear st.pend;
  st.mark <- 0

(* The closing quote of a literal whose body goes on at [k], or the end
   of its line if that comes first. *)
let rec quote_end st k =
  let s = st.src in
  if k >= String.length s then k
  else
    match String.unsafe_get s k with
    | '\'' -> if k + 1 < String.length s && s.[k + 1] = '\'' then quote_end st (k + 2) else k
    | '\n' when not st.raw -> k
    | '!' when st.flip -> k
    | _ -> quote_end st (k + 1)

(* A literal its piece leaves open, [s.[i..k)] its part there: all of it
   goes into [b] but a last '&' and the blanks after the last non-blank,
   which are held back. *)
let hold st b i k =
  let s = st.src in
  let rec back t = if t > i && is_blank s.[t - 1] then back (t - 1) else t in
  let t = back k in
  if t > i then begin
    if st.amp || t - 1 > i || s.[t - 1] <> '&' then st.bare <- false;
    release st b;
    st.amp <- s.[t - 1] = '&';
    add_body b s i (if st.amp then t - 1 else t)
  end;
  Buffer.add_substring st.pend s t (k - t);
  st.str <- Some b;
  st.stop <- (if k < String.length s && s.[k] = '!' then eol s k else k)

(* The end of the numeric literal going on at [s.[k]]: digits, one '.' before
   any exponent (not one a letter follows: [1.and.]), an e E d D exponent. *)
let rec number_end s k dot exp =
  let n = String.length s in
  if k >= n then k
  else
    match s.[k] with
    | '0' .. '9' -> number_end s (k + 1) dot exp
    | '.' when not (dot || exp || (k + 1 < n && is_alpha s.[k + 1])) ->
        number_end s (k + 1) true exp
    | 'e' | 'E' | 'd' | 'D'
      when (not exp) && k + 1 < n
           && (is_digit s.[k + 1]
              || ((s.[k + 1] = '+' || s.[k + 1] = '-') && k + 2 < n && is_digit s.[k + 2])) ->
        number_end s (k + if is_digit s.[k + 1] then 1 else 2) dot true
    | _ -> k

(* The tokens of the piece from [i] to the end of its line, in order. *)
let[@tail_mod_cons] rec toks st i =
  let s = st.src in
  let n = String.length s in
  if i >= n then begin st.stop <- n; [] end
  else
    match String.unsafe_get s i with
    | ' ' | '\t' | '\r' -> toks st (i + 1)
    | '\n' when not st.raw -> st.stop <- i; []
    | '!' when not (st.raw || st.flip) -> st.stop <- eol s i; []
    | '\012' when not st.raw -> st.ff <- true; toks st (i + 1)
    | '&' when not st.raw -> solid st i; st.amp <- true; toks st (i + 1)
    | '\'' ->
        solid st i;
        let k = quote_end st (i + 1) in
        if k < n && s.[k] = '\'' then Token.StrLit (body s (i + 1) k) :: toks st (k + 1)
        else if st.raw then raise (Error ("unterminated string literal", st.lineno))
        else begin hold st (Buffer.create 16) (i + 1) k; [] end
    | c when is_digit c || (c = '.' && i + 1 < n && is_digit s.[i + 1]) ->
        solid st i;
        let k = number_end s i false false in
        let tok =
          if digits s i = k then Token.IntLit (int_of_digits st.lineno "integer literal" s i k)
          else Token.RealLit (real_of s i k)
        in
        tok :: toks st k
    | c when is_alpha c ->
        solid st i;
        let k = ref (i + 1) in
        while !k < n && is_alnum s.[!k] do incr k done;
        let tok = Token.Ident (lower s i !k) in
        tok :: toks st !k
    | '.' ->
        (* dotted operator or logical literal *)
        solid st i;
        let j = alphas s (i + 1) in
        if j < n && s.[j] = '.' then
          let tok = dotted st.lineno s (i + 1) j in
          tok :: toks st (j + 1)
        else raise (Error ("stray '.'", st.lineno))
    | c ->
        solid st i;
        let second = if i + 1 < n then s.[i + 1] else ' ' in
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
          | c -> error st.lineno "unexpected character %c" c
        in
        (* every two-character operator is one of these *)
        let next =
          match tok with
          | Token.DStar | Token.OpNe | Token.OpEq | Token.OpLe | Token.OpGe -> i + 2
          | _ -> i + 1
        in
        tok :: toks st next

(* The piece from [i] goes on with the open literal [b]. *)
let resume st b i =
  let k = quote_end st i in
  if k < String.length st.src && st.src.[k] = '\'' then begin
    release st b;
    add_body b st.src i k;
    st.str <- None;
    st.bare <- false;
    Token.StrLit (Buffer.contents b) :: toks st (k + 1)
  end
  else begin hold st b i k; [] end

(* The rest of a piece after an error: only its end (a '!' after an even
   number of quotes, [odd] being false) and a last '&' still count. *)
let rec skip st i odd =
  let s = st.src in
  if i >= String.length s || s.[i] = '\n' then st.stop <- i
  else
    match s.[i] with
    | '!' when not odd -> st.stop <- eol s i
    | '\'' -> st.amp <- false; skip st (i + 1) (not odd)
    | c -> if not (is_blank c) then st.amp <- c = '&'; skip st (i + 1) odd

(** Lex a whole source text into labeled token lines. *)
let lex src : Token.line list =
  let n = String.length src in
  let st = state ~raw:false 0 src in
  let out = ref [] and err = ref None in
  (* the statement being read: label, tokens so far, first line; the first
     line of the newest statement ending in '&', while one is awaited *)
  let label = ref 0 and line = ref [] and cur = ref 0 and link = ref 0 in
  let dangling = ref 0 and started = ref false in
  (* read the piece from [i]; [join]: it goes on with a statement; [odd]: its
     line holds an odd number of quotes before it; [trim]: its end blanks go *)
  let piece ~join i odd trim =
    if join && Option.is_some st.str then Buffer.add_char st.pend ' ';
    let ff = st.ff in
    st.mark <- Buffer.length st.pend;
    (if Option.is_some !err then skip st i odd
     else begin
       st.flip <- odd <> Option.is_some st.str;
       match match st.str with None -> toks st i | Some b -> resume st b i with
       | [] -> ()
       | l -> line := (match !line with [] -> l | old -> old @ l)
       | exception Error (m, _) ->
           err := Some (m, st.lineno);
           st.str <- None;
           skip st st.at st.flip
     end);
    if trim then (st.ff <- ff; Buffer.truncate st.pend st.mark)
  in
  (* a statement ends here unless its last non-blank is an '&' *)
  let close () =
    st.ff <- false;
    Buffer.clear st.pend;
    if st.amp then begin
      (* a statement that is only an '&' drops the blank that joins it on *)
      (match st.str with Some b when st.bare -> Buffer.truncate b (Buffer.length b - 1) | _ -> ());
      st.amp <- false;
      link := !cur
    end
    else begin
      (if Option.is_none !err then
         match st.str with
         | Some _ -> err := Some ("unterminated string literal", st.lineno)
         | None -> out := { Token.label = !label; lineno = st.lineno; tokens = !line } :: !out);
      st.str <- None;
      line := [];
      link := 0
    end
  in
  let statement lab ln i =
    if !started then close ();
    started := true;
    if !link > 0 && lab <> 0 then begin
      (* a labeled line continues nothing: the newest '&' dangles *)
      dangling := !link;
      link := 0;
      line := [];
      st.str <- None
    end;
    if !link = 0 then (label := lab; st.lineno <- ln);
    cur := ln;
    st.bare <- true;
    piece ~join:(!link > 0) i false true
  in
  let lineno = ref 0 and pos = ref 0 in
  while !pos <= n do
    let ls = !pos in
    incr lineno;
    (match if ls < n then src.[ls] else '\n' with
    | 'c' | 'C' | '*' | '!' -> st.stop <- eol src ls
    | _ ->
        let ts = blanks src ls in
        let c = if ts < n then src.[ts] else '\n' in
        if c = '\n' || c = '!' then st.stop <- eol src ts
        else if !started && spaces src ls = ls + 5 && src.[ls + 5] <> '0' then
          (* fixed form: columns 1-5 blank, column 6 neither blank nor '0' *)
          piece ~join:true (ls + 6) (src.[ls + 5] = '\'') false
        else if !started && c = '&' then piece ~join:true (ts + 1) false true
        else
          let k = digits src ts in
          let b = blanks src k in
          if k > ts && k < n && src.[k] = ' ' && b < n && src.[b] <> '\n' && src.[b] <> '!'
          then statement (int_of_digits !lineno "statement label" src ts k) !lineno b
          else statement 0 !lineno ts);
    pos := st.stop + 1
  done;
  if !started then close ();
  if !link > 0 then dangling := !link;
  if !dangling > 0 then error !dangling "dangling continuation '&'";
  match !err with Some (m, l) -> raise (Error (m, l)) | None -> List.rev !out

let tokenize_line lineno s = toks (state ~raw:true lineno s) 0
