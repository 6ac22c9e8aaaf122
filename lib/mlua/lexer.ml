(** Hand-written lexer for the combined Lua–Terra surface syntax. Both
    languages share one token stream; Terra-only tokens ([&], [@], [`],
    [->]) are lexed unconditionally and rejected by the Lua parser when
    they appear outside Terra code.

    The scanner walks [src] by index and dispatches on the current
    character: a peek is a bounds check and a [String.unsafe_get], a
    symbol is recognised by matching on its first one to three
    characters, a keyword by a string [match], and tokens go into a
    growable array.  The only allocations are the tokens themselves and
    the text of names, numbers and strings. *)

(** How a numeric literal was written: used by the Terra frontend to type
    constants; Lua only cares about the value. *)
type numkind = NInt | NFloat | NFloat32

type token =
  | Tname of string
  | Tnum of float * numkind
  | Tstr of string
  | Tkw of string
  | Tsym of string
  | Teof

exception Lex_error of string * int

let is_digit c = c >= '0' && c <= '9'
let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_name_char c = is_name_start c || is_digit c

(** A name or keyword token for [s]. *)
let word s =
  match s with
  | "and" | "break" | "do" | "else" | "elseif" | "end" | "false" | "for"
  | "function" | "if" | "in" | "local" | "nil" | "not" | "or" | "repeat"
  | "return" | "then" | "true" | "until" | "while"
  (* Terra extensions *)
  | "terra" | "quote" | "var" | "struct" | "defer" | "emit" | "escape" ->
      Tkw s
  | _ -> Tname s

type state = {
  src : string;
  len : int;
  mutable i : int;
  mutable line : int;
}

(** [at st j c]: the character at index [j] exists and is [c]. *)
let at st j c = j < st.len && String.unsafe_get st.src j = c

let error st msg = raise (Lex_error (msg, st.line))

(* Scan a [[...]] body starting at [st.i] (just past the opening
   brackets), counting its newlines; leaves [st.i] past the closing
   brackets and returns the index where they start. *)
let long_bracket_end st =
  let rec go j =
    if j >= st.len then begin
      st.i <- j;
      error st "unterminated long bracket"
    end
    else
      match String.unsafe_get st.src j with
      | ']' when at st (j + 1) ']' ->
          st.i <- j + 2;
          j
      | '\n' ->
          st.line <- st.line + 1;
          go (j + 1)
      | _ -> go (j + 1)
  in
  go st.i

let read_long_bracket st =
  let start = st.i in
  let stop = long_bracket_end st in
  String.sub st.src start (stop - start)

(* A quoted string, [st.i] just past the opening quote.  The common case
   without escapes is one [String.sub]. *)
let read_string st quote =
  let start = st.i in
  let rec plain j =
    if j >= st.len then None
    else
      let c = String.unsafe_get st.src j in
      if c = quote then Some j
      else if c = '\\' || c = '\n' then None
      else plain (j + 1)
  in
  match plain start with
  | Some stop ->
      st.i <- stop + 1;
      String.sub st.src start (stop - start)
  | None ->
      let buf = Buffer.create 16 in
      let rec go () =
        if st.i >= st.len then error st "unterminated string";
        let c = String.unsafe_get st.src st.i in
        if c = quote then st.i <- st.i + 1
        else
          match c with
          | '\n' -> error st "unterminated string"
          | '\\' ->
              st.i <- st.i + 1;
              if st.i >= st.len then error st "unterminated escape";
              let e = String.unsafe_get st.src st.i in
              st.i <- st.i + 1;
              Buffer.add_char buf
                (match e with
                | 'n' -> '\n'
                | 't' -> '\t'
                | 'r' -> '\r'
                | '0' -> '\000'
                | c -> c);
              go ()
          | c ->
              st.i <- st.i + 1;
              Buffer.add_char buf c;
              go ()
      in
      go ();
      Buffer.contents buf

let read_number st =
  let start = st.i in
  let hex = at st st.i '0' && (at st (st.i + 1) 'x' || at st (st.i + 1) 'X') in
  if hex then st.i <- st.i + 2;
  let digit_ok c = if hex then is_hex c else is_digit c in
  let consume_digits () =
    while st.i < st.len && digit_ok (String.unsafe_get st.src st.i) do
      st.i <- st.i + 1
    done
  in
  consume_digits ();
  let fractional = ref false in
  (* A fractional part, but not when the dot starts `..` (range/concat). *)
  if at st st.i '.' then begin
    if st.i + 1 >= st.len then begin
      fractional := true;
      st.i <- st.i + 1
    end
    else
      let c = String.unsafe_get st.src (st.i + 1) in
      if c <> '.' && (digit_ok c || not hex) then begin
        fractional := true;
        st.i <- st.i + 1;
        consume_digits ()
      end
  end;
  if (not hex) && (at st st.i 'e' || at st st.i 'E') then begin
    fractional := true;
    st.i <- st.i + 1;
    if at st st.i '+' || at st st.i '-' then st.i <- st.i + 1;
    consume_digits ()
  end;
  let text = String.sub st.src start (st.i - start) in
  let f32 = (not hex) && (at st st.i 'f' || at st st.i 'F') in
  if f32 then st.i <- st.i + 1;
  let v =
    if hex then
      match Int64.of_string_opt text with
      | Some i -> Int64.to_float i
      | None -> error st ("bad hex literal " ^ text)
    else
      match float_of_string_opt text with
      | Some f -> f
      | None -> error st ("bad number literal " ^ text)
  in
  Tnum (v, if f32 then NFloat32 else if !fractional then NFloat else NInt)

let rec skip_space_and_comments st =
  if st.i < st.len then
    match String.unsafe_get st.src st.i with
    | ' ' | '\t' | '\r' ->
        st.i <- st.i + 1;
        skip_space_and_comments st
    | '\n' ->
        st.i <- st.i + 1;
        st.line <- st.line + 1;
        skip_space_and_comments st
    | '-' when at st (st.i + 1) '-' ->
        st.i <- st.i + 2;
        if at st st.i '[' && at st (st.i + 1) '[' then begin
          st.i <- st.i + 2;
          ignore (long_bracket_end st)
        end
        else
          while st.i < st.len && String.unsafe_get st.src st.i <> '\n' do
            st.i <- st.i + 1
          done;
        skip_space_and_comments st
    | _ -> ()

(* A symbol of [n] characters. *)
let sym st n s =
  st.i <- st.i + n;
  Tsym s

(* The longer symbol [long] when the next character is [c2], else the
   one-character [short]. *)
let sym2 st c2 long short =
  if at st (st.i + 1) c2 then sym st 2 long else sym st 1 short

(* Called with [st.i] at a character that is not space or a comment. *)
let next_token st =
  if st.i >= st.len then Teof
  else
    let c = String.unsafe_get st.src st.i in
    if is_name_start c then begin
      let start = st.i in
      st.i <- st.i + 1;
      while st.i < st.len && is_name_char (String.unsafe_get st.src st.i) do
        st.i <- st.i + 1
      done;
      word (String.sub st.src start (st.i - start))
    end
    else if is_digit c then read_number st
    else
      match c with
      | '.' ->
          if st.i + 1 < st.len && is_digit (String.unsafe_get st.src (st.i + 1))
          then read_number st
          else if at st (st.i + 1) '.' then
            if at st (st.i + 2) '.' then sym st 3 "..." else sym st 2 ".."
          else sym st 1 "."
      | '"' | '\'' ->
          st.i <- st.i + 1;
          Tstr (read_string st c)
      | '[' ->
          if at st (st.i + 1) '[' then begin
            st.i <- st.i + 2;
            Tstr (read_long_bracket st)
          end
          else sym st 1 "["
      | '=' -> sym2 st '=' "==" "="
      | '~' when at st (st.i + 1) '=' -> sym st 2 "~="
      | '<' -> sym2 st '=' "<=" "<"
      | '>' -> sym2 st '=' ">=" ">"
      | '-' -> sym2 st '>' "->" "-"
      | ':' -> sym2 st ':' "::" ":"
      | '+' -> sym st 1 "+"
      | '*' -> sym st 1 "*"
      | '/' -> sym st 1 "/"
      | '%' -> sym st 1 "%"
      | '^' -> sym st 1 "^"
      | '#' -> sym st 1 "#"
      | '(' -> sym st 1 "("
      | ')' -> sym st 1 ")"
      | '{' -> sym st 1 "{"
      | '}' -> sym st 1 "}"
      | ']' -> sym st 1 "]"
      | ';' -> sym st 1 ";"
      | ',' -> sym st 1 ","
      | '&' -> sym st 1 "&"
      | '@' -> sym st 1 "@"
      | '`' -> sym st 1 "`"
      | c -> error st (Printf.sprintf "unexpected character %C" c)

let tokenize src =
  let st = { src; len = String.length src; i = 0; line = 1 } in
  let toks = ref (Array.make (16 + (st.len / 2)) (Teof, 0)) in
  let n = ref 0 in
  let push tok =
    if !n = Array.length !toks then begin
      let bigger = Array.make (2 * !n) (Teof, 0) in
      Array.blit !toks 0 bigger 0 !n;
      toks := bigger
    end;
    Array.unsafe_set !toks !n tok;
    incr n
  in
  let rec go () =
    skip_space_and_comments st;
    let line = st.line in
    match next_token st with
    | Teof -> push (Teof, line)
    | t ->
        push (t, line);
        go ()
  in
  go ();
  Array.sub !toks 0 !n

let pp_token ppf = function
  | Tname n -> Format.fprintf ppf "name '%s'" n
  | Tnum (v, _) -> Format.fprintf ppf "number %g" v
  | Tstr s -> Format.fprintf ppf "string %S" s
  | Tkw k -> Format.fprintf ppf "'%s'" k
  | Tsym s -> Format.fprintf ppf "'%s'" s
  | Teof -> Format.fprintf ppf "<eof>"
