(* Minimal JSON tree shared by the tuning logs, the observability sinks
   and the artifact store. One emitter means string escaping and float
   formatting are fixed in one place; one parser reads back what it
   writes: artifact-store records, trace JSONL ([Trace_reader]) and
   selfbench records ([Benchdb]).

   Both directions sit on the evaluation path (every compile key is
   rendered, every store-served evaluation parsed), so neither allocates
   per character: the emitter writes escape-free runs and integers
   straight into its buffer, and the parser reads bytes in place and
   slices strings that hold no escape. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let hex_digits = "0123456789abcdef"

(* [s] with '"', '\\' and control characters escaped, appended to [buf]:
   each escape-free run goes in as one substring. *)
let add_escaped buf s =
  let start = ref 0 in
  for i = 0 to String.length s - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || c < ' ' then begin
      Buffer.add_substring buf s !start (i - !start);
      (match c with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | '\r' -> Buffer.add_string buf "\\r"
       | '\t' -> Buffer.add_string buf "\\t"
       | c ->
         Buffer.add_string buf "\\u00";
         Buffer.add_char buf hex_digits.[Char.code c lsr 4];
         Buffer.add_char buf hex_digits.[Char.code c land 0xf]);
      start := i + 1
    end
  done;
  Buffer.add_substring buf s !start (String.length s - !start)

(* The decimal digits of [n <= 0], most significant first. Working on
   the non-positive side covers [min_int], whose negation overflows. *)
let rec add_digits_nonpos buf n =
  if n <= -10 then add_digits_nonpos buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

(* [string_of_int i], written without building the string. *)
let add_int buf i =
  if i < 0 then begin
    Buffer.add_char buf '-';
    add_digits_nonpos buf i
  end
  else add_digits_nonpos buf (-i)

(* The C primitive behind [Printf.sprintf "%.12g"]: the same text,
   without interpreting a format string on every call. *)
external format_float : string -> float -> string = "caml_format_float"

(* Shortest round-tripping float form that stays valid JSON: "%.12g" when
   it re-parses to the same double (drops trailing noise), else the
   always-exact "%.17g". Integral values keep a ".0" so they re-parse as
   floats. *)
let float_repr f =
  match Float.classify_float f with
  | FP_nan | FP_infinite -> "null"
  | FP_zero | FP_normal | FP_subnormal ->
    let short = format_float "%.12g" f in
    let s =
      if float_of_string short = f then short else format_float "%.17g" f
    in
    if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"

let add_quoted buf s =
  Buffer.add_char buf '"';
  add_escaped buf s;
  Buffer.add_char buf '"'

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float f -> Buffer.add_string buf (float_repr f)
  | Str s -> add_quoted buf s
  | List xs ->
    Buffer.add_char buf '[';
    add_items buf xs;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    add_fields buf fields;
    Buffer.add_char buf '}'

and add_items buf = function
  | [] -> ()
  | [ x ] -> to_buffer buf x
  | x :: xs ->
    to_buffer buf x;
    Buffer.add_char buf ',';
    add_items buf xs

and add_fields buf = function
  | [] -> ()
  | [ (k, v) ] -> add_field buf k v
  | (k, v) :: fields ->
    add_field buf k v;
    Buffer.add_char buf ',';
    add_fields buf fields

and add_field buf k v =
  add_quoted buf k;
  Buffer.add_char buf ':';
  to_buffer buf v

(* Sized for the documents every evaluation renders, a compile key or a
   store record (300-500 bytes), so neither regrows the buffer. *)
let to_string t =
  let buf = Buffer.create 512 in
  to_buffer buf t;
  Buffer.contents buf

(* --- parser: recursive descent over a cursor into the input --- *)

exception Parse_error of int * string

type cursor = {
  s : string;
  n : int;
  mutable pos : int;
}

let fail c msg = raise (Parse_error (c.pos, msg))

(* The byte under the cursor, or '\000' past the end. Every caller but the
   string scanner treats a NUL byte like the end of input (both fail with
   the same message at the same offset); the scanner checks the bound. *)
let peek c = if c.pos < c.n then String.unsafe_get c.s c.pos else '\000'

let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | ' ' | '\t' | '\n' | '\r' ->
    advance c;
    skip_ws c
  | _ -> ()

let expect c ch =
  if peek c = ch then advance c
  else fail c (Printf.sprintf "expected '%c'" ch)

let literal c word value =
  let l = String.length word in
  if c.pos + l <= c.n && String.sub c.s c.pos l = word then begin
    c.pos <- c.pos + l;
    value
  end
  else fail c ("expected " ^ word)

let hex_value = function
  | '0' .. '9' as ch -> Char.code ch - 48
  | 'a' .. 'f' as ch -> Char.code ch - 87
  | 'A' .. 'F' as ch -> Char.code ch - 55
  | _ -> -1

(* The code of the four hex digits at [i], or -1 if any is not one. *)
let hex4 s i =
  let a = hex_value s.[i] and b = hex_value s.[i + 1]
  and c = hex_value s.[i + 2] and d = hex_value s.[i + 3] in
  if a lor b lor c lor d < 0 then -1
  else (a lsl 12) lor (b lsl 8) lor (c lsl 4) lor d

let add_utf8 buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

(* The rest of a string whose unescaped prefix is already in [buf], from
   the cursor (on a backslash or later) to the closing quote. *)
let rec escaped_string c buf =
  if c.pos >= c.n then fail c "unterminated string";
  match String.unsafe_get c.s c.pos with
  | '"' ->
    advance c;
    Buffer.contents buf
  | '\\' ->
    advance c;
    (match peek c with
     | '"' -> Buffer.add_char buf '"'; advance c
     | '\\' -> Buffer.add_char buf '\\'; advance c
     | '/' -> Buffer.add_char buf '/'; advance c
     | 'n' -> Buffer.add_char buf '\n'; advance c
     | 't' -> Buffer.add_char buf '\t'; advance c
     | 'r' -> Buffer.add_char buf '\r'; advance c
     | 'b' -> Buffer.add_char buf '\b'; advance c
     | 'f' -> Buffer.add_char buf '\012'; advance c
     | 'u' ->
       advance c;
       if c.pos + 4 > c.n then fail c "truncated \\u escape";
       let code = hex4 c.s c.pos in
       if code < 0 then fail c "bad \\u escape";
       c.pos <- c.pos + 4;
       add_utf8 buf code
     | _ -> fail c "bad escape");
    escaped_string c buf
  | ch ->
    Buffer.add_char buf ch;
    advance c;
    escaped_string c buf

(* Scan from [i] for the closing quote of a string opened at [start]; a
   string without escapes is one slice of the input. *)
let rec plain_string c start i =
  if i >= c.n then begin
    c.pos <- c.n;
    fail c "unterminated string"
  end;
  match String.unsafe_get c.s i with
  | '"' ->
    c.pos <- i + 1;
    String.sub c.s start (i - start)
  | '\\' ->
    let buf = Buffer.create (i - start + 16) in
    Buffer.add_substring buf c.s start (i - start);
    c.pos <- i;
    escaped_string c buf
  | _ -> plain_string c start (i + 1)

let parse_string c =
  expect c '"';
  plain_string c c.pos c.pos

(* Advance over a number: the maximal run of [0-9+-.eE]. Returns whether
   the run holds a fraction or an exponent. *)
let rec scan_number c fractional =
  match peek c with
  | '0' .. '9' | '-' | '+' ->
    advance c;
    scan_number c fractional
  | '.' | 'e' | 'E' ->
    advance c;
    scan_number c true
  | _ -> fractional

(* A run with a fraction or an exponent is a [Float]; any other is an
   [Int] if [int_of_string] takes it, else a [Float]. *)
let parse_number c =
  let start = c.pos in
  let fractional = scan_number c false in
  let text = String.sub c.s start (c.pos - start) in
  match (if fractional then None else int_of_string_opt text) with
  | Some i -> Int i
  | None ->
    (match float_of_string text with
     | f -> Float f
     | exception Failure _ -> fail c ("bad number " ^ text))

let rec parse_value c =
  skip_ws c;
  match peek c with
  | '"' -> Str (parse_string c)
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | 'n' -> literal c "null" Null
  | '[' ->
    advance c;
    skip_ws c;
    if peek c = ']' then begin
      advance c;
      List []
    end
    else List (items c)
  | '{' ->
    advance c;
    skip_ws c;
    if peek c = '}' then begin
      advance c;
      Obj []
    end
    else Obj (fields c)
  | '-' | '0' .. '9' -> parse_number c
  | _ -> fail c "expected a JSON value"

and[@tail_mod_cons] items c =
  let v = parse_value c in
  skip_ws c;
  match peek c with
  | ',' ->
    advance c;
    v :: items c
  | ']' ->
    advance c;
    [ v ]
  | _ -> (fail [@tailcall false]) c "expected ',' or ']'"

and[@tail_mod_cons] fields c =
  skip_ws c;
  let k = parse_string c in
  skip_ws c;
  expect c ':';
  let v = parse_value c in
  skip_ws c;
  match peek c with
  | ',' ->
    advance c;
    (k, v) :: fields c
  | '}' ->
    advance c;
    [ (k, v) ]
  | _ -> (fail [@tailcall false]) c "expected ',' or '}'"

let of_string s =
  let c = { s; n = String.length s; pos = 0 } in
  match
    let v = parse_value c in
    skip_ws c;
    if c.pos <> c.n then fail c "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (at, msg) ->
    Error (Printf.sprintf "JSON parse error at offset %d: %s" at msg)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let number = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None
