(* Equivalence of the JSON emitter and parser with the frozen copy in
   [Legacy_json]: the same bytes out for every tree, and the same tree or
   the same error message back for every rendering, truncation and
   one-byte mutation. The one allowed divergence is a malformed [\u]
   escape, which the frozen copy decodes with [int_of_string] (raising
   [Failure] on a non-hex digit, accepting an underscore) and the library
   rejects with an [Error]. *)

module Json = Alcop_obs.Json

(* --- generators --- *)

let gen_byte_string = QCheck.Gen.(string_size ~gen:char (int_range 0 12))

let gen_int =
  QCheck.Gen.(
    oneof
      [ int_range (-1000) 1000; int; oneofl [ min_int; max_int; 0; -1 ] ])

let gen_float =
  QCheck.Gen.(
    oneof
      [ map Int64.float_of_bits ui64;
        float;
        map float_of_int (int_range (-100) 100);
        oneofl
          [ 0.0; -0.0; Float.nan; Float.infinity; Float.neg_infinity;
            Float.min_float; Float.max_float; 5e-324; Float.min_float /. 3.0;
            -2.2250738585072e-310; 0.1; 1e21; 1e-7; 123456789012.5 ] ])

let gen_tree =
  QCheck.Gen.(
    sized_size (int_range 0 12)
    @@ fix (fun self n ->
           let leaf =
             oneof
               [ return Json.Null;
                 map (fun b -> Json.Bool b) bool;
                 map (fun i -> Json.Int i) gen_int;
                 map (fun f -> Json.Float f) gen_float;
                 map (fun s -> Json.Str s) gen_byte_string ]
           in
           if n <= 0 then leaf
           else
             frequency
               [ (2, leaf);
                 (1,
                  map
                    (fun l -> Json.List l)
                    (list_size (int_range 0 4) (self (n / 2))));
                 (1,
                  map
                    (fun l -> Json.Obj l)
                    (list_size (int_range 0 4)
                       (pair gen_byte_string (self (n / 2))))) ]))

let arb_tree =
  QCheck.make
    ~print:(fun t -> String.escaped (Legacy_json.to_string t))
    gen_tree

(* Bytes a mutation draws from: any byte, or one the parser branches on. *)
let gen_mutant_byte =
  QCheck.Gen.(
    oneof
      [ char;
        oneofl
          [ '"'; '\\'; 'u'; '_'; '0'; '9'; 'a'; 'F'; 'Z'; '-'; '+'; '.'; 'e';
            'E'; ','; ':'; '['; ']'; '{'; '}'; ' '; 'n'; 't'; 'f'; '\000' ] ])

(* A rendering, a truncation of one, or a one-byte mutation of one. *)
let gen_input =
  QCheck.Gen.(
    gen_tree >>= fun t ->
    let r = Legacy_json.to_string t in
    let n = String.length r in
    oneof
      [ return r;
        map (fun k -> String.sub r 0 k) (int_range 0 n);
        (if n = 0 then return r
         else
           map2
             (fun i c -> String.mapi (fun j x -> if j = i then c else x) r)
             (int_range 0 (n - 1)) gen_mutant_byte) ])

let arb_input = QCheck.make ~print:String.escaped gen_input

(* --- comparison --- *)

let rec same_tree a b =
  match (a, b) with
  | Json.Float x, Json.Float y ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Json.List xs, Json.List ys -> List.equal same_tree xs ys
  | Json.Obj xs, Json.Obj ys ->
    List.equal
      (fun (k, v) (k', v') -> String.equal k k' && same_tree v v')
      xs ys
  | _ -> a = b

let same_result a b =
  match (a, b) with
  | Ok x, Ok y -> same_tree x y
  | Error m, Error m' -> String.equal m m'
  | Ok _, Error _ | Error _, Ok _ -> false

let ends_with ~suffix s =
  let n = String.length s and k = String.length suffix in
  n >= k && String.sub s (n - k) k = suffix

let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false

(* Some backslash-u in [s] is followed by four bytes that are not all hex
   digits (the frozen copy's undefined case). *)
let has_malformed_u s =
  let n = String.length s in
  let rec go i =
    i + 6 <= n
    && ((s.[i] = '\\' && s.[i + 1] = 'u'
         && not (List.for_all (fun j -> is_hex s.[i + 2 + j]) [ 0; 1; 2; 3 ]))
        || go (i + 1))
  in
  go 0

let bad_u_error = function
  | Error m -> ends_with ~suffix:"bad \\u escape" m
  | Ok _ -> false

let parses_like_legacy input =
  let ours = Json.of_string input in
  match Legacy_json.of_string input with
  | exception Failure _ -> bad_u_error ours
  | legacy ->
    same_result ours legacy || (has_malformed_u input && bad_u_error ours)

(* --- properties --- *)

let prop_emitter_bytes =
  QCheck.Test.make ~name:"to_string emits the frozen emitter's bytes"
    ~count:1000 arb_tree (fun t ->
      String.equal (Json.to_string t) (Legacy_json.to_string t))

let prop_parser_results =
  QCheck.Test.make
    ~name:"of_string: same tree or error as the frozen parser" ~count:3000
    arb_input parses_like_legacy

(* Inputs on either side of each parser branch: integers at the edges of
   the int range, runs only [int_of_string] or [float_of_string] decides,
   escapes, literals and structural errors. *)
let corpus =
  [ "0"; "-0"; "007"; "-"; "--1"; "1-2"; "1+2"; "1e"; "1e5"; "-1.5E+3";
    "4611686018427387903"; "4611686018427387904"; "-4611686018427387904";
    "-4611686018427387905"; "99999999999999999999"; "0.1"; "1.";
    "-.5"; "[1,2,]"; "[]"; " [ ] "; "{}";
    "{\"a\":1,\"b\":[true,false,null]}"; "{\"a\"1}"; "{\"a\":1,}"; "{1:2}";
    "nul"; "nulll"; "truex"; "\"abc"; "\"a\\"; "\"a\\q\"";
    "\"\\u00e9\\u0041\\u20ac\""; "\"\\uD800\""; "\"\\u12\"";
    "\"\\u"; "\"x\\\"y\\\\z\\/\\b\\f\\n\\r\\t\""; "\"\000\""; "\000"; "";
    "  "; "1 2"; "[1 2]"; "\"tab\tinside\"" ]

let test_corpus () =
  List.iter
    (fun input ->
      Alcotest.(check bool)
        (Printf.sprintf "parses %S like the frozen parser" input)
        true (parses_like_legacy input))
    corpus

(* The frozen parser raised [Failure "int_of_string"] here, so a store
   entry holding it crashed the reader instead of reading as corrupt. *)
let test_malformed_u_escape () =
  List.iter
    (fun input ->
      match Json.of_string input with
      | Error m ->
        Alcotest.(check bool)
          (Printf.sprintf "%S: %s" input m)
          true
          (ends_with ~suffix:"bad \\u escape" m)
      | Ok _ -> Alcotest.failf "%S parsed" input)
    [ {|"\uZZZZ"|}; {|"\u12G4"|}; {|"\u1_23"|}; {|"\u-123"|}; {|"\u 123"|} ];
  Alcotest.(check bool) "escape with four hex digits decodes" true
    (Json.of_string {|"\u00e9"|} = Ok (Json.Str "\xc3\xa9"))

let suite =
  [ ( "json",
      [ QCheck_alcotest.to_alcotest prop_emitter_bytes;
        QCheck_alcotest.to_alcotest prop_parser_results;
        Alcotest.test_case "edge inputs parse like the frozen parser" `Quick
          test_corpus;
        Alcotest.test_case "malformed \\u escape is an error" `Quick
          test_malformed_u_escape ] ) ]
