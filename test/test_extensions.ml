(* Tests for the library extensions: location resolution and the
   streaming JSON validator. *)

open Streamtok

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---- Location ---- *)

let test_location_basics () =
  let doc = "ab\ncde\n\nf" in
  let loc = Location.of_string doc in
  check_int "lines" 4 (Location.num_lines loc);
  let at o = Location.resolve loc o in
  check "0 = 1:1" true (at 0 = { Location.line = 1; column = 1 });
  check "1 = 1:2" true (at 1 = { Location.line = 1; column = 2 });
  check "newline belongs to its line" true (at 2 = { Location.line = 1; column = 3 });
  check "3 = 2:1" true (at 3 = { Location.line = 2; column = 1 });
  check "7 = 3:1 (empty line)" true (at 7 = { Location.line = 3; column = 1 });
  check "8 = 4:1" true (at 8 = { Location.line = 4; column = 1 });
  check "end position valid" true (at 9 = { Location.line = 4; column = 2 });
  check "out of range" true
    (match Location.resolve loc 10 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_location_spans () =
  let doc = "ab\ncde\n\nf" in
  let loc = Location.of_string doc in
  check "line 1 span" true (Location.line_span loc 1 = (0, 2));
  check "line 2 span" true (Location.line_span loc 2 = (3, 6));
  check "line 3 span (empty)" true (Location.line_span loc 3 = (7, 7));
  check "line 4 span" true (Location.line_span loc 4 = (8, 9))

let test_location_no_trailing_newline () =
  let loc = Location.of_string "xyz" in
  check_int "one line" 1 (Location.num_lines loc);
  check "middle" true (Location.resolve loc 2 = { Location.line = 1; column = 3 })

let test_location_empty () =
  let loc = Location.of_string "" in
  check_int "one line" 1 (Location.num_lines loc);
  check "origin" true (Location.resolve loc 0 = { Location.line = 1; column = 1 })

let prop_location_matches_scan =
  QCheck.Test.make ~count:200 ~name:"location ≡ linear scan"
    (QCheck.string_gen_of_size (QCheck.Gen.int_range 0 60)
       QCheck.Gen.(oneofl [ 'a'; '\n'; 'b' ]))
    (fun doc ->
      let loc = Location.of_string doc in
      let line = ref 1 and col = ref 1 in
      let ok = ref (Location.resolve loc 0 = { Location.line = 1; column = 1 }) in
      String.iteri
        (fun i c ->
          (* position of offset i is (line, col) before consuming c *)
          if Location.resolve loc i <> { Location.line = !line; column = !col }
          then ok := false;
          if c = '\n' then begin
            incr line;
            col := 1
          end
          else incr col)
        doc;
      !ok
      && Location.resolve loc (String.length doc)
         = { Location.line = !line; column = !col })

(* ---- Json_validate ---- *)

let validate_str s =
  let p = Tokenizer_backend.prepare Tokenizer_backend.Streamtok Formats.json in
  let ts = Token_stream.create () in
  if Result.is_error (Token_stream.fill p s ts) then `Untokenizable
  else
    match Json_validate.validate (Json_validate.create ()) ts with
    | Json_validate.Valid -> `Valid
    | Json_validate.Invalid { reason; _ } -> `Invalid reason

let test_json_valid_documents () =
  List.iter
    (fun s -> check (Printf.sprintf "valid: %s" s) true (validate_str s = `Valid))
    [
      "{}"; "[]"; "1"; "\"x\""; "true"; "null"; "[1, 2, 3]";
      "{\"a\": 1, \"b\": [true, null, {\"c\": \"d\"}]}";
      "  [ { } , { \"k\" : [ ] } ]  "; "-1.5e-3"; "[[[[[]]]]]";
    ]

let test_json_invalid_documents () =
  List.iter
    (fun s ->
      check
        (Printf.sprintf "invalid: %s" s)
        true
        (match validate_str s with `Invalid _ -> true | _ -> false))
    [
      ""; "[1, ]"; "{\"a\" 1}"; "{\"a\": }"; "{1: 2}"; "[}";
      "{\"a\": 1,}"; "1 2"; "[1"; "{\"a\": 1"; ","; ":"; "]";
      "{\"a\": 1}}"; "[1] 2";
    ]

let test_json_validate_generated () =
  let input = Gen_data.json ~seed:79L ~target_bytes:100_000 () in
  check "generated docs validate" true (validate_str input = `Valid);
  let records = Gen_data.json_records ~seed:80L ~target_bytes:50_000 () in
  check "generated records validate" true (validate_str records = `Valid)

let test_json_validate_streaming () =
  (* validator driven directly from the chunked tokenizer's emit *)
  let e = match Engine.compile (Grammar.dfa Formats.json) with Ok e -> e | Error _ -> assert false in
  let g = Formats.json in
  let v = Json_validate.create () in
  let st =
    Stream_tokenizer.create e ~emit:(fun lexeme rule ->
        ignore
          (Json_validate.push v ~lexeme_len:(String.length lexeme) ~rule))
  in
  let doc = Gen_data.json ~seed:81L ~target_bytes:30_000 () in
  let pos = ref 0 in
  while !pos < String.length doc do
    let len = min 4096 (String.length doc - !pos) in
    Stream_tokenizer.feed st doc !pos len;
    pos := !pos + len
  done;
  check "tokenized" true (Stream_tokenizer.finish st = Engine.Finished);
  check "streaming verdict" true (Json_validate.finish v = Json_validate.Valid);
  check "depth observed" true (Json_validate.max_depth v >= 1);
  ignore g

let test_json_validate_depth () =
  check "depth tracked" true
    (let p = Tokenizer_backend.prepare Tokenizer_backend.Streamtok Formats.json in
     let ts = Token_stream.create () in
     ignore (Token_stream.fill p "[[[{\"a\": [1]}]]]" ts);
     let v = Json_validate.create () in
     ignore (Json_validate.validate v ts);
     Json_validate.max_depth v = 5)

let suite =
  [
    Alcotest.test_case "location basics" `Quick test_location_basics;
    Alcotest.test_case "location spans" `Quick test_location_spans;
    Alcotest.test_case "location no trailing nl" `Quick
      test_location_no_trailing_newline;
    Alcotest.test_case "location empty" `Quick test_location_empty;
    QCheck_alcotest.to_alcotest prop_location_matches_scan;
    Alcotest.test_case "json valid docs" `Quick test_json_valid_documents;
    Alcotest.test_case "json invalid docs" `Quick test_json_invalid_documents;
    Alcotest.test_case "json generated docs" `Quick test_json_validate_generated;
    Alcotest.test_case "json streaming validate" `Quick
      test_json_validate_streaming;
    Alcotest.test_case "json depth" `Quick test_json_validate_depth;
  ]
