open Streamtok

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let tokenize_with backend g input =
  let p = Tokenizer_backend.prepare backend g in
  let ts = Token_stream.create () in
  check "tokenization complete" true (Token_stream.fill p input ts = Ok ());
  ts

let test_backends_agree () =
  let g = Formats.json in
  let input = Gen_data.json ~target_bytes:5_000 () in
  let t1 = tokenize_with Tokenizer_backend.Streamtok g input in
  let t2 = tokenize_with Tokenizer_backend.Flex g input in
  check_int "same count" (Token_stream.length t1) (Token_stream.length t2);
  let same = ref true in
  for i = 0 to Token_stream.length t1 - 1 do
    if
      Token_stream.pos t1 i <> Token_stream.pos t2 i
      || Token_stream.len t1 i <> Token_stream.len t2 i
      || Token_stream.rule t1 i <> Token_stream.rule t2 i
    then same := false
  done;
  check "identical streams" true !same

let test_backend_unbounded_rejected () =
  check "streamtok refuses unbounded" true
    (match Tokenizer_backend.prepare Tokenizer_backend.Streamtok Languages.c with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* flex takes any grammar *)
  ignore (Tokenizer_backend.prepare Tokenizer_backend.Flex Languages.c)

let test_log_to_tsv () =
  let g = Formats.linux_log in
  let input = "Jan 5 03:02:01 host cron[123]: job done\n" in
  let ts = tokenize_with Tokenizer_backend.Streamtok g input in
  let app = Log_to_tsv.prepare g in
  let out = Buffer.create 128 in
  let records = Log_to_tsv.process app input ts out in
  check_int "one record" 1 records;
  check_str "tsv line" "Jan\t5\t03:02:01\thost\tcron[123]:\tjob\tdone\n"
    (Buffer.contents out)

let test_log_to_tsv_all_formats () =
  List.iter
    (fun g ->
      let input =
        Gen_logs.generate ~format:g.Grammar.name ~target_bytes:5_000 ()
      in
      let ts = tokenize_with Tokenizer_backend.Streamtok g input in
      let app = Log_to_tsv.prepare g in
      let out = Buffer.create 8192 in
      let records = Log_to_tsv.process app input ts out in
      let lines = String.split_on_char '\n' input in
      let expected = List.length (List.filter (fun l -> l <> "") lines) in
      check (g.Grammar.name ^ " record count") true (records = expected))
    Logs_grammars.all

let test_json_minify () =
  let app = Json_apps.prepare () in
  let input = "{ \"a\" : [ 1 , 2 ] ,\n \"b\" : null }" in
  let ts = tokenize_with Tokenizer_backend.Streamtok Formats.json input in
  let out = Buffer.create 64 in
  let _ = Json_apps.minify app input ts out in
  check_str "minified" "{\"a\":[1,2],\"b\":null}" (Buffer.contents out)

let test_json_minify_idempotent () =
  let app = Json_apps.prepare () in
  let input = Gen_data.json ~target_bytes:10_000 () in
  let ts = tokenize_with Tokenizer_backend.Streamtok Formats.json input in
  let out = Buffer.create 16_384 in
  let _ = Json_apps.minify app input ts out in
  let once = Buffer.contents out in
  let ts2 = tokenize_with Tokenizer_backend.Streamtok Formats.json once in
  let out2 = Buffer.create 16_384 in
  let _ = Json_apps.minify app once ts2 out2 in
  check "idempotent" true (once = Buffer.contents out2);
  check "not longer" true (String.length once <= String.length input)

let test_json_to_csv () =
  let app = Json_apps.prepare () in
  let input =
    "[{\"id\": 1, \"name\": \"ann, b\"}, {\"id\": 2, \"name\": \"bob\"}]"
  in
  let ts = tokenize_with Tokenizer_backend.Streamtok Formats.json input in
  let out = Buffer.create 64 in
  let rows = Json_apps.to_csv app input ts out in
  check_int "two rows" 2 rows;
  check_str "csv output" "id,name\n1,\"ann, b\"\n2,bob\n" (Buffer.contents out)

let test_json_to_sql () =
  let app = Json_apps.prepare () in
  let input = "[{\"id\": 1, \"note\": \"it's\"}]" in
  let ts = tokenize_with Tokenizer_backend.Streamtok Formats.json input in
  let out = Buffer.create 64 in
  let rows = Json_apps.to_sql app ~table:"t" input ts out in
  check_int "one row" 1 rows;
  check_str "sql output" "INSERT INTO t (id, note) VALUES (1, 'it''s');\n"
    (Buffer.contents out)

let test_json_roundtrip_via_csv () =
  (* records → CSV → (csv app) JSON: token pipelines compose *)
  let app = Json_apps.prepare () in
  let input = Gen_data.json_records ~target_bytes:5_000 () in
  let ts = tokenize_with Tokenizer_backend.Streamtok Formats.json input in
  let out = Buffer.create 8192 in
  let rows = Json_apps.to_csv app input ts out in
  check "some rows" true (rows > 5);
  let csv_text = Buffer.contents out in
  let csv_app = Csv_apps.prepare () in
  let ts2 = tokenize_with Tokenizer_backend.Streamtok Formats.csv csv_text in
  let out2 = Buffer.create 8192 in
  let rows2 = Csv_apps.to_json csv_app csv_text ts2 out2 in
  check_int "row count preserved" rows rows2

let test_csv_to_json () =
  let app = Csv_apps.prepare () in
  let input = "a,b\n1,\"x,y\"\n2,z\n" in
  let ts = tokenize_with Tokenizer_backend.Streamtok Formats.csv input in
  let out = Buffer.create 64 in
  let rows = Csv_apps.to_json app input ts out in
  check_int "two rows" 2 rows;
  check_str "json output" "[\n{\"a\": 1, \"b\": \"x,y\"},\n{\"a\": 2, \"b\": \"z\"}\n]\n"
    (Buffer.contents out)

let test_csv_unquote_escapes () =
  let app = Csv_apps.prepare () in
  let input = "h\n\"say \"\"hi\"\"\"\n" in
  let ts = tokenize_with Tokenizer_backend.Streamtok Formats.csv input in
  let out = Buffer.create 64 in
  let _ = Csv_apps.to_json app input ts out in
  check "doubled quotes decoded" true
    (let s = Buffer.contents out in
     (* the JSON output should contain the decoded, re-escaped quotes *)
     let rec contains i =
       i + 10 <= String.length s
       && (String.sub s i 10 = "say \\\"hi\\\"" || contains (i + 1))
     in
     contains 0)

let test_csv_schema_infer () =
  let app = Csv_apps.prepare () in
  let input = Gen_data.csv_typed ~target_bytes:20_000 () in
  let ts = tokenize_with Tokenizer_backend.Streamtok Formats.csv input in
  let schema = Csv_apps.infer_schema app input ts in
  let find name =
    let _, ty = Array.to_list schema |> List.find (fun (n, _) -> n = name) in
    Csv_apps.ty_name ty
  in
  check_str "id is int" "int" (find "id");
  check_str "value is float-ish" "float"
    (if find "value" = "int" then "float" else find "value");
  check_str "active is bool" "bool" (find "active");
  check_str "created is date" "date" (find "created");
  check_str "comment is text" "text" (find "comment")

let test_csv_schema_validate () =
  let app = Csv_apps.prepare () in
  let good = "id,name\n1,ann\n2,bob\n" in
  let ts = tokenize_with Tokenizer_backend.Streamtok Formats.csv good in
  check_int "no violations" 0
    (Csv_apps.validate app good ts
       ~schema:[| Csv_apps.Ty_int; Csv_apps.Ty_text |]);
  let bad = "id,name\nx,ann\n2,bob,extra\n" in
  let ts2 = tokenize_with Tokenizer_backend.Streamtok Formats.csv bad in
  check "violations found" true
    (Csv_apps.validate app bad ts2
       ~schema:[| Csv_apps.Ty_int; Csv_apps.Ty_text |]
    >= 2)

let test_csv_malformed_quoted () =
  let app = Csv_apps.prepare () in
  let input = "h\n\"unterminated\n" in
  (* tokenization succeeds (optional closing quote) *)
  let ts = tokenize_with Tokenizer_backend.Streamtok Formats.csv input in
  let out = Buffer.create 64 in
  check "flagged downstream" true
    (match Csv_apps.to_json app input ts out with
    | exception Failure _ -> true
    | _ -> false)

let test_sql_loads () =
  let app = Sql_apps.prepare () in
  let input =
    "INSERT INTO users (id, name) VALUES (1, 'ann'), (2, 'it''s bob');\n\
     INSERT INTO events (id) VALUES (3);\n"
  in
  let ts = tokenize_with Tokenizer_backend.Streamtok Languages.sql_insert input in
  let stats = Sql_apps.load app input ts in
  check_int "statements" 2 stats.Sql_apps.statements;
  check_int "rows" 3 stats.Sql_apps.rows;
  check "tables" true
    (stats.Sql_apps.tables = [ ("events", 1); ("users", 2) ])

let test_sql_loads_generated () =
  let app = Sql_apps.prepare () in
  let input = Gen_data.sql_inserts ~target_bytes:20_000 () in
  let ts = tokenize_with Tokenizer_backend.Streamtok Languages.sql_insert input in
  let stats = Sql_apps.load app input ts in
  check "statements counted" true (stats.Sql_apps.statements > 10);
  check "rows ≥ statements" true (stats.Sql_apps.rows >= stats.Sql_apps.statements)

let test_sql_malformed_string () =
  let app = Sql_apps.prepare () in
  let input = "INSERT INTO t (x) VALUES ('oops);\n" in
  let ts = tokenize_with Tokenizer_backend.Streamtok Languages.sql_insert input in
  check "unterminated literal flagged" true
    (match Sql_apps.load app input ts with
    | exception Failure _ -> true
    | _ -> false)

let suite =
  [
    Alcotest.test_case "backends agree" `Quick test_backends_agree;
    Alcotest.test_case "unbounded backend rejected" `Quick
      test_backend_unbounded_rejected;
    Alcotest.test_case "log to tsv" `Quick test_log_to_tsv;
    Alcotest.test_case "log to tsv (all formats)" `Quick
      test_log_to_tsv_all_formats;
    Alcotest.test_case "json minify" `Quick test_json_minify;
    Alcotest.test_case "json minify idempotent" `Quick
      test_json_minify_idempotent;
    Alcotest.test_case "json to csv" `Quick test_json_to_csv;
    Alcotest.test_case "json to sql" `Quick test_json_to_sql;
    Alcotest.test_case "json↔csv roundtrip" `Quick test_json_roundtrip_via_csv;
    Alcotest.test_case "csv to json" `Quick test_csv_to_json;
    Alcotest.test_case "csv unquote escapes" `Quick test_csv_unquote_escapes;
    Alcotest.test_case "csv schema infer" `Quick test_csv_schema_infer;
    Alcotest.test_case "csv schema validate" `Quick test_csv_schema_validate;
    Alcotest.test_case "csv malformed quoted" `Quick test_csv_malformed_quoted;
    Alcotest.test_case "sql loads" `Quick test_sql_loads;
    Alcotest.test_case "sql loads generated" `Quick test_sql_loads_generated;
    Alcotest.test_case "sql malformed string" `Quick test_sql_malformed_string;
  ]
