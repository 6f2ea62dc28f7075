(* Table 2 (RQ5): end-to-end application speedups when tokenization uses
   StreamTok instead of flex. Columns follow the paper: flex tokenization
   time, StreamTok tokenization time, 'rest' (the token-stream consumer),
   and the overall application speedup (flex+rest)/(streamtok+rest). *)

open Streamtok

let time_tokenize backend g input ts =
  let p = Tokenizer_backend.prepare backend g in
  Bench_common.time_best ~repeats:2 (fun () ->
      if Result.is_error (Token_stream.fill p input ts) then
        failwith "tokenization failed")

let row name g input rest_of ts =
  let flex_t = time_tokenize Tokenizer_backend.Flex g input ts in
  let stk_t = time_tokenize Tokenizer_backend.Streamtok g input ts in
  (* ts now holds the StreamTok-produced stream (identical to flex's) *)
  let rest_t = Bench_common.time_best ~repeats:2 (fun () -> rest_of ts) in
  Printf.printf "%-22s %9.3f %11.3f %8.3f %9.2f\n" name flex_t stk_t rest_t
    ((flex_t +. rest_t) /. (stk_t +. rest_t))

let run ?(log_mb = 4) ?(conv_mb = 8) () =
  Bench_common.pp_header
    (Printf.sprintf
       "Table 2 (RQ5): application speedup with StreamTok vs flex (logs %d \
        MB, conversions %d MB)"
       log_mb conv_mb);
  Printf.printf "%-22s %9s %11s %8s %9s\n" "Application" "flex" "StreamTok"
    "rest" "speedup";
  let ts = Token_stream.create () in
  (* log parsing: raw logs -> TSV *)
  List.iter
    (fun (g : Grammar.t) ->
      let input =
        Gen_logs.generate ~format:g.Grammar.name ~seed:Bench_common.seed_data
          ~target_bytes:(log_mb * Bench_common.mb) ()
      in
      let app = Log_to_tsv.prepare g in
      let out = Buffer.create (String.length input) in
      row
        (String.capitalize_ascii g.Grammar.name)
        g input
        (fun ts ->
          Buffer.clear out;
          ignore (Log_to_tsv.process app input ts out))
        ts)
    Logs_grammars.all;
  (* format conversions and validation *)
  let bytes = conv_mb * Bench_common.mb in
  let json_in = Gen_data.json_records ~seed:Bench_common.seed_data ~target_bytes:bytes () in
  let json_app = Json_apps.prepare () in
  let out = Buffer.create (2 * bytes) in
  row "JSON to CSV" Formats.json json_in
    (fun ts ->
      Buffer.clear out;
      ignore (Json_apps.to_csv json_app json_in ts out))
    ts;
  let json_doc = Gen_data.json ~seed:Bench_common.seed_data ~target_bytes:bytes () in
  row "JSON Minify" Formats.json json_doc
    (fun ts ->
      Buffer.clear out;
      ignore (Json_apps.minify json_app json_doc ts out))
    ts;
  let csv_in = Gen_data.csv_typed ~seed:Bench_common.seed_data ~target_bytes:bytes () in
  let csv_app = Csv_apps.prepare () in
  row "CSV to JSON" Formats.csv csv_in
    (fun ts ->
      Buffer.clear out;
      ignore (Csv_apps.to_json csv_app csv_in ts out))
    ts;
  let schema =
    Csv_apps.
      [| Ty_int; Ty_text; Ty_float; Ty_bool; Ty_date; Ty_text |]
  in
  row "CSV Schema Validation" Formats.csv csv_in
    (fun ts -> ignore (Csv_apps.validate csv_app csv_in ts ~schema))
    ts;
  row "CSV Schema Infer" Formats.csv csv_in
    (fun ts -> ignore (Csv_apps.infer_schema csv_app csv_in ts))
    ts;
  row "JSON to SQL" Formats.json json_in
    (fun ts ->
      Buffer.clear out;
      ignore (Json_apps.to_sql json_app ~table:"data" json_in ts out))
    ts;
  let sql_in = Gen_data.sql_inserts ~seed:Bench_common.seed_data ~target_bytes:bytes () in
  let sql_app = Sql_apps.prepare () in
  row "SQL loads" Languages.sql_insert sql_in
    (fun ts -> ignore (Sql_apps.load sql_app sql_in ts))
    ts
