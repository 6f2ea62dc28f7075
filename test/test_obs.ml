(* The st_obs metrics layer and the instrumented-runner contract: metric
   semantics, JSON / Prometheus serialization, and the guarantee that the
   instrumented engine variants observe without perturbing — identical
   token streams, and stats that account for every input byte. *)

open Streamtok
module M = Obs.Metrics

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let test_counter () =
  let c = M.Counter.create () in
  check_int "fresh" 0 (M.Counter.value c);
  M.Counter.incr c;
  M.Counter.add c 41;
  check_int "incr + add" 42 (M.Counter.value c)

let test_gauge () =
  let g = M.Gauge.create () in
  M.Gauge.set g 2.5;
  check "set" true (M.Gauge.value g = 2.5);
  M.Gauge.set_int g 7;
  check "set_int" true (M.Gauge.value g = 7.0);
  M.Gauge.set_max g 3.0;
  check "set_max keeps high water" true (M.Gauge.value g = 7.0);
  M.Gauge.set_max g 9.0;
  check "set_max raises" true (M.Gauge.value g = 9.0)

let test_histogram_buckets () =
  (* bucket index = bit length: 0 → 0, 1 → 1, 2..3 → 2, 4..7 → 3, ... *)
  check_int "index 0" 0 (M.Histogram.bucket_index 0);
  check_int "index -5 clamps" 0 (M.Histogram.bucket_index (-5));
  check_int "index 1" 1 (M.Histogram.bucket_index 1);
  check_int "index 2" 2 (M.Histogram.bucket_index 2);
  check_int "index 3" 2 (M.Histogram.bucket_index 3);
  check_int "index 4" 3 (M.Histogram.bucket_index 4);
  check_int "index 7" 3 (M.Histogram.bucket_index 7);
  check_int "index 8" 4 (M.Histogram.bucket_index 8);
  check_int "index max_int" 62 (M.Histogram.bucket_index max_int);
  check_int "upper 0" 0 (M.Histogram.bucket_upper 0);
  check_int "upper 3" 7 (M.Histogram.bucket_upper 3);
  (* every observation lands in the bucket whose bound brackets it *)
  List.iter
    (fun v ->
      let i = M.Histogram.bucket_index v in
      check (Printf.sprintf "v=%d under upper" v) true
        (v <= M.Histogram.bucket_upper i);
      if i > 0 then
        check (Printf.sprintf "v=%d above previous" v) true
          (v > M.Histogram.bucket_upper (i - 1)))
    [ 1; 2; 3; 4; 15; 16; 17; 1000; 65535; 65536 ]

let test_histogram_percentiles () =
  let feq msg a b = check msg true (abs_float (a -. b) < 1e-9) in
  (* empty histogram: every quantile is 0 *)
  let h = M.Histogram.create () in
  feq "empty p50" 0.0 (M.Histogram.percentile h 0.50);
  (* single-valued distribution: 100 observations of 7 land in bucket
     [4, 7]; linear interpolation puts p50 mid-bucket, and the max-value
     clamp keeps tail quantiles at the recorded maximum *)
  for _ = 1 to 100 do
    M.Histogram.observe h 7
  done;
  feq "pinned p50" 5.5 (M.Histogram.percentile h 0.50);
  feq "pinned p99" 6.97 (M.Histogram.percentile h 0.99);
  feq "p100 clamps to max" 7.0 (M.Histogram.percentile h 1.0);
  check "q clamps below 0" true (M.Histogram.percentile h (-3.0) >= 0.0);
  (* monotone in q *)
  let h2 = M.Histogram.create () in
  List.iter (M.Histogram.observe h2) [ 1; 3; 9; 27; 81; 243; 729; 2187 ];
  let p50 = M.Histogram.percentile h2 0.50 in
  let p90 = M.Histogram.percentile h2 0.90 in
  let p99 = M.Histogram.percentile h2 0.99 in
  check "p50 <= p90" true (p50 <= p90);
  check "p90 <= p99" true (p99 >= p90);
  check "p99 <= max" true (p99 <= float_of_int (M.Histogram.max_value h2));
  (* log2 resolution: estimates within a factor of 2 of the true quantile
     on a uniform distribution *)
  let h3 = M.Histogram.create () in
  for v = 1 to 1000 do
    M.Histogram.observe h3 v
  done;
  List.iter
    (fun (q, truth) ->
      let est = M.Histogram.percentile h3 q in
      check
        (Printf.sprintf "uniform q=%.2f within 2x" q)
        true
        (est >= truth /. 2.0 && est <= truth *. 2.0))
    [ (0.50, 500.); (0.90, 900.); (0.99, 990.) ]

let test_histogram_observe () =
  let h = M.Histogram.create () in
  List.iter (M.Histogram.observe h) [ 0; 1; 5; 5; 100 ];
  check_int "count" 5 (M.Histogram.count h);
  check_int "sum" 111 (M.Histogram.sum h);
  check_int "max" 100 (M.Histogram.max_value h);
  (* buckets: the non-empty prefix, cumulative count = total *)
  let bs = M.Histogram.buckets h in
  check_int "bucket total" 5 (List.fold_left (fun a (_, c) -> a + c) 0 bs);
  check "bounds increasing" true
    (let rec incr_bounds = function
       | (u1, _) :: ((u2, _) :: _ as rest) -> u1 < u2 && incr_bounds rest
       | _ -> true
     in
     incr_bounds bs);
  let last_upper, last_count = List.nth bs (List.length bs - 1) in
  check "last bucket holds 100" true (last_upper >= 100 && last_count = 1)

let test_span () =
  let s = M.Span.create () in
  M.Span.add s 0.25;
  M.Span.add s 0.5;
  check_int "count" 2 (M.Span.count s);
  check "seconds accumulate" true (abs_float (M.Span.seconds s -. 0.75) < 1e-9);
  let r = M.Span.time s (fun () -> 42) in
  check_int "time returns value" 42 r;
  check_int "time counts section" 3 (M.Span.count s)

(* ---- serialization ---- *)

(* Two registries with one shape, as two servers built by the same code
   have: a counter, a gauge, a histogram, a span. *)
let sample_registry ~c ~g ~obs ~span =
  let r = M.Registry.create () in
  M.Counter.add (M.Registry.counter r "c") c;
  M.Gauge.set (M.Registry.gauge r "g") g;
  let h = M.Registry.histogram r "h" in
  List.iter (M.Histogram.observe h) obs;
  M.Span.add (M.Registry.span r "s") span;
  r

let metric r name =
  (List.find (fun m -> m.M.name = name) (M.Registry.metrics r)).M.kind

let counter_of r name =
  match metric r name with M.Counter c -> M.Counter.value c | _ -> assert false

let gauge_of r name =
  match metric r name with M.Gauge g -> M.Gauge.value g | _ -> assert false

let histogram_of r name =
  match metric r name with M.Histogram h -> h | _ -> assert false

let test_registry_copy () =
  let r = sample_registry ~c:3 ~g:1.5 ~obs:[ 1; 100 ] ~span:0.25 in
  let cp = M.Registry.copy r in
  check "same names in order" true
    (List.map (fun m -> m.M.name) (M.Registry.metrics cp)
    = List.map (fun m -> m.M.name) (M.Registry.metrics r));
  (* mutate the source: the copy must not move *)
  (match metric r "c" with M.Counter c -> M.Counter.add c 10 | _ -> ());
  (match metric r "g" with M.Gauge g -> M.Gauge.set g 9. | _ -> ());
  M.Histogram.observe (histogram_of r "h") 5000;
  check_int "counter frozen" 3 (counter_of cp "c");
  check "gauge frozen" true (gauge_of cp "g" = 1.5);
  check_int "histogram frozen" 2 (M.Histogram.count (histogram_of cp "h"));
  (* and the other way round *)
  (match metric cp "c" with M.Counter c -> M.Counter.incr c | _ -> ());
  check_int "source untouched by the copy" 13 (counter_of r "c")

let test_registry_merge () =
  let a = sample_registry ~c:3 ~g:1.5 ~obs:[ 1; 100 ] ~span:0.25 in
  let b = sample_registry ~c:4 ~g:2.0 ~obs:[ 7; 70000 ] ~span:0.5 in
  M.Registry.merge a b;
  check_int "counters sum" 7 (counter_of a "c");
  check "gauges sum" true (gauge_of a "g" = 3.5);
  let expect = M.Histogram.create () in
  List.iter (M.Histogram.observe expect) [ 1; 100; 7; 70000 ];
  let h = histogram_of a "h" in
  check "histogram merged exactly" true
    (M.Histogram.buckets h = M.Histogram.buckets expect
    && M.Histogram.count h = 4
    && M.Histogram.sum h = M.Histogram.sum expect
    && M.Histogram.max_value h = 70000);
  (match metric a "s" with
  | M.Span s ->
      check_int "span counts sum" 2 (M.Span.count s);
      check "span seconds sum" true (M.Span.seconds s = 0.75)
  | _ -> assert false);
  check_int "source unchanged" 4 (counter_of b "c");
  let other = M.Registry.create () in
  ignore (M.Registry.counter other "c");
  check "shape mismatch rejected" true
    (match M.Registry.merge a other with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_json_exact () =
  let r = M.Registry.create () in
  M.Counter.add (M.Registry.counter r "tokens") 12;
  M.Gauge.set (M.Registry.gauge r ~labels:[ ("grammar", "json") ] "mb_s") 1.5;
  let h = M.Registry.histogram r "chunk_bytes" in
  M.Histogram.observe h 3;
  check_str "document"
    "{\"schema\":\"streamtok/metrics/v1\",\"metrics\":[\
     {\"name\":\"tokens\",\"type\":\"counter\",\"value\":12},\
     {\"name\":\"mb_s\",\"type\":\"gauge\",\"value\":1.5,\
     \"labels\":{\"grammar\":\"json\"}},\
     {\"name\":\"chunk_bytes\",\"type\":\"histogram\",\"count\":1,\"sum\":3,\
     \"max\":3,\"p50\":2.5,\"p90\":2.9,\"p99\":2.99,\
     \"buckets\":[[0,0],[1,0],[3,1]]}]}"
    (Obs.Export.to_json_string r)

let test_json_non_finite () =
  check_str "nan is null" "null" (Obs.Json.to_string (Obs.Json.Float Float.nan));
  check_str "inf is null" "null"
    (Obs.Json.to_string (Obs.Json.Float Float.infinity));
  check_str "escaping" "\"a\\\"b\\\\c\\n\\u0001\""
    (Obs.Json.to_string (Obs.Json.String "a\"b\\c\n\001"))

(* Vocab-style inputs for the parser: BPE JSON vocabularies are big flat
   objects whose keys are arbitrary byte strings — \u escapes (including
   surrogate pairs), long keys, and machine-generated nesting all have to
   round-trip exactly, because a key that decodes wrong becomes a wrong
   token. *)
let parse_ok s =
  match Obs.Json.of_string s with
  | Ok v -> v
  | Error e -> Alcotest.failf "parse %S: %s" s e

let test_json_parse_unicode () =
  let str s =
    match parse_ok s with
    | Obs.Json.String v -> v
    | _ -> Alcotest.failf "expected string for %S" s
  in
  check_str "ascii \\u" "A" (str "\"\\u0041\"");
  check_str "2-byte utf8" "\xc3\xa9" (str "\"\\u00e9\"");
  check_str "3-byte utf8" "\xe2\x82\xac" (str "\"\\u20ac\"");
  check_str "surrogate pair" "\xf0\x9f\x98\x80" (str "\"\\ud83d\\ude00\"");
  check_str "lone high surrogate" "\xef\xbf\xbd" (str {|"\ud83d"|});
  check_str "lone low surrogate" "\xef\xbf\xbd" (str {|"\ude00"|});
  check_str "high surrogate + non-surrogate escape" "\xef\xbf\xbdA"
    (str {|"\ud83dA"|});
  check_str "pair then text" "x\xf0\x9f\x98\x80y"
    (str "\"x\\ud83d\\ude00y\"");
  check "truncated \\u fails" true
    (Result.is_error (Obs.Json.of_string {|"\u00"|}));
  check "bad hex fails" true
    (Result.is_error (Obs.Json.of_string {|"\u00zz"|}))

let test_json_parse_vocab_shapes () =
  (* Long keys: a 64 KiB key must come back byte-identical. *)
  let key = String.init 65536 (fun i -> Char.chr (0x61 + (i mod 26))) in
  (match parse_ok (Printf.sprintf "{%S: 7}" key) with
  | Obs.Json.Obj [ (k, v) ] ->
      check "long key round-trips" true (String.equal k key);
      check_int "long key value" 7
        (match Obs.Json.to_int_opt v with Some n -> n | None -> -1)
  | _ -> Alcotest.fail "expected 1-entry object");
  (* Wide objects: vocab files are one object with thousands of entries. *)
  let entries =
    String.concat "," (List.init 2000 (fun i -> Printf.sprintf "\"t%d\":%d" i i))
  in
  (match parse_ok ("{" ^ entries ^ "}") with
  | Obs.Json.Obj kvs ->
      check_int "wide object size" 2000 (List.length kvs);
      check_int "wide object last value" 1999
        (match Obs.Json.to_int_opt (snd (List.nth kvs 1999)) with
        | Some n -> n
        | None -> -1)
  | _ -> Alcotest.fail "expected object");
  (* Deep nesting: 512 levels of arrays must not blow the parser. *)
  let deep = String.make 512 '[' ^ "1" ^ String.make 512 ']' in
  let rec depth = function
    | Obs.Json.List [ v ] -> 1 + depth v
    | Obs.Json.Int 1 -> 0
    | _ -> Alcotest.fail "unexpected nesting shape"
  in
  check_int "deep nesting depth" 512 (depth (parse_ok deep))

(* The documents the library produces must be valid JSON by the repo's own
   validator: tokenize with the Formats.json grammar, then stream the
   tokens through Json_validate. *)
let json_valid s =
  let d = Grammar.dfa Formats.json in
  let e = match Engine.compile d with Ok e -> e | Error _ -> assert false in
  let v = Json_validate.create () in
  match
    Engine.run_string e s ~emit:(fun ~pos:_ ~len ~rule ->
        ignore (Json_validate.push v ~lexeme_len:len ~rule))
  with
  | Engine.Failed _ -> false
  | Engine.Finished -> ( match Json_validate.finish v with
      | Json_validate.Valid -> true
      | Json_validate.Invalid _ -> false)

let test_json_validates () =
  let r = M.Registry.create () in
  M.Counter.add (M.Registry.counter r ~help:"input bytes" "bytes_in") 1024;
  M.Gauge.set (M.Registry.gauge r "ratio") 0.325;
  M.Gauge.set (M.Registry.gauge r "bad") Float.nan;
  let h = M.Registry.histogram r ~labels:[ ("x", "y\"z") ] "sizes" in
  List.iter (M.Histogram.observe h) [ 1; 100; 10_000 ];
  M.Span.add (M.Registry.span r "run_seconds") 0.004;
  check "registry JSON validates" true (json_valid (Obs.Export.to_json_string r));
  let st = Run_stats.create () in
  Run_stats.add_chunk st 512;
  Run_stats.record_token st ~rule:0 ~len:3;
  Run_stats.record_token st ~rule:2 ~len:1;
  Run_stats.record_failure st;
  Run_stats.record_parallel st ~segments:4 ~splice_retries:1 ~sync_tokens:9;
  check "run-stats JSON validates" true (json_valid (Run_stats.to_json_string st))

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_prometheus () =
  let r = M.Registry.create () in
  M.Counter.add (M.Registry.counter r ~help:"input bytes" "bytes_in") 99;
  M.Gauge.set (M.Registry.gauge r ~labels:[ ("g", "a\"b") ] "mb/s") 2.0;
  let h = M.Registry.histogram r "chunk_bytes" in
  List.iter (M.Histogram.observe h) [ 1; 3 ];
  M.Span.add (M.Registry.span r "run_seconds") 0.5;
  let out = Obs.Export.to_prometheus r in
  check "counter sample" true (contains ~sub:"streamtok_bytes_in 99\n" out);
  check "counter help" true
    (contains ~sub:"# HELP streamtok_bytes_in input bytes\n" out);
  check "counter type" true
    (contains ~sub:"# TYPE streamtok_bytes_in counter\n" out);
  check "gauge name sanitized, label escaped" true
    (contains ~sub:"streamtok_mb_s{g=\"a\\\"b\"} 2\n" out);
  (* cumulative buckets: le=1 has 1, le=3 has both, +Inf total *)
  check "bucket le=1" true
    (contains ~sub:"streamtok_chunk_bytes_bucket{le=\"1\"} 1\n" out);
  check "bucket le=3" true
    (contains ~sub:"streamtok_chunk_bytes_bucket{le=\"3\"} 2\n" out);
  check "bucket +Inf" true
    (contains ~sub:"streamtok_chunk_bytes_bucket{le=\"+Inf\"} 2\n" out);
  check "histogram sum/count" true
    (contains ~sub:"streamtok_chunk_bytes_sum 4\n" out
    && contains ~sub:"streamtok_chunk_bytes_count 2\n" out);
  (* estimated quantiles ride along as summary-style samples: for {1, 3}
     the p50 rank lands exactly on the le=1 bucket boundary and the tail
     quantiles interpolate inside [2, 3] *)
  check "histogram p50" true
    (contains ~sub:"streamtok_chunk_bytes{quantile=\"0.5\"} 1\n" out);
  check "histogram p90" true
    (contains ~sub:"streamtok_chunk_bytes{quantile=\"0.9\"} 2.8\n" out);
  check "histogram p99" true
    (contains ~sub:"streamtok_chunk_bytes{quantile=\"0.99\"} 2.98\n" out);
  check "span as summary" true
    (contains ~sub:"# TYPE streamtok_run_seconds summary\n" out
    && contains ~sub:"streamtok_run_seconds_sum 0.5\n" out
    && contains ~sub:"streamtok_run_seconds_count 1\n" out)

(* ---- the instrumented-runner contract ---- *)

let tokens_via run =
  let acc = ref [] in
  let outcome = run ~emit:(fun ~pos ~len ~rule -> acc := (pos, len, rule) :: !acc) in
  (List.rev !acc, outcome)

let test_instrumented_identical () =
  List.iter
    (fun (src, input) ->
      let e =
        match Engine.compile_grammar src with
        | Ok e -> e
        | Error _ -> Alcotest.fail "unexpected unbounded"
      in
      let plain = tokens_via (fun ~emit -> Engine.run_string e input ~emit) in
      let st = Run_stats.create () in
      let inst =
        tokens_via
          (fun ~emit -> Engine.run_string_instrumented e input ~stats:st ~emit)
      in
      check (Printf.sprintf "identical on %S" input) true (plain = inst);
      check_int "bytes_in" (String.length input) (Run_stats.bytes_in st);
      check_int "chunks" 1 (Run_stats.chunks st);
      check_int "tokens_out" (List.length (fst plain)) (Run_stats.tokens_out st);
      check_int "failures"
        (match snd plain with Engine.Finished -> 0 | Engine.Failed _ -> 1)
        (Run_stats.failures st))
    [
      (* K = 1 table path, success and failure *)
      ("[0-9]+\n[ ]+", "12 345 6 ");
      ("[0-9]+\n[ ]+", "12 x34");
      (* K = 3 TE path, success and failure *)
      ("[0-9]+([eE][+-]?[0-9]+)?\n[ ]+", "1e+5 27 3e9 ");
      ("[0-9]+([eE][+-]?[0-9]+)?\n[ ]+", "1e+5 !");
      ("[0-9]+([eE][+-]?[0-9]+)?\n[ ]+", "");
    ]

let test_rule_tallies () =
  let e =
    match Engine.compile_grammar "[0-9]+\n[ ]+\n[a-z]+" with
    | Ok e -> e
    | Error _ -> assert false
  in
  let st = Run_stats.create () in
  ignore
    (Engine.run_string_instrumented e "12 abc 7 x" ~stats:st
       ~emit:(fun ~pos:_ ~len:_ ~rule:_ -> ()));
  check_int "rule 0 (numbers)" 2 (Run_stats.rule_count st 0);
  check_int "rule 1 (spaces)" 3 (Run_stats.rule_count st 1);
  check_int "rule 2 (words)" 2 (Run_stats.rule_count st 2);
  check_int "total" 7 (Run_stats.tokens_out st)

let test_stream_tokenizer_stats () =
  let e =
    match Engine.compile_grammar "[0-9]+\n[ ]+" with
    | Ok e -> e
    | Error _ -> assert false
  in
  let plain = ref [] and inst = ref [] in
  let feed_all acc stats =
    let t = Stream_tokenizer.create ?stats e ~emit:(fun lex r -> acc := (lex, r) :: !acc) in
    List.iter (Stream_tokenizer.feed_string t) [ "12 3"; "45"; " 6 " ];
    Stream_tokenizer.finish t
  in
  let o1 = feed_all plain None in
  let st = Run_stats.create () in
  let o2 = feed_all inst (Some st) in
  check "same outcome" true (o1 = o2);
  check "same tokens" true (!plain = !inst);
  check_int "bytes_in" 9 (Run_stats.bytes_in st);
  check_int "chunks" 3 (Run_stats.chunks st);
  check_int "tokens" (List.length !plain) (Run_stats.tokens_out st)

(* ---- memory footprint under alphabet compression ---- *)

let compile_exn ?classes src =
  match Engine.compile (Dfa.of_grammar ?classes src) with
  | Ok e -> e
  | Error _ -> Alcotest.fail "unexpected unbounded"

(* The K <= 1 footprint is fully determined: classed transition table +
   accept row + the 256-byte classmap + the classed k1 row + constants.
   Pin the formula so the classmap can't silently fall out of the
   accounting. *)
let test_footprint_accounts_classmap () =
  let e = compile_exn "[0-9]+\n[ ]+" in
  let d = Engine.dfa e in
  let nc = Dfa.num_classes d in
  check "classed build compresses" true (nc < 256);
  let dfa_bytes =
    ((Array.length d.Dfa.trans + Array.length d.Dfa.accept) * 8)
    + 256
    + Dfa.accel_table_bytes d
  in
  check "accel tables accounted" true (Dfa.accel_table_bytes d > 0);
  check_int "k1 footprint = tables + classmap + accel + buffers"
    (dfa_bytes + Engine.k1_table_bytes e + 1 + 64)
    (Engine.footprint_bytes e);
  check "classmap term present" true
    (Engine.footprint_bytes e > Dfa.size d * nc * 8)

(* TE powerstates materialize lazily, so the footprint is monotone in
   te_states: running input can only grow both, never shrink either. *)
let test_footprint_monotone_in_te_states () =
  let e = compile_exn "[0-9]+([eE][+-]?[0-9]+)?\n[ ]+" in
  check "TE mode" true (Engine.k e > 1);
  let states0 = Engine.te_states e and fp0 = Engine.footprint_bytes e in
  ignore (Engine.tokens e "1e+5 27 3e9 400 5e-1 ");
  let states1 = Engine.te_states e and fp1 = Engine.footprint_bytes e in
  check "input materializes powerstates" true (states1 > states0);
  check "footprint grows with te_states" true (fp1 > fp0);
  check "growth accounts full rows" true
    (fp1 - fp0 >= (states1 - states0) * Te_dfa.width (Option.get (Engine.Internal.te_dfa e)) * 8)

(* On an ASCII grammar the classed tables must be strictly smaller than the
   dense 256-column reference build of the same grammar. *)
let test_footprint_shrinks_vs_dense () =
  List.iter
    (fun src ->
      let classed = compile_exn src in
      let dense = compile_exn ~classes:false src in
      check (Printf.sprintf "classed < dense on %S" src) true
        (Engine.footprint_bytes classed < Engine.footprint_bytes dense))
    [
      "[0-9]+\n[ ]+" (* K = 1 table path *);
      "[0-9]+([eE][+-]?[0-9]+)?\n[ ]+" (* K = 3 TE path *);
      "[a-z]+\n[0-9]+\n[ \t]+" (* identifiers *);
    ]

let prop_bytes_in_accounts_for_input =
  QCheck.Test.make ~count:300 ~name:"instrumented bytes_in = input length"
    Gen.grammar_input_arb (fun (rules, input) ->
      let d = Dfa.of_rules rules in
      match Engine.compile d with
      | Error Engine.Unbounded_tnd -> QCheck.assume_fail ()
      | Ok e ->
          let st = Run_stats.create () in
          let plain = tokens_via (fun ~emit -> Engine.run_string e input ~emit) in
          let inst =
            tokens_via
              (fun ~emit ->
                Engine.run_string_instrumented e input ~stats:st ~emit)
          in
          plain = inst
          && Run_stats.bytes_in st = String.length input
          && Run_stats.tokens_out st = List.length (fst plain))

let suite =
  [
    Alcotest.test_case "counter" `Quick test_counter;
    Alcotest.test_case "gauge" `Quick test_gauge;
    Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
    Alcotest.test_case "histogram observe" `Quick test_histogram_observe;
    Alcotest.test_case "histogram percentiles" `Quick
      test_histogram_percentiles;
    Alcotest.test_case "span" `Quick test_span;
    Alcotest.test_case "registry copy is independent" `Quick
      test_registry_copy;
    Alcotest.test_case "registry merge" `Quick test_registry_merge;
    Alcotest.test_case "JSON exact form" `Quick test_json_exact;
    Alcotest.test_case "JSON non-finite + escaping" `Quick test_json_non_finite;
    Alcotest.test_case "JSON \\u decoding (surrogates)" `Quick
      test_json_parse_unicode;
    Alcotest.test_case "JSON vocab-shaped inputs" `Quick
      test_json_parse_vocab_shapes;
    Alcotest.test_case "JSON validates" `Quick test_json_validates;
    Alcotest.test_case "Prometheus text format" `Quick test_prometheus;
    Alcotest.test_case "instrumented ≡ plain" `Quick test_instrumented_identical;
    Alcotest.test_case "per-rule tallies" `Quick test_rule_tallies;
    Alcotest.test_case "stream tokenizer stats" `Quick test_stream_tokenizer_stats;
    Alcotest.test_case "footprint accounts classmap" `Quick
      test_footprint_accounts_classmap;
    Alcotest.test_case "footprint monotone in te states" `Quick
      test_footprint_monotone_in_te_states;
    Alcotest.test_case "footprint shrinks vs dense" `Quick
      test_footprint_shrinks_vs_dense;
    QCheck_alcotest.to_alcotest prop_bytes_in_accounts_for_input;
  ]
