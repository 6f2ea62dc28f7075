(* Second-wave streaming tests: the chunked tokenizer against the one-shot
   runner on real format grammars, adversarial chunkings, and API edges. *)

open Streamtok

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let engine_of g =
  match Engine.compile (Grammar.dfa g) with
  | Ok e -> e
  | Error _ -> Alcotest.failf "%s: unbounded" g.Grammar.name

let chunked_with_plan e input plan =
  let acc = ref [] in
  let st = Stream_tokenizer.create e ~emit:(fun lex r -> acc := (lex, r) :: !acc) in
  let pos = ref 0 in
  let n = String.length input in
  List.iter
    (fun chunk ->
      let len = min chunk (n - !pos) in
      if len > 0 then begin
        Stream_tokenizer.feed st input !pos len;
        pos := !pos + len
      end)
    plan;
  while !pos < n do
    let len = min 4096 (n - !pos) in
    Stream_tokenizer.feed st input !pos len;
    pos := !pos + len
  done;
  let o = Stream_tokenizer.finish st in
  (List.rev !acc, o)

let against_one_shot name g input plans =
  let e = engine_of g in
  let reference, ro = Engine.tokens e input in
  List.iteri
    (fun i plan ->
      let got, o = chunked_with_plan e input plan in
      check
        (Printf.sprintf "%s plan %d tokens" name i)
        true
        (Gen.same_tokens reference got);
      check
        (Printf.sprintf "%s plan %d outcome" name i)
        true
        (match (ro, o) with
        | Engine.Finished, Engine.Finished -> true
        | Engine.Failed { offset = a; _ }, Engine.Failed { offset = b; _ } ->
            a = b
        | _ -> false))
    plans

let plans = [ [ 1 ]; [ 2; 3; 1 ]; [ 7 ]; [ 64 ]; [ 1; 1; 1; 1; 1000 ] ]

let test_formats_chunked () =
  List.iter
    (fun (g : Grammar.t) ->
      let gen = Option.get (Gen_data.by_name g.Grammar.name) in
      let input = gen ~seed:21L ~target_bytes:4_000 () in
      against_one_shot g.Grammar.name g input plans)
    Formats.benchmark_formats

let test_logs_chunked () =
  List.iter
    (fun (g : Grammar.t) ->
      let input =
        Gen_logs.generate ~format:g.Grammar.name ~seed:22L ~target_bytes:3_000 ()
      in
      against_one_shot g.Grammar.name g input [ [ 1 ]; [ 13 ] ])
    Logs_grammars.all

let test_zero_length_feeds () =
  let e = engine_of Formats.csv in
  let acc = ref [] in
  let st = Stream_tokenizer.create e ~emit:(fun lex r -> acc := (lex, r) :: !acc) in
  Stream_tokenizer.feed st "" 0 0;
  Stream_tokenizer.feed st "a,b" 0 0;
  Stream_tokenizer.feed_string st "a,b";
  Stream_tokenizer.feed st "xyz" 1 0;
  check "zero feeds ok" true (Stream_tokenizer.finish st = Engine.Finished);
  check_int "three tokens" 3 (List.length !acc)

let test_feed_offsets () =
  (* feeding interior slices of a larger buffer *)
  let e = engine_of Formats.csv in
  let buffer = "###a,b,c###" in
  let acc = ref [] in
  let st = Stream_tokenizer.create e ~emit:(fun lex r -> acc := (lex, r) :: !acc) in
  Stream_tokenizer.feed st buffer 3 2;
  (* "a," *)
  Stream_tokenizer.feed st buffer 5 3;
  (* "b,c" *)
  check "finish" true (Stream_tokenizer.finish st = Engine.Finished);
  check "tokens" true
    (Gen.same_tokens !acc
       (List.rev [ ("a", 3); (",", 0); ("b", 3); (",", 0); ("c", 3) ]))

let test_emit_during_finish () =
  (* a token whose maximality is only decided by EOS: emitted by finish *)
  let e = engine_of Formats.json in
  let during_feed = ref 0 and total = ref 0 in
  let st =
    Stream_tokenizer.create e ~emit:(fun _ _ -> incr total)
  in
  Stream_tokenizer.feed_string st "123";
  during_feed := !total;
  check "nothing before finish" true (!during_feed = 0);
  check "finished" true (Stream_tokenizer.finish st = Engine.Finished);
  check_int "one token at finish" 1 !total

let test_failure_offset_across_chunks () =
  let e = engine_of Formats.json in
  let st = Stream_tokenizer.create e ~emit:(fun _ _ -> ()) in
  Stream_tokenizer.feed_string st "{\"a\": 1";
  Stream_tokenizer.feed_string st "2, ";
  Stream_tokenizer.feed_string st "@oops";
  check "failed" true (Stream_tokenizer.failed st);
  match Stream_tokenizer.finish st with
  | Engine.Failed { offset; _ } -> check_int "offset" 10 offset
  | Engine.Finished -> Alcotest.fail "expected failure"

let test_unterminated_token_leftover () =
  let e = engine_of Formats.json in
  let st = Stream_tokenizer.create e ~emit:(fun _ _ -> ()) in
  Stream_tokenizer.feed_string st "\"never closed";
  match Stream_tokenizer.finish st with
  | Engine.Failed { offset = 0; pending } ->
      check "pending is the partial token" true (pending = "\"never closed")
  | _ -> Alcotest.fail "expected leftover failure"

let test_force_te_equivalent () =
  (* ablation knob: the general engine on a K=1 grammar must agree with
     the Fig. 5 fast path *)
  let d = Grammar.dfa Formats.csv in
  let fast = match Engine.compile d with Ok e -> e | Error _ -> assert false in
  let general =
    match Engine.compile ~force_te:true d with
    | Ok e -> e
    | Error _ -> assert false
  in
  check "forced engine uses TeDFA" true (Engine.te_states general > 0);
  check "fast path has no TeDFA" true (Engine.te_states fast = 0);
  let input = Gen_data.csv ~seed:33L ~target_bytes:20_000 () in
  let a, oa = Engine.tokens fast input in
  let b, ob = Engine.tokens general input in
  check "same tokens" true (Gen.same_tokens a b);
  check "same outcome" true (oa = ob)

let test_footprint_grows_lazily () =
  let d = Grammar.dfa Formats.json in
  let e = match Engine.compile d with Ok e -> e | Error _ -> assert false in
  let before = Engine.te_states e in
  let input = Gen_data.json ~seed:44L ~target_bytes:50_000 () in
  ignore (Engine.tokens e input);
  let after = Engine.te_states e in
  check "powerstates materialized by running" true (after > before);
  (* a second run over the same data materializes nothing new *)
  ignore (Engine.tokens e input);
  check_int "stable after warmup" after (Engine.te_states e);
  let width = Dfa.num_classes (Engine.dfa e) + 1 in
  check "footprint accounts for them" true
    (Engine.footprint_bytes e > after * width * 8)

let test_engine_reuse_across_inputs () =
  (* one compiled engine, many runs: no hidden per-run state *)
  let e = engine_of Formats.csv in
  let i1 = "a,b\n" and i2 = "xx" and i3 = "" in
  let r1 = Engine.tokens e i1 in
  let _ = Engine.tokens e i2 in
  let r1' = Engine.tokens e i1 in
  let r3 = Engine.tokens e i3 in
  check "deterministic across reuse" true (r1 = r1');
  check "empty ok" true (snd r3 = Engine.Finished)

let prop_random_chunk_plans =
  QCheck.Test.make ~count:150 ~name:"random chunk plans ≡ one-shot"
    (QCheck.pair Gen.grammar_input_arb (QCheck.list_of_size (QCheck.Gen.int_range 1 6) QCheck.small_nat))
    (fun ((rules, input), sizes) ->
      let d = Dfa.of_rules rules in
      match Engine.compile d with
      | Error Engine.Unbounded_tnd -> QCheck.assume_fail ()
      | Ok e ->
          let plan = List.map (fun s -> 1 + (s mod 9)) sizes in
          let reference, ro = Engine.tokens e input in
          let got, o = chunked_with_plan e input plan in
          Gen.same_tokens reference got
          &&
          (match (ro, o) with
          | Engine.Finished, Engine.Finished -> true
          | Engine.Failed { offset = a; _ }, Engine.Failed { offset = b; _ } ->
              a = b
          | _ -> false))

(* Chunked accel ≡ chunked noaccel (1k seeded cases): the kernel's skip
   loops — the K ≤ 1 skip held short of the chunk's last byte and the TE
   two-cursor skip with the K-symbol lead — against the [~accel:Off] reference tokenizer under
   random chunk plans, so skip entry and exit land on chunk boundaries in
   every alignment. *)
let test_accel_chunked_parity () =
  let rng = Prng.create 0x5C1FFEDL in
  let cases = ref 0 in
  while !cases < 1000 do
    let rules =
      match Prng.int rng 2 with
      | 0 -> Fuzz.Gen.grammar rng ~cls:Fuzz.Gen.charset_bytes
      | _ -> Grammar_corpus.sample rng
    in
    let da = Dfa.of_rules rules in
    let dp = Dfa.of_rules ~accel:Accel.Off rules in
    match (Engine.compile da, Engine.compile dp) with
    | Error Engine.Unbounded_tnd, Error Engine.Unbounded_tnd -> ()
    | Error _, Ok _ | Ok _, Error _ ->
        Alcotest.fail "accel/noaccel disagree on max-TND boundedness"
    | Ok ea, Ok ep ->
        let base = Fuzz.Gen.token_dense rng da ~target_len:(40 + Prng.int rng 300) in
        let inputs = [ base; Fuzz.Gen.near_miss rng base ] in
        List.iter
          (fun input ->
            let plan =
              List.init (1 + Prng.int rng 8) (fun _ -> 1 + Prng.int rng 9)
            in
            let ta, oa = chunked_with_plan ea input plan in
            let tp, op = chunked_with_plan ep input plan in
            if not (ta = tp && op = oa) then
              Alcotest.failf "accel/noaccel chunked mismatch on %S" input;
            incr cases)
          inputs
  done

(* The streaming latency claim: a maximal token is emitted no later than
   max(K,1) bytes after its last byte is fed (plus EOS drain). *)
let test_emission_latency_bound () =
  List.iter
    (fun (g : Grammar.t) ->
      let e = engine_of g in
      let delay = max (Engine.k e) 1 in
      let gen = Option.get (Gen_data.by_name g.Grammar.name) in
      let input = gen ~seed:91L ~target_bytes:3_000 () in
      let fed = ref 0 in
      let emitted_bytes = ref 0 in
      let worst = ref 0 in
      let st =
        Stream_tokenizer.create e ~emit:(fun lexeme _ ->
            emitted_bytes := !emitted_bytes + String.length lexeme;
            (* the token's last byte arrived at stream offset !emitted_bytes;
               we have fed !fed bytes so far *)
            let latency = !fed - !emitted_bytes in
            if latency > !worst then worst := latency)
      in
      String.iter
        (fun c ->
          incr fed;
          Stream_tokenizer.feed st (String.make 1 c) 0 1)
        input;
      ignore (Stream_tokenizer.finish st);
      check
        (Printf.sprintf "%s latency ≤ %d" g.Grammar.name delay)
        true (!worst <= delay))
    [ Formats.csv; Formats.json; Formats.xml; Formats.linux_log ]

let suite =
  [
    Alcotest.test_case "formats chunked (5 plans)" `Quick test_formats_chunked;
    Alcotest.test_case "emission latency ≤ max(K,1)" `Quick
      test_emission_latency_bound;
    Alcotest.test_case "logs chunked" `Quick test_logs_chunked;
    Alcotest.test_case "zero-length feeds" `Quick test_zero_length_feeds;
    Alcotest.test_case "interior slices" `Quick test_feed_offsets;
    Alcotest.test_case "emit during finish" `Quick test_emit_during_finish;
    Alcotest.test_case "failure offset across chunks" `Quick
      test_failure_offset_across_chunks;
    Alcotest.test_case "unterminated leftover" `Quick
      test_unterminated_token_leftover;
    Alcotest.test_case "force_te ablation agrees" `Quick test_force_te_equivalent;
    Alcotest.test_case "lazy footprint" `Quick test_footprint_grows_lazily;
    Alcotest.test_case "engine reuse" `Quick test_engine_reuse_across_inputs;
    QCheck_alcotest.to_alcotest prop_random_chunk_plans;
    Alcotest.test_case "accel ≡ noaccel chunked (1k seeded)" `Quick
      test_accel_chunked_parity;
  ]
