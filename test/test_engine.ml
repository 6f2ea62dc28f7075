open Streamtok

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let compile_exn src =
  match Engine.compile_grammar src with
  | Ok e -> e
  | Error Engine.Unbounded_tnd -> Alcotest.failf "unexpected unbounded: %s" src

let outcome_agrees (b : Backtracking.outcome) (s : Engine.outcome) =
  match (b, s) with
  | Backtracking.Finished, Engine.Finished -> true
  | Backtracking.Failed { offset = o1; _ }, Engine.Failed { offset = o2; _ } ->
      o1 = o2
  | _ -> false

let run_both src input =
  let e = compile_exn src in
  let d = Engine.dfa e in
  let bt, bo = Backtracking.tokens d input in
  let st, so = Engine.tokens e input in
  check
    (Printf.sprintf "tokens %s on %S" src input)
    true (Gen.same_tokens bt st);
  check (Printf.sprintf "outcome %s on %S" src input) true (outcome_agrees bo so);
  (bt, bo)

let test_compile_modes () =
  let e1 = compile_exn "[0-9]+\n[ ]+" in
  check_int "k1 grammar" 1 (Engine.k e1);
  check_int "no TeDFA for k<=1" 0 (Engine.te_states e1);
  let e3 = compile_exn "[0-9]+([eE][+-]?[0-9]+)?\n[ ]+" in
  check_int "k3 grammar" 3 (Engine.k e3);
  check "TeDFA built" true (Engine.te_states e3 > 0);
  check "footprint positive" true (Engine.footprint_bytes e3 > 0)

(* footprint_bytes must be positive in both modes and account for the
   lookahead buffer and mode tables consistently: in TE mode it grows
   monotonically as powerstates materialize (te_states is lazy) and counts
   their rows, and the compile-time snapshot matches the engine's own
   accessor. *)
let test_footprint () =
  let d1 = Dfa.of_grammar "[0-9]+\n[ ]+" in
  (match Engine.compile_timed d1 with
  | Error _ -> Alcotest.fail "unexpected unbounded"
  | Ok (e1, cs) ->
      check "k1 footprint positive" true (Engine.footprint_bytes e1 > 0);
      check "k1 table accounted" true
        (Engine.footprint_bytes e1 > Engine.k1_table_bytes e1);
      check_int "snapshot matches accessor" (Engine.footprint_bytes e1)
        cs.Engine.footprint_bytes;
      let nc = Dfa.num_classes (Engine.dfa e1) in
      check_int "k1_table_bytes = (classes + 1) * states"
        ((nc + 1) * cs.Engine.dfa_states)
        (Engine.k1_table_bytes e1);
      check "classed k1 table below the dense 257 * states" true
        (Engine.k1_table_bytes e1 < 257 * cs.Engine.dfa_states));
  let d3 = Dfa.of_grammar "[0-9]+([eE][+-]?[0-9]+)?\n[ ]+" in
  match Engine.compile d3 with
  | Error _ -> Alcotest.fail "unexpected unbounded"
  | Ok e3 ->
      check "te footprint positive" true (Engine.footprint_bytes e3 > 0);
      check_int "no k1 table in TE mode" 0 (Engine.k1_table_bytes e3);
      let states0 = Engine.te_states e3 in
      let fp0 = Engine.footprint_bytes e3 in
      (* a run materializes more TE powerstates; footprint must follow *)
      ignore
        (Engine.run_string e3 "1e+5 27 3e9 12 " ~emit:(fun ~pos:_ ~len:_ ~rule:_ -> ()));
      let states1 = Engine.te_states e3 in
      let fp1 = Engine.footprint_bytes e3 in
      check "run materialized powerstates" true (states1 > states0);
      check "footprint monotone in te_states" true (fp1 > fp0);
      (* the TE DFA is counted as allocated: every materialized
         powerstate's transition row at least *)
      let te = Option.get (Engine.Internal.te_dfa e3) in
      check "materialized rows counted" true
        (fp1 > states1 * Te_dfa.width te * 8)

let test_compile_unbounded () =
  match Engine.compile_grammar "a\nb\n(a|b)*c" with
  | Error Engine.Unbounded_tnd -> ()
  | Ok _ -> Alcotest.fail "expected Unbounded_tnd"

let test_example2 () =
  (* the paper's running example *)
  let tokens, outcome = run_both "a\nba*\nc[ab]*" "abaabacabaa" in
  check "finished" true (outcome = Backtracking.Finished);
  check "paper token list" true
    (Gen.same_tokens tokens [ ("a", 0); ("baa", 1); ("ba", 1); ("cabaa", 2) ])

let test_example18 () =
  (* Fig. 5 walkthrough: "12 " for [0-9]+|[ ]+ *)
  let tokens, _ = run_both "[0-9]+\n[ ]+" "12 " in
  check "12 then space" true
    (Gen.same_tokens tokens [ ("12", 0); (" ", 1) ])

let test_example19 () =
  (* Fig. 6 walkthrough: "1.4.." for [0-9]+(\.[0-9]+)?|[.] — K = 2 *)
  let tokens, _ = run_both "[0-9]+(\\.[0-9]+)?\n[.]" "1.4.." in
  check "maximal float first" true
    (Gen.same_tokens tokens [ ("1.4", 0); (".", 1); (".", 1) ])

let test_k0_grammar () =
  let tokens, outcome = run_both "[0-9]\n[ ]" "1 2 3" in
  check_int "five unit tokens" 5 (List.length tokens);
  check "finished" true (outcome = Backtracking.Finished)

let test_eos_boundaries () =
  (* tokens whose maximality is only decided at end of stream *)
  ignore (run_both "[0-9]+(\\.[0-9]+)?\n[ ]+" "12");
  ignore (run_both "[0-9]+(\\.[0-9]+)?\n[ ]+" "12.");
  ignore (run_both "[0-9]+(\\.[0-9]+)?\n[ ]+" "12.5");
  ignore (run_both "[0-9]+([eE][+-]?[0-9]+)?\n[ ]+" "1e");
  ignore (run_both "[0-9]+([eE][+-]?[0-9]+)?\n[ ]+" "1e+");
  ignore (run_both "[0-9]+([eE][+-]?[0-9]+)?\n[ ]+" "1e+5");
  ignore (run_both "abcde\nab" "abcd");
  ignore (run_both "abcde\nab" "abc")

let test_failures () =
  let _, o1 = run_both "[0-9]+\n[ ]+" "12x3" in
  check "fails at x" true
    (match o1 with Backtracking.Failed { offset; _ } -> offset = 2 | _ -> false);
  let _, o2 = run_both "[0-9]+\n[ ]+" "x" in
  check "fails at 0" true
    (match o2 with Backtracking.Failed { offset; _ } -> offset = 0 | _ -> false);
  (* prefix of a token, then EOS: leftover *)
  let _, o3 = run_both "abc\n[ ]" "ab" in
  check "leftover ab" true
    (match o3 with Backtracking.Failed { offset = 0; _ } -> true | _ -> false)

let test_empty_input () =
  let tokens, outcome = run_both "a+\nb" "" in
  check "no tokens" true (tokens = []);
  check "finished" true (outcome = Backtracking.Finished)

let test_input_shorter_than_k () =
  (* stream shorter than the lookahead window *)
  ignore (run_both "[0-9]+([eE][+-]?[0-9]+)?\n[ ]+" "7");
  ignore (run_both "abcdefgh\na" "a");
  ignore (run_both "abcdefgh\na" "ab")

let test_worst_case_correctness () =
  List.iter
    (fun k ->
      let g = Worst_case.grammar k in
      let rules = Grammar.rules g in
      let d = Dfa.of_rules rules in
      let e =
        match Engine.compile d with Ok e -> e | Error _ -> assert false
      in
      List.iter
        (fun n ->
          let input = Worst_case.input n in
          let bt, bo = Backtracking.tokens d input in
          let st, so = Engine.tokens e input in
          check
            (Printf.sprintf "worst-case k=%d n=%d" k n)
            true
            (Gen.same_tokens bt st && outcome_agrees bo so))
        [ 0; 1; k; k + 1; (3 * k) + 2; 50 ])
    [ 1; 2; 3; 7 ]

(* Chunked streaming must agree with the one-shot string runner for every
   chunking of the input. *)
let chunked_tokens e input ~chunk =
  let acc = ref [] in
  let st = Stream_tokenizer.create e ~emit:(fun lex r -> acc := (lex, r) :: !acc) in
  let pos = ref 0 in
  let n = String.length input in
  while !pos < n do
    let len = min chunk (n - !pos) in
    Stream_tokenizer.feed st input !pos len;
    pos := !pos + len
  done;
  let outcome = Stream_tokenizer.finish st in
  (List.rev !acc, outcome)

let test_chunked_all_sizes () =
  let src = "[0-9]+(\\.[0-9]+)?([eE][+-]?[0-9]+)?\n[ \\t\\n]+\n[a-z]+\n[,:]" in
  let e = compile_exn src in
  let d = Engine.dfa e in
  let input = "3.14 foo, 1e-9: bar 12. x 7e" in
  let bt, bo = Backtracking.tokens d input in
  List.iter
    (fun chunk ->
      let ct, co = chunked_tokens e input ~chunk in
      check (Printf.sprintf "chunk=%d tokens" chunk) true (Gen.same_tokens bt ct);
      check (Printf.sprintf "chunk=%d outcome" chunk) true (outcome_agrees bo co))
    [ 1; 2; 3; 5; 7; 16; 1000 ]

let test_stream_tokenizer_misuse () =
  let e = compile_exn "[0-9]+\n[ ]+" in
  let st = Stream_tokenizer.create e ~emit:(fun _ _ -> ()) in
  (match Stream_tokenizer.feed st "abc" 1 5 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "bad bounds accepted");
  Stream_tokenizer.feed_string st "12";
  let o1 = Stream_tokenizer.finish st in
  let o2 = Stream_tokenizer.finish st in
  check "finish idempotent" true (o1 = o2)

let test_stream_failure_stops () =
  let e = compile_exn "[0-9]+\n[ ]+" in
  let count = ref 0 in
  let st = Stream_tokenizer.create e ~emit:(fun _ _ -> incr count) in
  Stream_tokenizer.feed_string st "12 x";
  Stream_tokenizer.feed_string st " 34 56 ";
  check "failed flag" true (Stream_tokenizer.failed st);
  (match Stream_tokenizer.finish st with
  | Engine.Failed { offset; _ } -> check_int "offset" 3 offset
  | Engine.Finished -> Alcotest.fail "expected failure");
  check_int "tokens before failure" 2 !count

let test_bytes_fed () =
  let e = compile_exn "[0-9]+\n[ ]+" in
  let st = Stream_tokenizer.create e ~emit:(fun _ _ -> ()) in
  Stream_tokenizer.feed_string st "123 ";
  Stream_tokenizer.feed_string st "456";
  check_int "bytes fed" 7 (Stream_tokenizer.bytes_fed st)

(* The big differential property: on random grammars with bounded TND,
   StreamTok ≡ backtracking, both as string runner and chunked. *)
let prop_streamtok_equals_backtracking =
  QCheck.Test.make ~count:400 ~name:"StreamTok ≡ backtracking (random)"
    Gen.grammar_input_arb (fun (rules, input) ->
      let d = Dfa.of_rules rules in
      match Engine.compile d with
      | Error Engine.Unbounded_tnd -> QCheck.assume_fail ()
      | Ok e ->
          let bt, bo = Backtracking.tokens d input in
          let st, so = Engine.tokens e input in
          Gen.same_tokens bt st && outcome_agrees bo so)

let prop_chunked_equals_string =
  QCheck.Test.make ~count:200 ~name:"chunked ≡ one-shot (random)"
    (QCheck.pair Gen.grammar_input_arb QCheck.small_nat)
    (fun ((rules, input), chunk_seed) ->
      let d = Dfa.of_rules rules in
      match Engine.compile d with
      | Error Engine.Unbounded_tnd -> QCheck.assume_fail ()
      | Ok e ->
          let chunk = 1 + (chunk_seed mod 7) in
          let st, so = Engine.tokens e input in
          let ct, co = chunked_tokens e input ~chunk in
          Gen.same_tokens st ct
          &&
          (match (so, co) with
          | Engine.Finished, Engine.Finished -> true
          | Engine.Failed { offset = o1; _ }, Engine.Failed { offset = o2; _ }
            ->
              o1 = o2
          | _ -> false))

(* Alphabet-compression parity battery (the tentpole's oracle): for seeded
   random grammars — full-byte random, corpus-sampled and corpus-mutated —
   the classed engine must be byte-identical to the retained dense
   reference path ([~classes:false], identity classmap) on token-dense,
   near-miss and uniform full-byte inputs. Deterministic (SplitMix64
   seeded), ≥1k grammar×input cases. *)
let token_dense_input rng dfa =
  Fuzz.Gen.token_dense rng dfa ~target_len:(1 + Prng.int rng 200)

let test_classed_dense_parity () =
  let rng = Prng.create 0xC1A55E5L in
  let cases = ref 0 in
  let grammars = ref 0 in
  while !cases < 1000 do
    let rules =
      match Prng.int rng 3 with
      | 0 -> Fuzz.Gen.grammar rng ~cls:Fuzz.Gen.charset_bytes
      | 1 -> Grammar_corpus.sample rng
      | _ ->
          let r = Grammar_corpus.sample rng in
          Grammar_corpus.mutate rng r
    in
    let dc = Dfa.of_rules rules in
    let dd = Dfa.of_rules ~classes:false rules in
    check "dense reference keeps 256 columns" true (Dfa.num_classes dd = 256);
    check "classed has no more columns than dense" true
      (Dfa.num_classes dc <= 256);
    match (Engine.compile dc, Engine.compile dd) with
    | Error Engine.Unbounded_tnd, Error Engine.Unbounded_tnd -> ()
    | Error _, Ok _ | Ok _, Error _ ->
        Alcotest.fail "classed/dense disagree on max-TND boundedness"
    | Ok ec, Ok ed ->
        incr grammars;
        check_int "same lookahead k" (Engine.k ed) (Engine.k ec);
        let dense = token_dense_input rng dc in
        let inputs =
          [
            dense;
            Fuzz.Gen.near_miss rng dense;
            Fuzz.Gen.uniform rng ~alphabet:Fuzz.Gen.byte_alphabet ~max_len:200;
          ]
        in
        List.iter
          (fun input ->
            let tc, oc = Engine.tokens ec input in
            let td, od = Engine.tokens ed input in
            if not (Gen.same_tokens td tc && Engine.outcome_equal od oc) then
              Alcotest.failf "classed/dense mismatch on %S (grammar #%d)"
                input !grammars;
            incr cases)
          inputs
  done;
  check "ran a spread of grammars" true (!grammars >= 100)

(* Same battery against the self-loop acceleration: the skip-loop engine
   must be byte-identical to the [~accel:Off] reference build. *)
let test_accel_noaccel_parity () =
  let rng = Prng.create 0xACCE17EDL in
  let cases = ref 0 in
  let grammars = ref 0 in
  while !cases < 1000 do
    let rules =
      match Prng.int rng 3 with
      | 0 -> Fuzz.Gen.grammar rng ~cls:Fuzz.Gen.charset_bytes
      | 1 -> Grammar_corpus.sample rng
      | _ ->
          let r = Grammar_corpus.sample rng in
          Grammar_corpus.mutate rng r
    in
    let da = Dfa.of_rules rules in
    let dp = Dfa.of_rules ~accel:Accel.Off rules in
    check "reference build has accel off" true
      (Accel.level dp.Dfa.accel = Accel.Off);
    match (Engine.compile da, Engine.compile dp) with
    | Error Engine.Unbounded_tnd, Error Engine.Unbounded_tnd -> ()
    | Error _, Ok _ | Ok _, Error _ ->
        Alcotest.fail "accel/noaccel disagree on max-TND boundedness"
    | Ok ea, Ok ep ->
        incr grammars;
        let dense = token_dense_input rng da in
        let inputs =
          [
            dense;
            Fuzz.Gen.near_miss rng dense;
            Fuzz.Gen.uniform rng ~alphabet:Fuzz.Gen.byte_alphabet ~max_len:200;
          ]
        in
        List.iter
          (fun input ->
            let ta, oa = Engine.tokens ea input in
            let tp, op = Engine.tokens ep input in
            if not (Gen.same_tokens tp ta && Engine.outcome_equal op oa) then
              Alcotest.failf "accel/noaccel mismatch on %S (grammar #%d)"
                input !grammars;
            incr cases)
          inputs
  done;
  check "ran a spread of grammars" true (!grammars >= 100)

(* StreamTok takes exactly one DFA step per input byte: its cost is O(n).
   We verify the linear-time claim structurally: the backtracking runner on
   the worst-case family takes ≥ k/2 × n steps while StreamTok's step count
   is n by construction (no position ever revisited — checked by the token
   equality above), so here we just pin the backtracking blowup. *)
let test_backtracking_blowup () =
  let n = 2000 in
  let input = Worst_case.input n in
  List.iter
    (fun k ->
      let d = Dfa.of_rules (Grammar.rules (Worst_case.grammar k)) in
      let steps = Backtracking.steps d input in
      check
        (Printf.sprintf "flex steps grow with k=%d" k)
        true
        (steps >= (k / 2) * (n / 2)))
    [ 4; 16; 64 ]

(* Emitted lexemes concatenate back to the consumed prefix of the input,
   and the leftover (if any) is exactly the unconsumed suffix. *)
let prop_lexemes_reconstruct_input =
  QCheck.Test.make ~count:300 ~name:"lexemes ++ leftover = input"
    Gen.grammar_input_arb (fun (rules, input) ->
      let d = Dfa.of_rules rules in
      match Engine.compile d with
      | Error Engine.Unbounded_tnd -> QCheck.assume_fail ()
      | Ok e ->
          let toks, o = Engine.tokens e input in
          let consumed = String.concat "" (List.map fst toks) in
          (match o with
          | Engine.Finished -> consumed = input
          | Engine.Failed { offset; pending } ->
              String.length consumed = offset
              && consumed = String.sub input 0 offset
              && pending = String.sub input offset (String.length input - offset)))

(* The same invariant for the reference tokenizer. *)
let prop_backtracking_reconstructs =
  QCheck.Test.make ~count:300 ~name:"backtracking lexemes reconstruct"
    Gen.grammar_input_arb (fun (rules, input) ->
      let d = Dfa.of_rules rules in
      let toks, o = Backtracking.tokens d input in
      let consumed = String.concat "" (List.map fst toks) in
      match o with
      | Backtracking.Finished -> consumed = input
      | Backtracking.Failed { offset; _ } ->
          consumed = String.sub input 0 offset)

(* [compile_rules] analyses the bare tables and attaches the accelerator
   after admission; it must build exactly what compiling the finished DFA
   builds, and reject exactly what that rejects. *)
let test_admission_order () =
  let mini =
    match Bpe.Vocab.load_file "vocab/mini.tiktoken" with
    | Ok v -> v
    | Error e -> Alcotest.failf "vocab/mini.tiktoken: %s" e
  in
  let rng = Prng.create 0xad317L in
  let max_states = 4096 in
  let same name rules =
    let build f = match f () with r -> Some r | exception Failure _ -> None in
    match
      ( build (fun () -> Engine.compile_rules ~max_states rules),
        build (fun () -> Engine.compile (Dfa.of_rules ~max_states rules)) )
    with
    | Some (Ok a), Some (Ok b) ->
        check (name ^ ": same engine") true (Engine.equal a b)
    | Some (Error Engine.Unbounded_tnd), Some (Error Engine.Unbounded_tnd)
    | None, None ->
        ()
    | _ -> Alcotest.failf "%s: the two compile paths disagree" name
  in
  List.iter (fun g -> same g.Grammar.name (Grammar.rules g)) Registry.all;
  same "bpe:mini" (Bpe.Compiler.rules_of_vocab mini);
  same "bpe:tiny" (Bpe.Compiler.rules_of_vocab (Bpe.Trainer.tiny ~seed:11L));
  for i = 1 to 200 do
    same (Printf.sprintf "corpus %d" i) (Grammar_corpus.sample rng)
  done;
  for n = 1 to 12 do
    let rules = Parser.parse_grammar (Printf.sprintf "[xy]*x[xy]{%d}" n) in
    check
      (Printf.sprintf "[xy]*x[xy]{%d} rejected" n)
      true
      (Engine.compile_rules rules = Error Engine.Unbounded_tnd
      && Engine.compile (Dfa.of_rules rules) = Error Engine.Unbounded_tnd)
  done

let suite =
  [
    Alcotest.test_case "compile modes" `Quick test_compile_modes;
    Alcotest.test_case "footprint accounting" `Quick test_footprint;
    Alcotest.test_case "unbounded rejected" `Quick test_compile_unbounded;
    Alcotest.test_case "Example 2" `Quick test_example2;
    Alcotest.test_case "Example 18 (Fig. 5)" `Quick test_example18;
    Alcotest.test_case "Example 19 (Fig. 6)" `Quick test_example19;
    Alcotest.test_case "k=0 grammar" `Quick test_k0_grammar;
    Alcotest.test_case "EOS boundaries" `Quick test_eos_boundaries;
    Alcotest.test_case "failure positions" `Quick test_failures;
    Alcotest.test_case "empty input" `Quick test_empty_input;
    Alcotest.test_case "input shorter than K" `Quick test_input_shorter_than_k;
    Alcotest.test_case "worst-case family" `Quick test_worst_case_correctness;
    Alcotest.test_case "chunked all sizes" `Quick test_chunked_all_sizes;
    Alcotest.test_case "stream misuse" `Quick test_stream_tokenizer_misuse;
    Alcotest.test_case "stream failure" `Quick test_stream_failure_stops;
    Alcotest.test_case "bytes_fed" `Quick test_bytes_fed;
    Alcotest.test_case "backtracking blowup" `Quick test_backtracking_blowup;
    Alcotest.test_case "classed ≡ dense (1k seeded)" `Quick
      test_classed_dense_parity;
    Alcotest.test_case "accel ≡ noaccel (1k seeded)" `Quick
      test_accel_noaccel_parity;
    QCheck_alcotest.to_alcotest prop_streamtok_equals_backtracking;
    QCheck_alcotest.to_alcotest prop_lexemes_reconstruct_input;
    QCheck_alcotest.to_alcotest prop_backtracking_reconstructs;
    QCheck_alcotest.to_alcotest prop_chunked_equals_string;
    Alcotest.test_case "admission order" `Quick test_admission_order;
  ]
