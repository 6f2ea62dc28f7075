open Streamtok

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let tnd_of src = Tnd.max_tnd (Dfa.of_grammar src)

let check_tnd name src expected =
  Alcotest.(check string) name expected (Tnd.result_to_string (tnd_of src))

(* The six grammars of Example 9, with the paper's max-TND values. *)
let test_example9 () =
  check_tnd "row 1" "[0-9]\n[ ]" "0";
  check_tnd "row 2" "[0-9]+\n[ ]+" "1";
  check_tnd "row 3" "[0-9]+(\\.[0-9]+)?\n[ .]" "2";
  check_tnd "row 4" "[0-9]+([eE][+-]?[0-9]+)?\n[ ]+" "3";
  check_tnd "row 5" "[0-9]*0\n[ ]+" "inf";
  check_tnd "row 6" "a\na*b\n[ab]*[^ab]" "inf"

(* Lemma 6's lower-bound grammar: [a, b, (a|b)*c]. *)
let test_lemma6_grammar () =
  check_tnd "lemma 6" "a\nb\n(a|b)*c" "inf"

(* The Fig. 8 microbenchmark family has TkDist(r_k) = k. *)
let test_worst_case_family () =
  List.iter
    (fun k ->
      let g = Worst_case.grammar k in
      match Grammar.tnd g with
      | Tnd.Finite k' -> check_int (Printf.sprintf "k=%d" k) k k'
      | Tnd.Infinite -> Alcotest.failf "k=%d reported infinite" k)
    [ 0; 1; 2; 3; 5; 8; 17; 33 ]

(* The PSPACE-hardness reduction case f(r) = □ | □□□ has max-TND 2. *)
let test_reduction_base_case () = check_tnd "box grammar" "x\nxxx" "2"

let test_single_rule () =
  check_tnd "single char" "a" "0";
  check_tnd "fixed word" "abc" "0";
  check_tnd "star" "a*" "1";
  check_tnd "ab{0,4}" "ab{0,4}" "1";
  check_tnd "a(bc){0,3}" "a(bc){0,3}" "2"

let test_no_tokens () =
  (* a grammar whose only rule accepts nothing nonempty *)
  check_tnd "eps only" "()" "0"

let test_unbounded_quote_doubling () =
  (* the CSV-RFC pattern from §6 RQ1 *)
  check_tnd "rfc quoting" "\"([^\"]|\"\")*\"" "inf";
  (* the streaming variant is bounded *)
  check_tnd "optional close" "\"([^\"]|\"\")*\"?" "1"

let test_comment_after_slash () =
  (* the C pattern: '/' token + '/*...*/' comment token *)
  check_tnd "slash+comment" "/\n/\\*([^*]|\\*+[^*/])*\\*+/" "inf"

let test_trace_matches_fig4 () =
  (* Example 16: trace ends with test=true at dist 3 *)
  let d = Dfa.of_grammar "[0-9]+([eE][+-]?[0-9]+)?\n[ ]+" in
  let result, trace = Tnd.max_tnd_trace d in
  check "result 3" true (result = Tnd.Finite 3);
  check_int "four rows" 4 (List.length trace);
  List.iteri
    (fun i row ->
      check_int "dist increments" i row.Tnd.dist;
      check (Printf.sprintf "test row %d" i) (i = 3) row.Tnd.test)
    trace;
  (* Example 17: all tests fail, result infinite *)
  let d17 = Dfa.of_grammar "[0-9]*0\n[ ]+" in
  let result17, trace17 = Tnd.max_tnd_trace d17 in
  check "result inf" true (result17 = Tnd.Infinite);
  check "all tests false" true (List.for_all (fun r -> not r.Tnd.test) trace17);
  check_int "runs |A|+2 rounds" (Dfa.size d17 + 2) (List.length trace17)

let test_witness_verified () =
  (* witnesses must be genuine neighbor pairs per the reference matcher *)
  let cases =
    [
      ("[0-9]+\n[ ]+", 1);
      ("[0-9]+(\\.[0-9]+)?\n[ .]", 2);
      ("[0-9]+([eE][+-]?[0-9]+)?\n[ ]+", 3);
      ("a{0,7}b\na", 7);
    ]
  in
  List.iter
    (fun (src, k) ->
      let rules = Parser.parse_grammar src in
      let d = Dfa.of_rules rules in
      (match Tnd.witness d k with
      | None -> Alcotest.failf "no witness for %s at %d" src k
      | Some (u, v) ->
          check
            (Printf.sprintf "%s witness (%S,%S)" src u v)
            true
            (Tnd_brute.is_neighbor_pair rules u v
            && String.length v - String.length u >= k));
      (* and none at k+1 *)
      check (src ^ " no witness past max") true (Tnd.witness d (k + 1) = None))
    cases

let test_witness_zero () =
  let d = Dfa.of_grammar "[0-9]\n[ ]" in
  match Tnd.witness d 0 with
  | Some (u, v) -> check "self pair" true (u = v && String.length u = 1)
  | None -> Alcotest.fail "no zero witness"

let test_witness_infinite_grammar () =
  (* for an unbounded grammar, witnesses exist at every distance *)
  let rules = Parser.parse_grammar "a\nb\n(a|b)*c" in
  let d = Dfa.of_rules rules in
  List.iter
    (fun k ->
      match Tnd.witness d k with
      | None -> Alcotest.failf "no witness at %d" k
      | Some (u, v) ->
          check
            (Printf.sprintf "inf witness k=%d" k)
            true
            (Tnd_brute.is_neighbor_pair rules u v
            && String.length v - String.length u >= k))
    [ 1; 5; 12 ]

(* The pumped witness of an unbounded grammar is a neighbor pair at every
   pump count. *)
let pump_verifies rules { Tnd.u; x; y; z } =
  List.for_all
    (fun n ->
      let v = String.concat "" ([ u; x ] @ List.init n (fun _ -> y) @ [ z ]) in
      Tnd_brute.is_neighbor_pair rules u v)
    [ 0; 1; 2 ]

let test_pumped_witness () =
  List.iter
    (fun src ->
      let rules = Parser.parse_grammar src in
      match Tnd.pumped_witness (Dfa.of_rules rules) with
      | None -> Alcotest.failf "no pumped witness for %S" src
      | Some p ->
          check
            (Printf.sprintf "%S pumped (%S, %S, %S, %S)" src p.Tnd.u p.Tnd.x
               p.Tnd.y p.Tnd.z)
            true (pump_verifies rules p))
    [
      "a\nb\n(a|b)*c";
      "[0-9]*0\n[ ]+";
      "\"([^\"]|\"\")*\"";
      "/\n/\\*([^*]|\\*+[^*/])*\\*+/";
      "[ab]*a[ab]{12}";
    ];
  check "none when bounded" true
    (Tnd.pumped_witness (Dfa.of_grammar "[0-9]+\n[ ]+") = None)

(* The linear search against the literal Fig. 3 loop of [max_tnd_trace]:
   the same result, and a pumped witness exactly when that result is ∞.
   Returns whether the grammar was unbounded. *)
let agrees_with_fig3 name d =
  let fig3, _ = Tnd.max_tnd_trace d in
  let search = Tnd.max_tnd d in
  if not (Tnd.equal_result search fig3) then
    Alcotest.failf "%s: search says %s, Fig. 3 says %s" name
      (Tnd.result_to_string search)
      (Tnd.result_to_string fig3);
  let unbounded = search = Tnd.Infinite in
  if (Tnd.pumped_witness d <> None) <> unbounded then
    Alcotest.failf "%s: pumped witness disagrees with %s" name
      (Tnd.result_to_string search);
  unbounded

let test_search_vs_fig3_registry () =
  List.iter
    (fun g -> ignore (agrees_with_fig3 g.Grammar.name (Grammar.dfa g)))
    Registry.all;
  List.iter
    (fun k ->
      ignore
        (agrees_with_fig3
           (Printf.sprintf "worst case k=%d" k)
           (Grammar.dfa (Worst_case.grammar k))))
    (List.sort_uniq compare ([ 0; 1; 3; 5; 17; 33 ] @ Worst_case.sweep_k))

let test_search_vs_fig3_corpus () =
  let corpus = Grammar_corpus.generate ~seed:26L ~count:1000 () in
  let unbounded = ref 0 in
  Array.iteri
    (fun i rules ->
      if agrees_with_fig3 (Printf.sprintf "corpus #%d" i) (Dfa.of_rules rules)
      then incr unbounded)
    corpus;
  (* both verdicts are exercised *)
  check "some unbounded" true (!unbounded > 0);
  check "some bounded" true (!unbounded < Array.length corpus)

(* 32 769 states, under the serving cap: Fig. 3 needs |A| + 2 rounds to
   call it ∞, the search one pass. *)
let test_search_large_unbounded () =
  let src = "[xy]*x[xy]{14}" in
  let rules = Parser.parse_grammar src in
  let d = Dfa.of_rules rules in
  check_int "states" 32769 (Dfa.size d);
  check "infinite" true (Tnd.max_tnd d = Tnd.Infinite);
  match Tnd.pumped_witness d with
  | None -> Alcotest.failf "no pumped witness for %s" src
  | Some p -> check "pump verifies" true (pump_verifies rules p)

(* Brute-force differential on random small grammars: if the analysis says
   Finite k, the brute enumeration (bounded depth) must never exceed k, and
   the witness extractor must produce a verified pair of distance ≥ k. *)
let prop_analysis_vs_brute =
  QCheck.Test.make ~count:150 ~name:"analysis ≥ brute enumeration"
    Gen.grammar_arb (fun rules ->
      let d = Dfa.of_rules rules in
      match Tnd.max_tnd d with
      | Tnd.Infinite -> true
      | Tnd.Finite k -> (
          match
            Tnd_brute.max_tnd_upto rules ~alphabet:Gen.small_alphabet
              ~max_len:7
          with
          | None -> true
          | Some brute -> brute <= k))

let prop_witness_is_sound =
  QCheck.Test.make ~count:100 ~name:"witness pairs verify"
    Gen.grammar_arb (fun rules ->
      let d = Dfa.of_rules rules in
      match Tnd.max_tnd d with
      | Tnd.Infinite -> (
          match Tnd.pumped_witness d with
          | None -> false
          | Some p -> pump_verifies rules p)
      | Tnd.Finite 0 -> true
      | Tnd.Finite k -> (
          match Tnd.witness d k with
          | None -> false
          | Some (u, v) ->
              Tnd_brute.is_neighbor_pair rules u v
              && String.length v - String.length u >= k))

let prop_witness_is_tight =
  QCheck.Test.make ~count:100 ~name:"no witness beyond max-TND"
    Gen.grammar_arb (fun rules ->
      let d = Dfa.of_rules rules in
      match Tnd.max_tnd d with
      | Tnd.Infinite -> true
      | Tnd.Finite k ->
          Tnd.witness d (k + 1) = None && Tnd.pumped_witness d = None)

(* Dichotomy (Lemma 11): finite implies ≤ |A| + 1. *)
let prop_dichotomy =
  QCheck.Test.make ~count:200 ~name:"dichotomy bound"
    Gen.grammar_arb (fun rules ->
      let d = Dfa.of_rules rules in
      match Tnd.max_tnd d with
      | Tnd.Infinite -> true
      | Tnd.Finite k -> k <= Dfa.size d + 1)

let suite =
  [
    Alcotest.test_case "Example 9 table" `Quick test_example9;
    Alcotest.test_case "Lemma 6 grammar" `Quick test_lemma6_grammar;
    Alcotest.test_case "Fig. 8 family TND" `Quick test_worst_case_family;
    Alcotest.test_case "PSPACE reduction base" `Quick test_reduction_base_case;
    Alcotest.test_case "single rules" `Quick test_single_rule;
    Alcotest.test_case "no tokens" `Quick test_no_tokens;
    Alcotest.test_case "quote doubling" `Quick test_unbounded_quote_doubling;
    Alcotest.test_case "slash/comment" `Quick test_comment_after_slash;
    Alcotest.test_case "Fig. 4 traces" `Quick test_trace_matches_fig4;
    Alcotest.test_case "witnesses verified" `Quick test_witness_verified;
    Alcotest.test_case "witness k=0" `Quick test_witness_zero;
    Alcotest.test_case "witness on unbounded" `Quick
      test_witness_infinite_grammar;
    Alcotest.test_case "pumped witness verified" `Quick test_pumped_witness;
    Alcotest.test_case "search = Fig. 3 on registry" `Quick
      test_search_vs_fig3_registry;
    Alcotest.test_case "search = Fig. 3 on corpus" `Quick
      test_search_vs_fig3_corpus;
    Alcotest.test_case "search on 32769 states" `Quick
      test_search_large_unbounded;
    QCheck_alcotest.to_alcotest prop_analysis_vs_brute;
    QCheck_alcotest.to_alcotest prop_witness_is_sound;
    QCheck_alcotest.to_alcotest prop_witness_is_tight;
    QCheck_alcotest.to_alcotest prop_dichotomy;
  ]
