open Streamtok

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_nfa_structure () =
  let rules = Parser.parse_grammar "a+\nb" in
  let nfa = Nfa.of_rules rules in
  check "has states" true (nfa.Nfa.num_states > 2);
  let finals =
    Array.to_list nfa.Nfa.accept_rule |> List.filter (fun r -> r >= 0)
  in
  check_int "one accept per rule" 2 (List.length finals)

let test_dfa_basic () =
  let d = Dfa.of_grammar "[0-9]\n[ ]" in
  (* Fig. 1 left: start, reject, space-final, digit-final *)
  check_int "four states" 4 (Dfa.size d);
  let q_digit = Dfa.run d "5" in
  check_int "digit rule" 0 (Dfa.accept_rule d q_digit);
  let q_space = Dfa.run d " " in
  check_int "space rule" 1 (Dfa.accept_rule d q_space);
  check "digit-digit rejects" false (Dfa.is_final d (Dfa.run d "55"));
  let coacc = Dfa.co_accessible d in
  check "reject state detected" true (Dfa.is_reject d coacc (Dfa.run d "xx"))

let test_dfa_priority () =
  (* equal-length match must take least rule index *)
  let d = Dfa.of_grammar "ab\na[b]" in
  let q = Dfa.run d "ab" in
  check_int "least rule wins" 0 (Dfa.accept_rule d q)

let test_dfa_totality () =
  let d = Dfa.of_grammar "abc" in
  (* every state has a transition for every byte *)
  let ok = ref true in
  for q = 0 to Dfa.size d - 1 do
    for c = 0 to 255 do
      let q' = Dfa.step d q (Char.chr c) in
      if q' < 0 || q' >= Dfa.size d then ok := false
    done
  done;
  check "total" true !ok

let test_max_states_cap () =
  let rules = Parser.parse_grammar "[0-9]+(\\.[0-9]+)?\n[ \\t]+\n[a-z]+" in
  (* The cap binds during subset construction, before minimization, so
     measure against the unminimized size: a cap at exactly that size
     succeeds and builds the identical automaton; one state less must
     abort with a Failure naming the cap. *)
  let d = Dfa.of_rules ~minimize:false rules in
  let capped = Dfa.of_rules ~minimize:false ~max_states:(Dfa.size d) rules in
  check_int "cap = size succeeds" (Dfa.size d) (Dfa.size capped);
  (match Dfa.of_rules ~minimize:false ~max_states:(Dfa.size d - 1) rules with
  | exception Failure msg ->
      check "message names the cap" true
        (let sub = string_of_int (Dfa.size d - 1) in
         let n = String.length msg and m = String.length sub in
         let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
         go 0)
  | _ -> Alcotest.fail "expected Failure from exceeded cap");
  (* The cap threads through the engine compile path too. *)
  match Engine.compile_rules ~max_states:1 rules with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure from Engine.compile_rules cap"

let test_minimization_shrinks () =
  let rules = Parser.parse_grammar "(a|b)(a|b)\n(aa|ab|ba|bb)c" in
  let d_min = Dfa.of_rules ~minimize:true rules in
  let d_raw = Dfa.of_rules ~minimize:false rules in
  check "minimized not larger" true (Dfa.size d_min <= Dfa.size d_raw)

let test_minimization_preserves_language () =
  let grammars = [ "a+b\nc"; "[0-9]+(\\.[0-9]+)?\n[ ]+"; "(ab)*\nb+a" ] in
  List.iter
    (fun src ->
      let rules = Parser.parse_grammar src in
      let d_min = Dfa.of_rules ~minimize:true rules in
      let d_raw = Dfa.of_rules ~minimize:false rules in
      let rng = Prng.create 7L in
      for _ = 1 to 500 do
        let len = Prng.int rng 10 in
        let s =
          String.init len (fun _ ->
              [| 'a'; 'b'; 'c'; '0'; '9'; '.'; ' ' |].(Prng.int rng 7))
        in
        let qm = Dfa.run d_min s and qr = Dfa.run d_raw s in
        if Dfa.accept_rule d_min qm <> Dfa.accept_rule d_raw qr then
          Alcotest.failf "minimization changed language of %s on %S" src s
      done)
    grammars;
  check "ok" true true

let test_reachable_nonempty () =
  let d = Dfa.of_grammar "a" in
  let rne = Dfa.reachable_nonempty d in
  (* the start state of this grammar is not reachable via a nonempty word *)
  check "start not included" false (St_util.Bits.mem rne d.Dfa.start);
  check "a-state included" true (St_util.Bits.mem rne (Dfa.run d "a"))

let test_reachable_nonempty_loop () =
  (* here the start state is re-entered on 'b' after 'a': (ab)* *)
  let d = Dfa.of_grammar "(ab)*c" in
  let rne = Dfa.reachable_nonempty d in
  check "start re-entered" true (St_util.Bits.mem rne (Dfa.run d "ab"))

(* Differential: DFA acceptance ≡ naive derivative matcher. *)
let prop_dfa_matches_naive =
  QCheck.Test.make ~count:300 ~name:"DFA run ≡ derivative matcher"
    Gen.grammar_input_arb (fun (rules, s) ->
      let d = Dfa.of_rules rules in
      let q = Dfa.run d s in
      let dfa_rule = if s = "" then -1 else Dfa.accept_rule d q in
      let naive_rule =
        if s = "" then -1
        else
          let rec first i = function
            | [] -> -1
            | r :: rest -> if Naive.matches r s then i else first (i + 1) rest
          in
          first 0 rules
      in
      dfa_rule = naive_rule)

(* Differential: minimization preserves the tokenization function. *)
let prop_minimize_preserves_tokens =
  QCheck.Test.make ~count:200 ~name:"minimize preserves tokens"
    Gen.grammar_input_arb (fun (rules, s) ->
      let tmin, _ = Backtracking.tokens (Dfa.of_rules ~minimize:true rules) s in
      let traw, _ = Backtracking.tokens (Dfa.of_rules ~minimize:false rules) s in
      Gen.same_tokens tmin traw)

(* Pinned tables: a digest of (start, classmap, trans, accept) of the
   unminimized and the minimized DFA of every registry grammar and of the
   mini and tiny vocabularies, in both table layouts. The digests were
   taken from the step-per-class subset construction, so any change to how
   the tables are built must leave them byte-identical. *)
let table_text (d : Dfa.t) =
  let b = Buffer.create 4096 in
  Printf.bprintf b "%d;%s;" d.Dfa.start d.Dfa.classmap;
  Array.iter (Printf.bprintf b "%d,") d.Dfa.trans;
  Buffer.add_char b ';';
  Array.iter (Printf.bprintf b "%d,") d.Dfa.accept;
  Buffer.contents b

let tables_digest ~classes rules =
  let raw = Dfa.of_rules ~minimize:false ~classes rules in
  let min = Dfa.of_rules ~classes rules in
  Digest.to_hex (Digest.string (table_text raw ^ "|" ^ table_text min))

let pinned_tables =
  [
    ("json", true, "40772ad8cb9337bc42a83c7d4bc38dda");
    ("json", false, "7b0e03463ce18e4fc537a5d509b5cc92");
    ("csv", true, "1b9e1db8221f9d3d74bcbd6bcf7bd504");
    ("csv", false, "3f74f7c55dd663aef9865a94d3ce501f");
    ("csv-rfc4180", true, "9aa32f664e0c43feee6108b2e676052b");
    ("csv-rfc4180", false, "0e791b0b4a9d2e295b8d245adb2b88d2");
    ("tsv", true, "6714dd2307fbafa6879dcac910ca21be");
    ("tsv", false, "ed6a16fe2aec0382ac18796cb0f4c3c1");
    ("xml", true, "f4901a1b55ba0956f82db86ba8816b80");
    ("xml", false, "1a44a481a1f56964f8bcef308cc5bd32");
    ("yaml", true, "f85f6fcedb8e6c88b6eda35598d4b5b3");
    ("yaml", false, "575cf8cfc766829aeeed4cd7564438c4");
    ("fasta", true, "29126f27ebb240f73f15ae2f0da8cdb6");
    ("fasta", false, "ae7e313676c7c94a687baaf43925bcd6");
    ("dns-zone", true, "bc4c90bdf4a038ecd8c00f1ec64d9e00");
    ("dns-zone", false, "c6c2bb7dab2c29292084863776fd7f1c");
    ("log", true, "f52988f1f755ea217d2eff5ae21df828");
    ("log", false, "6bb2b3cc784b81595a7e8c98c47b10de");
    ("android", true, "32b8cf3f52987027496421bbe8755cb2");
    ("android", false, "a885994e5397659d1a2bf8922362e6d6");
    ("apache", true, "ba6d669681be84d8aa316c477beb0a7c");
    ("apache", false, "ab5f9d733db5aa72c1c0439cbed140d4");
    ("bgl", true, "4b31a006356053df9c9824d0391018c2");
    ("bgl", false, "b714348f6bf4acd3fdea22d903d411e2");
    ("hadoop", true, "32b8cf3f52987027496421bbe8755cb2");
    ("hadoop", false, "a885994e5397659d1a2bf8922362e6d6");
    ("hdfs", true, "2e7be0e464f7587d647840b5a1b169f1");
    ("hdfs", false, "bc97493cce4d26267b4eb8b07e772011");
    ("linux", true, "ba6d669681be84d8aa316c477beb0a7c");
    ("linux", false, "ab5f9d733db5aa72c1c0439cbed140d4");
    ("mac", true, "a6eff59824d751634d5f263532e4ee8a");
    ("mac", false, "0c5359a8d38cf81a15193d5eb7695e19");
    ("nginx", true, "814ced56916bd39e766efb024b9edb0a");
    ("nginx", false, "b722a04567430eae743421eef752d939");
    ("openssh", true, "ba6d669681be84d8aa316c477beb0a7c");
    ("openssh", false, "ab5f9d733db5aa72c1c0439cbed140d4");
    ("proxifier", true, "d5f038ee9acaca2e5382ac44374214ee");
    ("proxifier", false, "486ca47c10b83284e8eae2468827336e");
    ("spark", true, "a6eff59824d751634d5f263532e4ee8a");
    ("spark", false, "0c5359a8d38cf81a15193d5eb7695e19");
    ("windows", true, "a3dcafe870479486fa3db817cc83e525");
    ("windows", false, "b85359a836cdc364f606d8a24324b023");
    ("c", true, "b9f2e52036cb66947fcf454a7405eb69");
    ("c", false, "f335f27c4a44d14768569860efeb4ff3");
    ("r", true, "fcaaa887d0153fc925640cf827a63efa");
    ("r", false, "f1120e976f18596fb70540c6a2e8b3b6");
    ("sql", true, "6f9a3c221a8ba108be31d94e17c6332e");
    ("sql", false, "edc2b83d683ac3d57c0d5393b6ded2e2");
    ("sql-insert", true, "d428cb95f5447d66020f0cb04a4910c1");
    ("sql-insert", false, "242dd4fc7e84065d11f6dd77c569b45b");
    ("ini", true, "b220afddb5a964cbde9cef12a03982bc");
    ("ini", false, "882556e6b7152e2676022f28e7bec1dd");
    ("toml", true, "9906d843f0a0862998659b58b1119d54");
    ("toml", false, "f03ede191a7902e684191139de35ea59");
    ("http-headers", true, "11a67ba2e350911f2e8a2598bee8a5eb");
    ("http-headers", false, "c9d3829251d0bf3ce6d094c72526505d");
    ("bpe:mini", true, "2269933b5d03ecc3cc58b2876b48ded4");
    ("bpe:mini", false, "2269933b5d03ecc3cc58b2876b48ded4");
    ("bpe:tiny", true, "b69e741625d7675ebbe4c36f51e864f1");
    ("bpe:tiny", false, "b69e741625d7675ebbe4c36f51e864f1");
  ]

let mini_vocab () =
  match Bpe.Vocab.load_file "vocab/mini.tiktoken" with
  | Ok v -> v
  | Error e -> Alcotest.failf "vocab/mini.tiktoken: %s" e

let test_tables_pinned () =
  let mini = mini_vocab () in
  let subjects =
    List.map (fun g -> (g.Grammar.name, Grammar.rules g)) Registry.all
    @ [
        ("bpe:mini", Bpe.Compiler.rules_of_vocab mini);
        ("bpe:tiny", Bpe.Compiler.rules_of_vocab (Bpe.Trainer.tiny ~seed:11L));
      ]
  in
  check_int "every subject pinned in both layouts"
    (2 * List.length subjects) (List.length pinned_tables);
  List.iter
    (fun (name, classes, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "%s classes:%b" name classes)
        expected
        (tables_digest ~classes (List.assoc name subjects)))
    pinned_tables

(* The reference refinement: every distinct charset splits every class by
   one membership test per byte, renumbering the classes by first byte
   occurrence at each split. *)
let reference_classes (nfa : Nfa.t) =
  let cls = Array.make 256 0 in
  let num = ref 1 in
  let fresh = Array.make 512 (-1) in
  let split cs =
    Array.fill fresh 0 (2 * !num) (-1);
    let next = ref 0 in
    for b = 0 to 255 do
      let key = (2 * cls.(b)) + Bool.to_int (Charset.mem cs (Char.chr b)) in
      if fresh.(key) < 0 then begin
        fresh.(key) <- !next;
        incr next
      end;
      cls.(b) <- fresh.(key)
    done;
    num := !next
  in
  Array.iter (List.iter (fun (cs, _) -> split cs)) nfa.Nfa.trans;
  (String.init 256 (fun b -> Char.chr cls.(b)), !num)

let test_equiv_classes_reference () =
  let rng = Prng.create 0xc1a55L in
  let vocab v = Bpe.Compiler.rules_of_vocab v in
  List.iter
    (fun rules ->
      let nfa = Nfa.of_rules rules in
      let classmap, nc = Dfa.equiv_classes nfa in
      let ref_map, ref_nc = reference_classes nfa in
      check_int "class count" ref_nc nc;
      Alcotest.(check string) "classmap" ref_map classmap)
    ([ vocab (mini_vocab ()); vocab (Bpe.Trainer.tiny ~seed:11L) ]
    @ List.init 500 (fun _ -> Grammar_corpus.sample rng))

(* The interner numbers sets in order of first appearance through either
   kind of equality: every draw is interned shuffled into one interner
   that compares through a bitset, as subset construction does, and
   sorted into one that compares runs, as the token-extension DFA does.
   Both must match a reference numbering keyed on sorted lists and give
   the members back. Members lie within 256 of the bound, so each bound
   picks one store width (1, 2, 4, 8 bytes); 300 draws from 150 sets
   intern enough sets to double the 64-slot table. *)
let prop_powerset_numbering =
  let module P = St_automata.Powerset in
  let module Bits = St_util.Bits in
  QCheck.Test.make ~count:40 ~name:"powerset ids = first-appearance order"
    QCheck.(pair (oneofl [ 200; 60_000; 1 lsl 20; 1 lsl 40 ]) small_nat)
    (fun (bound, seed) ->
      let rng = Random.State.make [| seed |] in
      let span = min bound 256 in
      let slot x = bound - 1 - x in
      let pool =
        Array.init 150 (fun _ ->
            List.init (Random.State.int rng 12) (fun _ ->
                slot (Random.State.int rng span))
            |> List.sort_uniq Int.compare)
      in
      let inset = Bits.create span in
      let members p id =
        let buf = Array.make (P.size p id) 0 in
        ignore (P.members p id buf);
        Array.to_list buf
      in
      let same_bits _ _ x = Bits.mem inset (slot x) in
      let same_run buf i x = buf.(i) = x in
      let intern p ~same buf =
        let n = Array.length buf in
        let id = P.find p ~same buf n in
        if id >= 0 then id else P.add p buf n
      in
      let unordered = P.create bound and sorted = P.create bound in
      let reference = Hashtbl.create 64 in
      let agree _ =
        let set = pool.(Random.State.int rng (Array.length pool)) in
        let expected =
          match Hashtbl.find_opt reference set with
          | Some id -> id
          | None ->
              Hashtbl.add reference set (Hashtbl.length reference);
              Hashtbl.length reference - 1
        in
        let shuffled = Array.of_list set in
        for i = Array.length shuffled - 1 downto 1 do
          let j = Random.State.int rng (i + 1) in
          let x = shuffled.(i) in
          shuffled.(i) <- shuffled.(j);
          shuffled.(j) <- x
        done;
        Array.iter (fun x -> Bits.add inset (slot x)) shuffled;
        let a = intern unordered ~same:same_bits shuffled in
        Array.iter (fun x -> Bits.remove inset (slot x)) shuffled;
        let b = intern sorted ~same:same_run (Array.of_list set) in
        a = expected && b = expected
        && List.sort Int.compare (members unordered a) = set
        && members sorted b = set
      in
      List.for_all agree (List.init 300 Fun.id)
      && P.count unordered = Hashtbl.length reference
      && P.count sorted = Hashtbl.length reference
      && Hashtbl.length reference > 32)

let suite =
  [
    Alcotest.test_case "NFA structure" `Quick test_nfa_structure;
    Alcotest.test_case "DFA basics (Fig. 1)" `Quick test_dfa_basic;
    Alcotest.test_case "rule priority" `Quick test_dfa_priority;
    Alcotest.test_case "totality" `Quick test_dfa_totality;
    Alcotest.test_case "max-states cap" `Quick test_max_states_cap;
    Alcotest.test_case "minimization shrinks" `Quick test_minimization_shrinks;
    Alcotest.test_case "minimization preserves language" `Quick
      test_minimization_preserves_language;
    Alcotest.test_case "reachable-nonempty" `Quick test_reachable_nonempty;
    Alcotest.test_case "reachable-nonempty loop" `Quick
      test_reachable_nonempty_loop;
    Alcotest.test_case "tables pinned" `Quick test_tables_pinned;
    Alcotest.test_case "equiv classes = reference split" `Quick
      test_equiv_classes_reference;
    QCheck_alcotest.to_alcotest prop_dfa_matches_naive;
    QCheck_alcotest.to_alcotest prop_minimize_preserves_tokens;
    QCheck_alcotest.to_alcotest prop_powerset_numbering;
  ]
