open Streamtok

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let build src k =
  let d = Dfa.of_grammar src in
  (d, Te_dfa.build ~coacc:(Dfa.co_accessible d) d ~k)

let test_structure () =
  let d, te = build "[0-9]+(\\.[0-9]+)?\n[.]" 2 in
  check_int "k stored" 2 (Te_dfa.k te);
  check "has powerstates" true (Te_dfa.num_states te >= 1);
  check_int "final count" 3 (Te_dfa.num_finals te);
  (* every final state has a dense index; non-finals have -1 *)
  for q = 0 to Dfa.size d - 1 do
    check "fidx consistent" true
      ((Te_dfa.final_index te q >= 0) = Dfa.is_final d q)
  done

(* Walk Example 19 by hand: after B reads "1.4", the token ending in the
   integer state is extendable; after "1.4..", the float token is not. *)
let test_example19_extendability () =
  let d, te = build "[0-9]+(\\.[0-9]+)?\n[.]" 2 in
  let step_str s str =
    String.fold_left (fun s c -> Te_dfa.step te s (Char.code c)) s str
  in
  let q_int = Dfa.run d "1" in
  let q_float = Dfa.run d "1.4" in
  check "int and float states differ" true (q_int <> q_float);
  (* B has consumed "1.4" = token "1" plus its 2-symbol window *)
  let s = step_str (Te_dfa.start te) "1.4" in
  check "token 1 extendable to 1.4" true (Te_dfa.extendable te s q_int);
  (* B has consumed "1.4.." = token "1.4" plus its 2-symbol window ".." *)
  let s' = step_str (Te_dfa.start te) "1.4.." in
  check "token 1.4 not extendable" false (Te_dfa.extendable te s' q_float)

let test_eof_padding () =
  (* K=2: a completed 1-symbol extension must still be visible after one
     EOF pad; an in-progress one must die at EOF *)
  let d, te = build "ab?\nc" 1 in
  ignore d;
  ignore te;
  (* use a K=2 grammar where extension "b" completes at depth 1 *)
  let d2, te2 = build "a(bc)?\nd" 2 in
  let q_a = Dfa.run d2 "a" in
  (* window "bc": extension completes at depth 2 *)
  let s_bc =
    List.fold_left
      (fun s c -> Te_dfa.step te2 s (Char.code c))
      (Te_dfa.start te2) [ 'b'; 'c' ]
  in
  check "a extendable given bc" true (Te_dfa.extendable te2 s_bc q_a);
  (* window "b" + EOF: the extension cannot complete *)
  let s_b_eof =
    Te_dfa.step te2 (Te_dfa.step te2 (Te_dfa.start te2) (Char.code 'b'))
      Te_dfa.eof_symbol
  in
  check "a not extendable given b,EOF" false (Te_dfa.extendable te2 s_b_eof q_a);
  (* window "d"(a new token) then pad: nothing extends 'a' *)
  let s_d_eof =
    Te_dfa.step te2 (Te_dfa.step te2 (Te_dfa.start te2) (Char.code 'd'))
      Te_dfa.eof_symbol
  in
  check "a not extendable given d,EOF" false (Te_dfa.extendable te2 s_d_eof q_a)

let test_restart_tracks_all_positions () =
  (* the powerset injection means extension paths starting at every
     position are tracked simultaneously: feed a long prefix first *)
  let d, te = build "[0-9]+(\\.[0-9]+)?\n[. ]" 2 in
  let feed s str =
    String.fold_left (fun s c -> Te_dfa.step te s (Char.code c)) s str
  in
  let q_int = Dfa.run d "77" in
  (* after a lot of leading noise, the window ".5" must still extend *)
  let s = feed (Te_dfa.start te) "12 34 77.5" in
  (* B is 2 ahead of A: A just consumed "…77", window = ".5" *)
  check "extendable after long prefix" true (Te_dfa.extendable te s q_int)

let test_non_final_state_never_extendable () =
  let d, te = build "[0-9]+\n[ ]+" 1 in
  ignore d;
  ignore te;
  (* extendable is only queried at final states; for robustness it must
     return false for non-final q (fidx = -1) *)
  let d2, te2 = build "ab\nc" 1 in
  let q_mid = Dfa.run d2 "a" in
  check "non-final not extendable" false
    (Dfa.is_final d2 q_mid
    || Te_dfa.extendable te2 (Te_dfa.start te2) q_mid)

(* Class-indexed rows: width = num_classes + 1 (EOF column last), the
   byte-level [step] is exactly [step_class] after classmap translation,
   and EOF routes to the dedicated class. *)
let test_class_indexed_rows () =
  let d, te = build "[0-9]+(\\.[0-9]+)?\n[. ]" 2 in
  check_int "width = classes + 1" (Dfa.num_classes d + 1) (Te_dfa.width te);
  check_int "eof class is last column" (Te_dfa.width te - 1)
    (Te_dfa.eof_class te);
  let s = ref (Te_dfa.start te) in
  String.iter
    (fun c ->
      let byte = Char.code c in
      let via_byte = Te_dfa.step te !s byte in
      let via_class = Te_dfa.step_class te !s (Dfa.class_of d c) in
      check_int "step = step_class o classmap" via_class via_byte;
      s := via_byte)
    "12 34.5 ..9";
  check_int "eof_symbol routes to eof class"
    (Te_dfa.step_class te !s (Te_dfa.eof_class te))
    (Te_dfa.step te !s Te_dfa.eof_symbol)

(* 1k seeded random (grammar, input) cases: the classed Te_dfa walk must
   agree with itself under byte-level and class-level stepping, across
   corpus-sampled and fully random grammars with full-byte inputs. *)
let test_classed_step_parity_seeded () =
  let rng = Prng.create 0x7EDFAL in
  let cases = ref 0 in
  while !cases < 1000 do
    let rules =
      match Prng.int rng 2 with
      | 0 -> Fuzz.Gen.grammar rng ~cls:Fuzz.Gen.charset_bytes
      | _ -> Grammar_corpus.sample rng
    in
    let d = Dfa.of_rules rules in
    (match Tnd.max_tnd d with
    | Tnd.Finite k when k >= 1 && k <= 4 ->
        let te = Te_dfa.build ~coacc:(Dfa.co_accessible d) d ~k in
        let input =
          Fuzz.Gen.uniform rng ~alphabet:Fuzz.Gen.byte_alphabet ~max_len:64
        in
        let s_byte = ref (Te_dfa.start te) in
        let s_cls = ref (Te_dfa.start te) in
        String.iter
          (fun c ->
            s_byte := Te_dfa.step te !s_byte (Char.code c);
            s_cls := Te_dfa.step_class te !s_cls (Dfa.class_of d c))
          input;
        if !s_byte <> !s_cls then
          Alcotest.failf "byte/class walk diverged (case %d)" !cases;
        check_int "eof agrees"
          (Te_dfa.step te !s_byte Te_dfa.eof_symbol)
          (Te_dfa.step_class te !s_cls (Te_dfa.eof_class te))
    | _ -> ());
    incr cases
  done

(* An independent oracle for [extendable], straight from the paper's
   definition: after reading symbols w[0..n), a final state q is
   extendable iff some k ≤ K makes δ(q, w[n-K .. n-K+k)) final with every
   earlier intermediate state non-final — i.e. the walk from q over the
   window hits a final state within its real symbols (an EOF pad ends the
   walk). With fewer than K symbols read there is no window yet. Checked
   for every DFA state after every prefix and after each of the K EOF
   steps, over 1k seeded grammars with 1 ≤ K ≤ 4. Each grammar's automaton
   reads two streams, as a daemon's sessions share one engine: one over
   the grammar's own bytes, then one over all 256. *)
let test_extendable_oracle_seeded () =
  let rng = Prng.create 0x0AC1EL in
  let checked = ref 0 and positive = ref 0 in
  let check_stream case d k te input =
    (* the symbols read so far; None is an EOF pad *)
    let w =
      Array.append
        (Array.init (String.length input) (fun i -> Some input.[i]))
        (Array.make k None)
    in
    let expected n q =
      let rec walk q i =
        i < n
        &&
        match w.(i) with
        | None -> false
        | Some c ->
            let q' = Dfa.step d q c in
            Dfa.is_final d q' || walk q' (i + 1)
      in
      Dfa.is_final d q && n >= k && walk q (n - k)
    in
    let s = ref (Te_dfa.start te) in
    for n = 0 to Array.length w do
      if n > 0 then
        s :=
          Te_dfa.step te !s
            (match w.(n - 1) with
            | Some c -> Char.code c
            | None -> Te_dfa.eof_symbol);
      for q = 0 to Dfa.size d - 1 do
        if Te_dfa.extendable te !s q <> expected n q then
          Alcotest.failf
            "case %d (K=%d): extendable %d after %d of %S (+%d EOF) = %b" case
            k q n input
            (max 0 (n - String.length input))
            (not (expected n q));
        if expected n q then incr positive;
        incr checked
      done
    done
  in
  for case = 1 to 1000 do
    let rules =
      match Prng.int rng 3 with
      | 0 -> Fuzz.Gen.grammar rng ~cls:Fuzz.Gen.charset_small
      | 1 -> Fuzz.Gen.grammar rng ~cls:Fuzz.Gen.charset_bytes
      | _ -> Grammar_corpus.sample rng
    in
    let d = Dfa.of_rules rules in
    match Tnd.max_tnd d with
    | Tnd.Finite k when k >= 1 && k <= 4 ->
        let te = Te_dfa.build ~coacc:(Dfa.co_accessible d) d ~k in
        check_stream case d k te
          (if Prng.bool rng then Fuzz.Gen.token_dense rng d ~target_len:40
           else
             Fuzz.Gen.uniform rng
               ~alphabet:(Fuzz.Gen.alphabet_of_rules rng rules)
               ~max_len:40);
        check_stream case d k te
          (Fuzz.Gen.uniform rng ~alphabet:Fuzz.Gen.byte_alphabet ~max_len:40)
    | _ -> ()
  done;
  check "oracle exercised" true (!checked > 100_000 && !positive > 10_000)

let suite =
  [
    Alcotest.test_case "structure" `Quick test_structure;
    Alcotest.test_case "class-indexed rows" `Quick test_class_indexed_rows;
    Alcotest.test_case "classed step parity (1k seeded)" `Quick
      test_classed_step_parity_seeded;
    Alcotest.test_case "Example 19 extendability" `Quick
      test_example19_extendability;
    Alcotest.test_case "EOF padding" `Quick test_eof_padding;
    Alcotest.test_case "restart powerset" `Quick test_restart_tracks_all_positions;
    Alcotest.test_case "non-final robustness" `Quick
      test_non_final_state_never_extendable;
    Alcotest.test_case "extendable = path oracle (1k seeded)" `Quick
      test_extendable_oracle_seeded;
  ]
