open Streamtok

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ---- base64 ---- *)

let test_b64 () =
  let roundtrip s =
    match Bpe.B64.decode (Bpe.B64.encode s) with
    | Ok s' -> String.equal s s'
    | Error _ -> false
  in
  check_str "rfc vector" "Zm9vYmFy" (Bpe.B64.encode "foobar");
  check_str "padding 1" "Zm9vYmE=" (Bpe.B64.encode "fooba");
  check_str "padding 2" "Zm9vYg==" (Bpe.B64.encode "foob");
  check "empty" true (roundtrip "");
  check "all bytes" true (roundtrip (String.init 256 Char.chr));
  let rng = Prng.create 9L in
  for _ = 1 to 200 do
    let s = String.init (Prng.int rng 40) (fun _ -> Char.chr (Prng.int rng 256)) in
    if not (roundtrip s) then Alcotest.failf "b64 round-trip %S" s
  done;
  check "unpadded accepted" true (Bpe.B64.decode "Zm9vYg" = Ok "foob");
  check "bad char rejected" true (Result.is_error (Bpe.B64.decode "Zm9v!a=="));
  check "bad length rejected" true (Result.is_error (Bpe.B64.decode "Z"));
  check "nonzero trailing bits rejected" true
    (Result.is_error (Bpe.B64.decode "Zm9vYh=="))

(* ---- vocab loading ---- *)

let byte_tokens = Array.init 256 (fun i -> String.make 1 (Char.chr i))

let vocab_of_multi multi =
  match Bpe.Vocab.of_tokens (Array.append byte_tokens (Array.of_list multi)) with
  | Ok v -> v
  | Error e -> Alcotest.failf "vocab: %s" e

let test_vocab_errors () =
  let incomplete = Array.init 255 (fun i -> String.make 1 (Char.chr i)) in
  (match Bpe.Vocab.of_tokens incomplete with
  | Error e ->
      check "names the missing byte" true
        (let sub = "0xff" in
         let n = String.length e and m = String.length sub in
         let rec go i = i + m <= n && (String.sub e i m = sub || go (i + 1)) in
         go 0)
  | Ok _ -> Alcotest.fail "byte-incomplete vocab accepted");
  check "duplicate rejected" true
    (Result.is_error
       (Bpe.Vocab.of_tokens (Array.append byte_tokens [| "ab"; "ab" |])));
  check "empty rejected" true (Result.is_error (Bpe.Vocab.of_tokens [||]));
  check "bad tiktoken line" true
    (Result.is_error (Bpe.Vocab.of_tiktoken "notbase64!!! 0"));
  check "sparse ranks rejected" true
    (Result.is_error (Bpe.Vocab.of_tiktoken "YQ== 0\nYg== 7"))

let test_vocab_formats () =
  let v = vocab_of_multi [ "ab"; "abc" ] in
  check_int "size" 258 (Bpe.Vocab.size v);
  check_int "rank of ab" 256
    (match Bpe.Vocab.rank v "ab" with Some r -> r | None -> -1);
  check_int "max token len" 3 (Bpe.Vocab.max_token_len v);
  (* tiktoken serialization round-trips *)
  (match Bpe.Vocab.of_tiktoken (Bpe.Vocab.to_tiktoken v) with
  | Ok v' -> check "tiktoken round-trip" true (Bpe.Vocab.tokens v' = Bpe.Vocab.tokens v)
  | Error e -> Alcotest.failf "tiktoken round-trip: %s" e);
  (* the JSON form: {"token": id, ...} with \u escapes for the bytes *)
  match Bpe.Vocab.of_string "{\"a\": 0, \"b\": 1, \"ab\": 2}" with
  | Ok _ -> Alcotest.fail "byte-incomplete JSON vocab accepted"
  | Error _ -> ()

(* ---- the audit ---- *)

(* The classic counterexample that BPE is NOT maximal munch: with merges
   "bc" (id 256, higher priority) and "ab" (id 257), the merge loop on
   "abc" merges "bc" first -> [a][bc], but maximal munch takes "ab" first
   -> [ab][c]. The audit must find it, and the witness must be real. *)
let test_audit_catches_inconsistency () =
  let v = vocab_of_multi [ "bc"; "ab" ] in
  match Bpe.Compiler.audit v with
  | Ok () -> Alcotest.fail "inconsistent vocab passed the audit"
  | Error w ->
      check "witness long token" true
        (String.equal w.Bpe.Compiler.long_token "ab"
        || String.equal w.Bpe.Compiler.long_token "bc");
      (* the recorded BPE ids are what the encoder actually produces *)
      let enc = Bpe.Encoder.encode v w.Bpe.Compiler.input in
      check "witness verified against encoder" true (enc = w.Bpe.Compiler.bpe);
      (* and the DFA refuses to build without an explicit opt-out *)
      check "dfa refuses inconsistent vocab" true
        (Result.is_error (Bpe.Compiler.dfa v))

let test_audit_accepts_consistent () =
  (* tokens that only extend to the right cannot create merge/munch
     disagreements: {" a", " ab"} style hierarchies self-encode *)
  let v = vocab_of_multi [ " a"; " ab"; " abc" ] in
  (match Bpe.Compiler.audit v with
  | Ok () -> ()
  | Error w ->
      Alcotest.failf "spurious witness: %s" (Bpe.Compiler.witness_to_string w));
  check "dfa builds" true (Result.is_ok (Bpe.Compiler.dfa v))

(* ---- the vendored vocabulary ---- *)

let mini_path = "vocab/mini.tiktoken"

let load_mini () =
  match Bpe.Vocab.load_file mini_path with
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" mini_path e

let test_vendored_matches_trainer () =
  let vendored = load_mini () in
  let trained = Bpe.Trainer.mini () in
  check "vendored file = Trainer.mini ()" true
    (Bpe.Vocab.tokens vendored = Bpe.Vocab.tokens trained)

let test_mini_analyzes () =
  let v = load_mini () in
  (match Bpe.Compiler.audit v with
  | Ok () -> ()
  | Error w -> Alcotest.failf "mini vocab inconsistent: %s" (Bpe.Compiler.witness_to_string w));
  let d = match Bpe.Compiler.dfa ~audit:false v with
    | Ok d -> d
    | Error e -> Alcotest.failf "dfa: %s" e
  in
  match Tnd.max_tnd d with
  | Tnd.Finite k -> check "max-TND small and finite" true (k >= 1 && k <= 16)
  | Tnd.Infinite -> Alcotest.fail "finite vocabulary with infinite max-TND"

(* Random byte strings: the engine's rule ids must equal the reference
   merge-loop encoder's token ids, batch and under adversarial chunkings
   (the engine is the munch side; the audit promised they agree). *)
let gen_input rng =
  let n = 1 + Prng.int rng 120 in
  String.init n (fun _ ->
      if Prng.chance rng 0.85 then
        (* text-like, so multi-byte tokens actually fire *)
        "etaoinshrdlu .,!?".[Prng.int rng 17]
      else Char.chr (Prng.int rng 256))

let test_engine_matches_encoder () =
  let v = load_mini () in
  let d = match Bpe.Compiler.dfa ~audit:false v with
    | Ok d -> d | Error e -> Alcotest.failf "dfa: %s" e
  in
  let e = match Engine.compile d with
    | Ok e -> e | Error Engine.Unbounded_tnd -> Alcotest.fail "unbounded"
  in
  let rng = Prng.create 0xb9eL in
  for i = 1 to 150 do
    let input = gen_input rng in
    let ids = ref [] in
    (match Engine.run_string e input ~emit:(fun ~pos:_ ~len:_ ~rule -> ids := rule :: !ids) with
    | Engine.Finished -> ()
    | Engine.Failed _ ->
        Alcotest.failf "byte-complete vocab failed on input %d" i);
    let ids = List.rev !ids in
    let expected = Bpe.Encoder.encode v input in
    if ids <> expected then
      Alcotest.failf "mismatch on %S: engine %s, encoder %s" input
        (String.concat "," (List.map string_of_int ids))
        (String.concat "," (List.map string_of_int expected))
  done

(* A fresh (cold) engine over the mini vocabulary: no TE powerstate
   beyond the start state materialized yet. *)
let mini_engine () =
  let d = match Bpe.Compiler.dfa ~audit:false (load_mini ()) with
    | Ok d -> d | Error e -> Alcotest.failf "dfa: %s" e
  in
  match Engine.compile d with
  | Ok e -> e | Error Engine.Unbounded_tnd -> Alcotest.fail "unbounded"

(* Runs [text] through [e] with an allocation-free emit callback and
   returns the live-heap growth in bytes, measured across compactions. *)
let heap_growth e text =
  Gc.compact ();
  let before = (Gc.stat ()).Gc.live_words in
  ignore (Engine.run_string e text ~emit:(fun ~pos:_ ~len:_ ~rule:_ -> ()));
  Gc.compact ();
  ((Gc.stat ()).Gc.live_words - before) * (Sys.word_size / 8)

(* TE skip rows are allocated when a skip loop first enters a powerstate,
   not per materialized powerstate: a 4 KiB run over the mini vocabulary
   materializes thousands of powerstates, and the skip storage (rows plus
   the per-powerstate row index) stays small and fully counted. *)
let test_te_skip_rows_on_demand () =
  let e = mini_engine () in
  let text = Bpe.Trainer.gen_corpus (Prng.create 7L) 4096 in
  ignore (Engine.run_string e text ~emit:(fun ~pos:_ ~len:_ ~rule:_ -> ()));
  let te = Option.get (Engine.Internal.te_dfa e) in
  let acc = Te_dfa.accel te in
  check "many powerstates materialized" true (Te_dfa.num_states te > 1000);
  check "skip storage under 64 KiB" true (Te_dfa.accel_bytes te < 65536);
  check "rows only for entered powerstates" true
    (Accel.rows acc <= Te_dfa.num_states te
    && Accel.bytes acc <= 346 * max 16 (2 * Accel.rows acc))

(* MD5 of the materialized rows of [te]: the transition cells of its
   first [num_states] powerstates, then their emit-bit rows, as the
   engine reads them. *)
let te_rows_digest te =
  let n = Te_dfa.num_states te in
  let tb = Te_dfa.Raw.tables te in
  Digest.to_hex
    (Digest.string
       (Bytes.sub_string (Te_dfa.Raw.trans tb) 0 (4 * n * Te_dfa.Raw.width te)
       ^ Bytes.sub_string (Te_dfa.Raw.emit tb) 0 (8 * n * Te_dfa.Raw.words te)))

(* Cold runs on the seed-7 corpus materialize exactly the powerstates the
   dense powerset did (a key that split or merged powerstates would move
   these counts, and one that renumbered them would move the rows'
   digest), and [footprint_bytes] — which counts the TE DFA as allocated —
   stays within 2x of the live-heap growth of the run. *)
let test_te_cold_runs_pinned () =
  List.iter
    (fun (bytes, states, digest) ->
      let e = mini_engine () in
      let text = Bpe.Trainer.gen_corpus (Prng.create 7L) bytes in
      let growth = heap_growth e text in
      let fp = Engine.footprint_bytes e in
      check_int (Printf.sprintf "powerstates at %d bytes" bytes) states
        (Engine.te_states e);
      check_str (Printf.sprintf "rows at %d bytes" bytes) digest
        (te_rows_digest (Option.get (Engine.Internal.te_dfa e)));
      if fp > 2 * growth || growth > 2 * fp then
        Alcotest.failf "%d bytes: footprint %d vs heap growth %d" bytes fp
          growth)
    [ (4096, 2281, "8242e5bfdb56a52ae34e06a7fd275232"); (16384, 5522, "88265617fd64e1197d25b7a72d113c66") ]

(* The TE memory attack: 512 KiB of JSON through one mini-vocabulary
   engine. Every powerstate it materializes stays resident for the
   engine's life, so the live heap it adds is the bound that matters. *)
let test_te_json_heap_bounded () =
  let e = mini_engine () in
  let text = Gen_data.json ~target_bytes:(512 * 1024) () in
  let growth = heap_growth e text in
  if growth >= 64 * 1024 * 1024 then
    Alcotest.failf "512 KiB of json grew the heap by %d bytes (%d powerstates)"
      growth (Engine.te_states e)

let test_differential_battery () =
  (* the full battery — baselines, chunked streaming, serve-wire, and the
     bpe:ref / bpe:serve-ids subjects — on a tiny trained vocab *)
  let v = Bpe.Trainer.tiny ~seed:11L in
  let rules = Bpe.Compiler.rules_of_vocab v in
  let rng = Prng.create 0x5caffL in
  for _ = 1 to 4 do
    let input = gen_input rng in
    let spec = Fuzz.Differential.spec ~bpe:v ~domain_counts:[ 2 ] rules input in
    let r = Fuzz.Differential.check spec in
    check "streaming" true r.Fuzz.Differential.streaming;
    (match r.Fuzz.Differential.mismatches with
    | [] -> ()
    | m :: _ -> Alcotest.failf "mismatch: %s" (Fuzz.Differential.show_mismatch m))
  done

(* ---- repro round-trip ---- *)

let test_repro_vocab_roundtrip () =
  let v = Bpe.Trainer.tiny ~seed:11L in
  let rules = Bpe.Compiler.rules_of_vocab v in
  let r = Fuzz.Repro.v ~vocab:v ~chunks:[ 1; 2; 1 ] ~note:"bpe" rules "abca" in
  let s = Fuzz.Repro.to_string r in
  check "serializes vocab: not rule:" true
    (let has_prefix p line = String.length line >= String.length p
       && String.sub line 0 (String.length p) = p in
     let lines = String.split_on_char '\n' s in
     List.exists (has_prefix "vocab: ") lines
     && not (List.exists (has_prefix "rule: ") lines));
  match Fuzz.Repro.of_string s with
  | Error e -> Alcotest.failf "reload: %s" e
  | Ok r' ->
      check "vocab restored" true
        (match r'.Fuzz.Repro.vocab with
        | Some v' -> Bpe.Vocab.tokens v' = Bpe.Vocab.tokens v
        | None -> false);
      check_int "rules derived" (Bpe.Vocab.size v)
        (List.length r'.Fuzz.Repro.rules);
      check "replay clean" true
        ((Fuzz.Repro.check r').Fuzz.Differential.mismatches = [])

let test_repro_vocab_exclusive () =
  check "rule:+vocab: rejected" true
    (Result.is_error
       (Fuzz.Repro.of_string
          "rule: a\nvocab: YQ==\ninput-hex: 61\n"))

let suite =
  [
    Alcotest.test_case "base64" `Quick test_b64;
    Alcotest.test_case "vocab errors" `Quick test_vocab_errors;
    Alcotest.test_case "vocab formats" `Quick test_vocab_formats;
    Alcotest.test_case "audit catches bc/ab" `Quick
      test_audit_catches_inconsistency;
    Alcotest.test_case "audit accepts consistent" `Quick
      test_audit_accepts_consistent;
    Alcotest.test_case "vendored = trainer" `Quick test_vendored_matches_trainer;
    Alcotest.test_case "mini analyzes finite" `Quick test_mini_analyzes;
    Alcotest.test_case "engine = merge loop" `Quick test_engine_matches_encoder;
    Alcotest.test_case "te skip rows on demand" `Quick
      test_te_skip_rows_on_demand;
    Alcotest.test_case "te cold runs pinned" `Quick test_te_cold_runs_pinned;
    Alcotest.test_case "te json heap bounded" `Quick test_te_json_heap_bounded;
    Alcotest.test_case "differential battery" `Quick test_differential_battery;
    Alcotest.test_case "repro vocab round-trip" `Quick
      test_repro_vocab_roundtrip;
    Alcotest.test_case "repro vocab exclusive" `Quick
      test_repro_vocab_exclusive;
  ]
