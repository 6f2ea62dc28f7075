(* Self-loop run acceleration: soundness of the per-state stop-byte bitmaps
   against the transition function, build determinism, the skip-loop
   scanners' unit behaviour around the unroll boundaries, golden-corpus
   parity of accelerated vs. reference engines (batch and chunked), the
   streaming skip counters, and the .stc v4 accel section (round-trip,
   v2/v3 rejection, corruption). The SWAR tier itself (word-level oracle,
   endianness, random battery) lives in test_swar.ml. *)

open Streamtok
module Chunking = Fuzz.Chunking

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let golden_grammars = Formats.all @ Languages.all

(* the build-time profitability threshold (Dfa.accel_min_loop_bytes) *)
let min_loop_bytes = 4

(* ---- bitmap soundness ---- *)

(* The stop bitmaps are filled for every state of an accelerated build:
   bit b clear must mean step(q,b) = q, bit b set must mean step(q,b) <> q.
   The flag is profitability only: set iff >= min_loop_bytes self-loop. *)
let test_bitmap_sound () =
  List.iter
    (fun g ->
      let name = g.Grammar.name in
      let d = Grammar.dfa g in
      check (name ^ ": accel on by default") true (Dfa.accel_enabled d);
      check_int
        (name ^ ": table bytes = 314/state")
        (314 * Dfa.size d)
        (Dfa.accel_table_bytes d);
      let flagged = ref 0 in
      for q = 0 to Dfa.size d - 1 do
        let loop_bytes = ref 0 in
        for b = 0 to 255 do
          let self = Dfa.step d q (Char.chr b) = q in
          if self then incr loop_bytes;
          if Dfa.accel_stop_byte d q b <> not self then
            Alcotest.failf "%s: state %d byte %d: stop bit vs step disagree"
              name q b
        done;
        let flag = Dfa.is_accel_state d q in
        if flag then incr flagged;
        if flag <> (!loop_bytes >= min_loop_bytes) then
          Alcotest.failf "%s: state %d: flag %b but %d self-loop bytes" name q
            flag !loop_bytes
      done;
      check_int (name ^ ": flag count consistent") !flagged
        (Dfa.accel_state_count d);
      (* every shipped grammar has a dominant run state (identifiers,
         strings, comments, whitespace...) — the analysis must find it *)
      check (name ^ ": finds at least one accel state") true (!flagged > 0))
    golden_grammars

let test_build_deterministic () =
  List.iter
    (fun g ->
      let d1 = Grammar.dfa g in
      let d2 = Dfa.of_rules (Grammar.rules g) in
      check (g.Grammar.name ^ ": rebuild identical") true (Dfa.equal d1 d2);
      (* strip + re-derive round-trips: acceleration is pure derived data *)
      let stripped = Dfa.attach_accel ~enabled:false d1 in
      check (g.Grammar.name ^ ": stripped is off") false
        (Dfa.accel_enabled stripped);
      check_int (g.Grammar.name ^ ": stripped has no states") 0
        (Dfa.accel_state_count stripped);
      check (g.Grammar.name ^ ": re-derive identical") true
        (Dfa.equal d1 (Dfa.attach_accel ~enabled:true stripped)))
    golden_grammars

let test_noaccel_reference_build () =
  let d = Dfa.of_rules ~accel:false (Grammar.rules Formats.json) in
  check "noaccel: disabled" false (Dfa.accel_enabled d);
  check_int "noaccel: zero accel states" 0 (Dfa.accel_state_count d);
  check "noaccel: no stop bytes reported" true
    (let any = ref false in
     for q = 0 to Dfa.size d - 1 do
       for b = 0 to 255 do
         if Dfa.accel_stop_byte d q b then any := true
       done
     done;
     not !any);
  (* flags are still allocated (hot loops probe unconditionally), all 0 *)
  check "noaccel: flags all zero" true
    (Bytes.for_all (fun c -> c = '\000') d.Dfa.accel_flags);
  check_int "noaccel: empty stop table" 0 (Array.length d.Dfa.accel_stops);
  check "noaccel: kinds all zero" true
    (Bytes.for_all (fun c -> c = '\000') d.Dfa.accel_kind);
  check_int "noaccel: empty mask table" 0 (Array.length d.Dfa.accel_swar);
  check_int "noaccel: zero swar states" 0 (Dfa.accel_swar_state_count d);
  (* a swar-off build keeps the bitmap tier but classifies nothing *)
  let ds = Dfa.of_rules ~swar:false (Grammar.rules Formats.json) in
  check "swar-off: accel still on" true (Dfa.accel_enabled ds);
  check "swar-off: accel states unchanged" true (Dfa.accel_state_count ds > 0);
  check "swar-off: classification disabled" false (Dfa.accel_swar_enabled ds);
  check_int "swar-off: zero swar states" 0 (Dfa.accel_swar_state_count ds);
  check "swar-off: kinds all zero" true
    (Bytes.for_all (fun c -> c = '\000') ds.Dfa.accel_kind)

(* ---- skip-loop scanners ---- *)

(* hand-built stop table: state 0 stops on 'x' only, state 1 on 'y' only *)
let toy_stops =
  let stops = Array.make 16 0 in
  let set q b = stops.((q * 8) + (b lsr 5)) <- 1 lsl (b land 31) in
  set 0 (Char.code 'x');
  set 1 (Char.code 'y');
  stops

(* both toy states are single-stop, so classification puts them in the
   SWAR tier; forcing the kinds to 0 exercises the bitmap dispatch on the
   very same assertions *)
let toy_kinds, toy_masks = Dfa.swar_classify ~num_states:2 ~stops:toy_stops
let toy_tbl = Dfa.swar_byte_table ~num_states:2 ~stops:toy_stops
let toy_bitmap_kinds = Bytes.make 2 '\000'

let skip q s pos limit =
  let v = Dfa.skip_run toy_stops toy_kinds toy_masks q s pos limit in
  check_int "bitmap dispatch agrees" v
    (Dfa.skip_run toy_stops toy_bitmap_kinds [||] q s pos limit);
  check_int "skip_run_bitmap agrees" v
    (Dfa.skip_run_bitmap toy_stops q s pos limit);
  v

let skip2 qa qb ~off s pos limit =
  let v =
    Dfa.skip_run2 toy_stops toy_kinds toy_masks toy_tbl qa toy_stops
      toy_kinds toy_masks toy_tbl qb ~off s pos limit
  in
  (* forcing one side's kind to bitmap routes the same pair through each of
     the two merged mixed loops; both must agree with the dual-SWAR path *)
  check_int "mixed dispatch agrees (A bitmap)" v
    (Dfa.skip_run2 toy_stops toy_bitmap_kinds [||] toy_tbl qa toy_stops
       toy_kinds toy_masks toy_tbl qb ~off s pos limit);
  check_int "mixed dispatch agrees (B bitmap)" v
    (Dfa.skip_run2 toy_stops toy_kinds toy_masks toy_tbl qa toy_stops
       toy_bitmap_kinds [||] toy_tbl qb ~off s pos limit);
  check_int "skip_run2_bitmap agrees" v
    (Dfa.skip_run2_bitmap toy_stops qa toy_stops qb ~off s pos limit);
  v

let test_skip_run_unit () =
  check "toy states are SWAR-classified" true
    (Bytes.get toy_kinds 0 = '\001' && Bytes.get toy_kinds 1 = '\001');
  (* stop at every distance 0..20 from pos: covers the scalar tail and the
     word-at-a-time body on both sides of its boundaries *)
  for r = 0 to 20 do
    let s = String.make r 'a' ^ "x" ^ String.make 3 'a' in
    check_int (Printf.sprintf "stop after %d" r) r (skip 0 s 0 (String.length s))
  done;
  (* no stop byte: the whole range self-loops to the limit *)
  for n = 0 to 20 do
    let s = String.make n 'a' in
    check_int (Printf.sprintf "clean run %d" n) n (skip 0 s 0 n)
  done;
  (* the limit clamps the scan even when the stop byte lies beyond it *)
  check_int "limit clamps" 13 (skip 0 (String.make 13 'a' ^ "bx") 5 13);
  (* empty range *)
  check_int "empty range" 7 (skip 0 (String.make 9 'a') 7 7);
  (* stop at pos itself *)
  check_int "stop at pos" 2 (skip 0 "aax" 2 3)

let test_skip_run2_unit () =
  (* dual-cursor: cursor a reads s.[i] against state 0 ('x' stops), cursor b
     reads s.[i+off] against state 1 ('y' stops); first stop wins *)
  let n = 24 in
  (* b-cursor stops first: 'y' at index 9, off 2 -> stop at i = 7 *)
  let s = Bytes.make n 'a' in
  Bytes.set s 9 'y';
  check_int "b stops first (off 2)" 7
    (skip2 0 1 ~off:2 (Bytes.to_string s) 0 (n - 2));
  (* a-cursor stops first *)
  Bytes.set s 3 'x';
  check_int "a stops first" 3 (skip2 0 1 ~off:2 (Bytes.to_string s) 0 (n - 2));
  (* negative offset: b reads behind a *)
  let s = Bytes.make n 'a' in
  Bytes.set s 5 'y';
  check_int "b stops first (off -3)" 8
    (skip2 0 1 ~off:(-3) (Bytes.to_string s) 3 n);
  (* clean to the limit at every length (unroll boundaries) *)
  for len = 0 to 12 do
    let s = String.make (len + 4) 'a' in
    check_int (Printf.sprintf "clean dual run %d" len) len
      (skip2 0 1 ~off:4 s 0 len)
  done;
  (* mixed dispatch: one SWAR cursor against one bitmap cursor *)
  let s = Bytes.make n 'a' in
  Bytes.set s 9 'y';
  check_int "mixed swar/bitmap dual" 7
    (Dfa.skip_run2 toy_stops toy_bitmap_kinds [||] toy_tbl 0 toy_stops
       toy_kinds toy_masks toy_tbl 1 ~off:2 (Bytes.to_string s) 0 (n - 2))

(* ---- golden corpus parity: accel vs noaccel, batch + chunked ---- *)

let engines_of rules =
  match
    ( Engine.compile (Dfa.of_rules rules),
      Engine.compile (Dfa.of_rules ~accel:false rules) )
  with
  | Ok accel, Ok plain -> Some (accel, plain)
  | Error Engine.Unbounded_tnd, Error Engine.Unbounded_tnd -> None
  | _ -> Alcotest.fail "accel/noaccel disagree on max-TND boundedness"

let same_run (t1, o1) (t2, o2) =
  Gen.same_tokens t1 t2 && Engine.outcome_equal o1 o2

let token_ends toks =
  let pos = ref 0 in
  List.map
    (fun (lex, _) ->
      pos := !pos + String.length lex;
      !pos)
    toks

let check_grammar_on_input name accel plain input =
  let ref_run = Engine.tokens plain input in
  if not (same_run ref_run (Engine.tokens accel input)) then
    Alcotest.failf "%s: batch accel differs from noaccel" name;
  let ends = token_ends (fst ref_run) in
  let rng = Prng.create 0xACCE1L in
  let delay = max 1 (Engine.k plain) in
  List.iter
    (fun (cname, ch) ->
      let a = Chunking.apply accel input ch in
      let p = Chunking.apply plain input ch in
      if not (same_run p a) then
        Alcotest.failf "%s: chunking %s accel differs from noaccel" name cname)
    (Chunking.standard ~rng ~token_ends:ends ~delay (String.length input))

let test_golden_grammars () =
  List.iter
    (fun g ->
      let name = g.Grammar.name in
      match engines_of (Grammar.rules g) with
      | None -> ()
      | Some (accel, plain) ->
          let input =
            match Gen_data.by_name name with
            | Some gen -> gen ~seed:0x60D1DL ~target_bytes:20_000 ()
            | None ->
                Fuzz.Gen.token_dense
                  (Prng.create 0xDA7AL)
                  (Engine.dfa accel) ~target_len:20_000
          in
          check_grammar_on_input name accel plain input)
    golden_grammars

(* ---- streaming counters ---- *)

let test_streaming_skip_counters () =
  let rules = Parser.parse_grammar "[a-z][a-z]*\n[ ][ ]*" in
  let e = match Engine.compile_rules rules with Ok e -> e | Error _ -> assert false in
  check "engine reports accel states" true (Engine.accel_states e > 0);
  let stats = Run_stats.create () in
  let input =
    String.concat " " (List.init 50 (fun i -> String.make (10 + (i mod 30)) 'w'))
  in
  let count = ref 0 in
  let st = Stream_tokenizer.create ~stats e ~emit:(fun _ _ -> incr count) in
  (* 7-byte chunks: runs straddle most chunk boundaries *)
  let pos = ref 0 in
  while !pos < String.length input do
    let len = min 7 (String.length input - !pos) in
    Stream_tokenizer.feed st input !pos len;
    pos := !pos + len
  done;
  ignore (Stream_tokenizer.finish st);
  check_int "all tokens out" 99 !count;
  let skipped = Stream_tokenizer.accel_skipped_bytes st in
  (* 7-byte chunks cost ~3 un-skippable bytes per chunk (the run-of-two
     entry steps and the stop-short byte before the probe); ~32% of the
     stream still skips (~75% at 64-byte chunks) *)
  check "skips a large share of the run bytes" true
    (skipped > String.length input / 4);
  check_int "stats counter matches" skipped (Run_stats.accel_skipped stats);
  (* the noaccel engine never skips *)
  let ep =
    match Engine.compile (Dfa.of_rules ~accel:false rules) with
    | Ok e -> e
    | Error _ -> assert false
  in
  let st' = Stream_tokenizer.create ep ~emit:(fun _ _ -> ()) in
  Stream_tokenizer.feed_string st' input;
  ignore (Stream_tokenizer.finish st');
  check_int "noaccel skips nothing" 0 (Stream_tokenizer.accel_skipped_bytes st')

(* ---- .stc v4 accel section ---- *)

let compile_grammar g =
  match Engine.compile (Grammar.dfa g) with
  | Ok e -> e
  | Error _ -> assert false

(* the same Fletcher sum Engine_io uses, for blob surgery *)
let fix_checksum b =
  let a = ref 1 and s = ref 0 in
  for i = 9 to Bytes.length b - 1 do
    a := (!a + Char.code (Bytes.get b i)) mod 65521;
    s := (!s + !a) mod 65521
  done;
  let c = (!s lsl 16) lor !a in
  Bytes.set b 5 (Char.chr (c land 0xff));
  Bytes.set b 6 (Char.chr ((c lsr 8) land 0xff));
  Bytes.set b 7 (Char.chr ((c lsr 16) land 0xff));
  Bytes.set b 8 (Char.chr ((c lsr 24) land 0xff))

let tables_end d =
  281 + (4 * Dfa.size d) + (4 * Dfa.size d * Dfa.num_classes d)

let test_stc_v4_roundtrip () =
  let e = compile_grammar Formats.json in
  let blob = Engine_io.to_string e in
  check_int "v4 version byte" 4 (Char.code blob.[4]);
  (match Engine_io.of_string blob with
  | Ok e' ->
      check "accel tables survive the round trip" true
        (Dfa.equal (Engine.dfa e) (Engine.dfa e'));
      check "swar classification survives" true
        (Dfa.accel_swar_state_count (Engine.dfa e') > 0);
      check "round trip is bit-for-bit stable" true
        (String.equal blob (Engine_io.to_string e'))
  | Error msg -> Alcotest.failf "v4 load failed: %s" msg);
  (* an unaccelerated engine round-trips as unaccelerated *)
  let ep =
    match Engine.compile (Dfa.of_rules ~accel:false (Grammar.rules Formats.json)) with
    | Ok e -> e
    | Error _ -> assert false
  in
  match Engine_io.of_string (Engine_io.to_string ep) with
  | Ok ep' ->
      check "noaccel stays off after round trip" false
        (Dfa.accel_enabled (Engine.dfa ep'))
  | Error msg -> Alcotest.failf "noaccel v4 load failed: %s" msg

(* a v2 blob is a v4 blob cut at the end of the transition tables, a v3
   blob one with the per-state kind section cut off; each with its version
   byte rewound and a valid checksum. Only v4 loads. *)
let check_old_version_rejected ver cut =
  let e = compile_grammar Formats.json in
  let v4 = Engine_io.to_string e in
  let b = Bytes.of_string (String.sub v4 0 (cut (Engine.dfa e) v4)) in
  Bytes.set b 4 (Char.chr ver);
  fix_checksum b;
  match Engine_io.of_string (Bytes.to_string b) with
  | Ok _ -> Alcotest.failf "v%d blob loaded" ver
  | Error msg ->
      check_str
        (Printf.sprintf "v%d rejected" ver)
        (Printf.sprintf "Engine_io: unsupported version %d" ver)
        msg

let test_stc_v2_rejected () =
  check_old_version_rejected 2 (fun d _ -> tables_end d)

let test_stc_v3_rejected () =
  check_old_version_rejected 3 (fun d v4 -> String.length v4 - Dfa.size d)

let test_stc_accel_corruption () =
  let e = compile_grammar Formats.csv in
  let d = Engine.dfa e in
  let blob = Engine_io.to_string e in
  let fbase = tables_end d + 1 in
  (* a flag byte outside {0,1} is malformed *)
  let b = Bytes.of_string blob in
  Bytes.set b fbase '\002';
  fix_checksum b;
  check "flag byte > 1 rejected" true
    (match Engine_io.of_string (Bytes.to_string b) with
    | Error _ -> true
    | Ok _ -> false);
  (* a flipped (well-formed) flag contradicts the recomputed analysis *)
  let b = Bytes.of_string blob in
  Bytes.set b fbase (if Bytes.get b fbase = '\000' then '\001' else '\000');
  fix_checksum b;
  check "inconsistent accel tables rejected under verify" true
    (match Engine_io.of_string (Bytes.to_string b) with
    | Error _ -> true
    | Ok _ -> false);
  (* ... but accepted when the caller opts out of verification *)
  check "unverified load trusts the tables" true
    (match Engine_io.of_string ~verify:false (Bytes.to_string b) with
    | Ok _ -> true
    | Error _ -> false)

let test_stc_swar_corruption () =
  let e = compile_grammar Formats.json in
  let d = Engine.dfa e in
  let n = Dfa.size d in
  let blob = Engine_io.to_string e in
  let kbase = tables_end d + 1 + n + (n * 32) in
  let reject what b =
    match Engine_io.of_string (Bytes.to_string b) with
    | Error msg ->
        check (what ^ ": error mentions the accel section") true
          (let has needle =
             let nl = String.length needle and ml = String.length msg in
             let rec go i = i + nl <= ml && (String.sub msg i nl = needle || go (i + 1)) in
             go 0
           in
           has "kind" || has "table sizes")
    | Ok _ -> Alcotest.failf "%s: corrupted blob accepted" what
  in
  (* a kind byte above 4 is malformed *)
  let b = Bytes.of_string blob in
  Bytes.set b kbase '\007';
  fix_checksum b;
  reject "kind byte > 4" b;
  (* a well-formed but wrong kind contradicts the stop bitmaps; this is
     structural validation, so it must hold even without verify *)
  let b = Bytes.of_string blob in
  Bytes.set b kbase (if Bytes.get b kbase = '\000' then '\001' else '\000');
  fix_checksum b;
  reject "kind inconsistent with bitmaps" b;
  check "kind inconsistency rejected even unverified" true
    (match Engine_io.of_string ~verify:false (Bytes.to_string b) with
    | Error _ -> true
    | Ok _ -> false);
  (* a truncated kind section makes the blob the wrong length for v4 *)
  let b = Bytes.of_string (String.sub blob 0 (String.length blob - 1)) in
  fix_checksum b;
  reject "truncated kind section" b

let suite =
  [
    Alcotest.test_case "stop bitmaps sound" `Quick test_bitmap_sound;
    Alcotest.test_case "build deterministic" `Quick test_build_deterministic;
    Alcotest.test_case "noaccel reference build" `Quick
      test_noaccel_reference_build;
    Alcotest.test_case "skip_run unit" `Quick test_skip_run_unit;
    Alcotest.test_case "skip_run2 unit" `Quick test_skip_run2_unit;
    Alcotest.test_case "golden grammars parity" `Quick test_golden_grammars;
    Alcotest.test_case "streaming skip counters" `Quick
      test_streaming_skip_counters;
    Alcotest.test_case "stc v4 roundtrip" `Quick test_stc_v4_roundtrip;
    Alcotest.test_case "stc v2 rejected" `Quick test_stc_v2_rejected;
    Alcotest.test_case "stc v3 rejected" `Quick test_stc_v3_rejected;
    Alcotest.test_case "stc accel corruption" `Quick test_stc_accel_corruption;
    Alcotest.test_case "stc swar corruption" `Quick test_stc_swar_corruption;
  ]
