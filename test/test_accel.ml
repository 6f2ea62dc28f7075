(* Self-loop run acceleration: soundness of the per-state stop-byte bitmaps
   against the transition function, build determinism, the skip-loop
   scanners' unit behaviour around the unroll boundaries, golden-corpus
   parity of accelerated vs. reference engines (batch and chunked) and the
   streaming skip counters. The SWAR tier itself (word-level oracle,
   endianness, random battery) lives in test_swar.ml. *)

open Streamtok
module Chunking = Fuzz.Chunking

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let golden_grammars = Formats.all @ Languages.all

(* the build-time profitability threshold (Accel.min_loop_bytes) *)
let min_loop_bytes = 4

(* [table level sets]: one row per stop set, derived through the identity
   classmap — the synthetic tables the scanner tests feed the hot loops *)
let identity = String.init 256 Char.chr

let table level sets =
  let t = Accel.create level ~capacity:0 in
  List.iter
    (fun set ->
      let loops = Bytes.make 256 '\001' in
      List.iter (fun b -> Bytes.set loops b '\000') set;
      ignore (Accel.add_row t ~classmap:identity ~loops))
    sets;
  t

(* ---- bitmap soundness ---- *)

(* The stop bitmaps are filled for every state of an accelerated build:
   bit b clear must mean step(q,b) = q, bit b set must mean step(q,b) <> q.
   The flag is profitability only: set iff >= min_loop_bytes self-loop. *)
let test_bitmap_sound () =
  List.iter
    (fun g ->
      let name = g.Grammar.name in
      let d = Grammar.dfa g in
      let acc = d.Dfa.accel in
      check (name ^ ": SWAR level by default") true
        (Accel.level acc = Accel.Swar);
      (* flag 1 + bitmap 8 ints + kind 1 + masks 24 + gather table 256 *)
      check_int
        (name ^ ": table bytes = 346/state")
        (346 * Dfa.size d) (Accel.bytes acc);
      check_int (name ^ ": one row per state") (Dfa.size d) (Accel.rows acc);
      let flagged = ref 0 in
      for q = 0 to Dfa.size d - 1 do
        let loop_bytes = ref 0 in
        for b = 0 to 255 do
          let self = Dfa.step d q (Char.chr b) = q in
          if self then incr loop_bytes;
          if Accel.is_stop acc q b <> not self then
            Alcotest.failf "%s: state %d byte %d: stop bit vs step disagree"
              name q b
        done;
        check_int (name ^ ": stop count") (256 - !loop_bytes)
          (Accel.stop_count acc q);
        let flag = Accel.is_flagged acc q in
        if flag then incr flagged;
        if flag <> (!loop_bytes >= min_loop_bytes) then
          Alcotest.failf "%s: state %d: flag %b but %d self-loop bytes" name q
            flag !loop_bytes
      done;
      check_int (name ^ ": flag count consistent") !flagged
        (Accel.flagged_count acc);
      (* every shipped grammar has a dominant run state (identifiers,
         strings, comments, whitespace...) — the analysis must find it *)
      check (name ^ ": finds at least one accel state") true (!flagged > 0))
    golden_grammars

let test_build_deterministic () =
  List.iter
    (fun g ->
      let name = g.Grammar.name in
      let d1 = Grammar.dfa g in
      let d2 = Dfa.of_rules (Grammar.rules g) in
      check (name ^ ": rebuild identical") true (Dfa.equal d1 d2);
      let off = Dfa.of_rules ~accel:Accel.Off (Grammar.rules g) in
      check (name ^ ": off build is off") true
        (Accel.level off.Dfa.accel = Accel.Off);
      check_int (name ^ ": off build has no states") 0
        (Accel.flagged_count off.Dfa.accel);
      (* the accelerator is pure derived data: the unaccelerated and the
         bitmap-only builds have the default build's tables *)
      let bitmap = Dfa.of_rules ~accel:Accel.Bitmap (Grammar.rules g) in
      List.iter
        (fun (level, d) ->
          check
            (Printf.sprintf "%s: %s build has the same tables" name level)
            true
            (d.Dfa.trans = d1.Dfa.trans
            && d.Dfa.accept = d1.Dfa.accept
            && String.equal d.Dfa.classmap d1.Dfa.classmap))
        [ ("off", off); ("bitmap", bitmap) ])
    golden_grammars

let test_noaccel_reference_build () =
  let d = Dfa.of_rules ~accel:Accel.Off (Grammar.rules Formats.json) in
  let acc = d.Dfa.accel in
  check "noaccel: disabled" true (Accel.level acc = Accel.Off);
  check_int "noaccel: zero accel states" 0 (Accel.flagged_count acc);
  check "noaccel: no stop bytes reported, nothing entered" true
    (let any = ref false in
     for q = 0 to Dfa.size d - 1 do
       if Accel.enters acc q 0 || Accel.is_flagged acc q then any := true;
       for b = 0 to 255 do
         if Accel.is_stop acc q b then any := true
       done
     done;
     not !any);
  (* flags are still allocated (hot loops probe unconditionally), nothing
     else is *)
  check_int "noaccel: flags only" (Dfa.size d) (Accel.bytes acc);
  check_int "noaccel: zero swar states" 0 (Accel.swar_count acc);
  (* a bitmap build keeps the bitmap tier but classifies nothing *)
  let ds = Dfa.of_rules ~accel:Accel.Bitmap (Grammar.rules Formats.json) in
  let acs = ds.Dfa.accel in
  check "bitmap: accel still on" true (Accel.level acs = Accel.Bitmap);
  check_int "bitmap: accel states unchanged" (Accel.flagged_count (Grammar.dfa Formats.json).Dfa.accel)
    (Accel.flagged_count acs);
  check_int "bitmap: zero swar states" 0 (Accel.swar_count acs);
  check "bitmap: kinds all zero" true
    (List.for_all
       (fun q -> Accel.kind acs q = 0 && not (Accel.is_swar acs q))
       (List.init (Dfa.size ds) Fun.id));
  (* flag 1 + bitmap 8 ints + kind 1, no masks or gather tables *)
  check_int "bitmap: 66 bytes/state" (66 * Dfa.size ds) (Accel.bytes acs)

(* ---- skip-loop scanners ---- *)

(* toy tables: row 0 stops on 'x' only, row 1 on 'y' only; rows 2 and 3
   add three control bytes the inputs never hold, so they scan exactly like
   rows 0 and 1 but take the many-stop kind. In the SWAR table rows 0-1 are
   SWAR, rows 2-3 gather table; the bitmap-level table exercises the bitmap
   dispatch on the very same assertions *)
let toy_sets =
  [ [ Char.code 'x' ]; [ Char.code 'y' ]; [ Char.code 'x'; 0; 1; 2 ];
    [ Char.code 'y'; 0; 1; 2 ] ]

let toy = table Accel.Swar toy_sets
let toy_bitmap = table Accel.Bitmap toy_sets

let skip q s pos limit =
  let v = Accel.skip toy q s pos limit in
  check_int "gather kind agrees" v (Accel.skip toy (q + 2) s pos limit);
  check_int "bitmap level agrees" v (Accel.skip toy_bitmap q s pos limit);
  check_int "skip_bitmap agrees" v (Accel.skip_bitmap toy q s pos limit);
  v

let skip2 qa qb ~off s pos limit =
  let v = Accel.skip2 toy qa toy qb ~off s pos limit in
  (* a gather-table side on either cursor, and the bitmap level, must
     agree with the two-SWAR pair *)
  check_int "gather kind agrees (A)" v
    (Accel.skip2 toy (qa + 2) toy qb ~off s pos limit);
  check_int "gather kind agrees (B)" v
    (Accel.skip2 toy qa toy (qb + 2) ~off s pos limit);
  check_int "bitmap level agrees" v
    (Accel.skip2 toy_bitmap qa toy_bitmap qb ~off s pos limit);
  v

let test_skip_run_unit () =
  check "toy rows classified" true
    (List.init 4 (Accel.kind toy) = [ 1; 1; 5; 5 ]);
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
  (* two cursors: cursor a reads s.[i] against row 0 ('x' stops), cursor b
     reads s.[i+off] against row 1 ('y' stops); first stop wins *)
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
    check_int (Printf.sprintf "clean two-cursor run %d" len) len
      (skip2 0 1 ~off:4 s 0 len)
  done;
  (* one gather-table cursor against one SWAR cursor *)
  let s = Bytes.make n 'a' in
  Bytes.set s 9 'y';
  check_int "gather/swar pair" 7
    (Accel.skip2 toy 2 toy 1 ~off:2 (Bytes.to_string s) 0 (n - 2))

(* ---- golden corpus parity: accel vs noaccel, batch + chunked ---- *)

let engines_of rules =
  match
    ( Engine.compile (Dfa.of_rules rules),
      Engine.compile (Dfa.of_rules ~accel:Accel.Off rules) )
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
  let input =
    String.concat " " (List.init 50 (fun i -> String.make (10 + (i mod 30)) 'w'))
  in
  let count = ref 0 in
  let st = Stream_tokenizer.create e ~emit:(fun _ _ -> incr count) in
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
  (* the noaccel engine never skips *)
  let ep =
    match Engine.compile (Dfa.of_rules ~accel:Accel.Off rules) with
    | Ok e -> e
    | Error _ -> assert false
  in
  let st' = Stream_tokenizer.create ep ~emit:(fun _ _ -> ()) in
  Stream_tokenizer.feed_string st' input;
  ignore (Stream_tokenizer.finish st');
  check_int "noaccel skips nothing" 0 (Stream_tokenizer.accel_skipped_bytes st')

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
  ]
