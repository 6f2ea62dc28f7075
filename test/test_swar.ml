(* The SWAR skip-loop tier: build-time classification of <=3-stop-byte
   states, the word-level zero-byte detector against a naive byte-at-a-time
   oracle (every stop-set size x scan offset x stop lane, including the
   absent case), the scalar tails (ranges shorter than a word, exact
   multiples of 8, a stop inside the final partial word), the endianness
   invariance of the broadcast-mask trick (0x00 and 0x80 at every lane),
   and a seeded random battery pitting the SWAR scanners against the bitmap
   scanners and a reference linear scan on every golden grammar. *)

open Streamtok

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let golden_grammars = Formats.all @ Languages.all

(* ---- synthetic single-row tables ---- *)

let tables_of bytes = Test_accel.table Accel.Swar [ bytes ]

(* reference: one byte at a time, no words, no bitmaps *)
let linear_scan stop_bytes s pos limit =
  let i = ref pos in
  while !i < limit && not (List.mem (Char.code s.[!i]) stop_bytes) do
    incr i
  done;
  !i

(* every scanner must agree with the reference on (set, s, pos, limit) *)
let agree ~what set t s pos limit =
  let expected = linear_scan set s pos limit in
  check_int (what ^ ": swar") expected (Accel.skip t 0 s pos limit);
  check_int (what ^ ": bitmap") expected (Accel.skip_bitmap t 0 s pos limit);
  expected

(* ---- classification ---- *)

let test_classify () =
  let kind bytes = Accel.kind (tables_of bytes) 0 in
  check_int "0 stops -> free-running" 4 (kind []);
  check_int "1 stop -> kind 1" 1 (kind [ 0x22 ]);
  check_int "2 stops -> kind 2" 2 (kind [ 0x22; 0x5c ]);
  check_int "3 stops -> kind 3" 3 (kind [ 0x0a; 0x22; 0x5c ]);
  check_int "4 stops -> gather table" 5 (kind [ 0x0a; 0x0d; 0x22; 0x5c ]);
  check_int "4 stops at Bitmap -> bitmap" 0
    (Accel.kind
       (Test_accel.table Accel.Bitmap [ [ 0x0a; 0x0d; 0x22; 0x5c ] ])
       0);
  (* mask padding repeats the last real stop byte *)
  let mask t i = Accel.mask t 0 i in
  let t = tables_of [ 0x22; 0x5c ] in
  check "kind-2 masks padded" true
    (mask t 1 = mask t 2 && mask t 0 <> mask t 1);
  let t = tables_of [ 0x2f ] in
  check "kind-1 masks padded" true (mask t 0 = mask t 1 && mask t 1 = mask t 2);
  check "broadcast mask shape" true
    (mask t 0 = Int64.mul 0x0101010101010101L 0x2fL);
  (* a free-running state reports limit without reading anything *)
  check_int "free-running returns limit" 40
    (Accel.skip (tables_of []) 0 (String.make 40 'a') 3 40)

(* ---- word-level oracle ---- *)

(* stop-set sizes 1..3, scan start offsets 0..7 (every word phase), the
   stop byte at every distance 0..24 from the start (every lane of the
   first three words) and absent entirely, for every member of the set *)
let test_word_oracle () =
  let sets = [ [ 0x78 ]; [ 0x78; 0x7a ]; [ 0x78; 0x7a; 0x7e ] ] in
  List.iter
    (fun set ->
      let t = tables_of set in
      List.iter
        (fun stop ->
          for start = 0 to 7 do
            for d = 0 to 25 do
              let n = start + 25 in
              let b = Bytes.make n 'a' in
              let stop_pos = start + d in
              if stop_pos < n then Bytes.set b stop_pos (Char.chr stop);
              let s = Bytes.to_string b in
              let got =
                agree
                  ~what:
                    (Printf.sprintf "set %d stop %#x start %d dist %d"
                       (List.length set) stop start d)
                  set t s start n
              in
              check_int "oracle position" (min stop_pos n) got
            done
          done)
        set)
    sets

(* ---- tails ---- *)

let test_tails () =
  let set = [ Char.code 'x' ] in
  let t = tables_of set in
  (* ranges shorter than one word never enter the word loop *)
  for n = 0 to 7 do
    ignore (agree ~what:"short clean" set t (String.make n 'a') 0 n);
    for j = 0 to n - 1 do
      let b = Bytes.make n 'a' in
      Bytes.set b j 'x';
      ignore (agree ~what:"short hit" set t (Bytes.to_string b) 0 n)
    done
  done;
  (* clean ranges of exactly 8, 16, 24, 32 bytes: no scalar tail at all *)
  for w = 1 to 4 do
    let n = 8 * w in
    check_int "exact multiple of 8" n
      (agree ~what:"exact words" set t (String.make n 'a') 0 n)
  done;
  (* a stop byte inside the final partial word is found by the tail *)
  for tail = 1 to 7 do
    for j = 0 to tail - 1 do
      let n = 16 + tail in
      let b = Bytes.make n 'a' in
      Bytes.set b (16 + j) 'x';
      check_int "stop in partial word" (16 + j)
        (agree ~what:"partial tail" set t (Bytes.to_string b) 0 n)
    done
  done;
  (* the limit clamps the word loop even when stops lie beyond it *)
  let s = String.make 20 'a' ^ "x" in
  check_int "limit clamps" 20 (agree ~what:"clamped" set t s 0 20)

(* ---- endianness: 0x00 and 0x80 at every lane ---- *)

(* The detector word is built with xor/sub/land on a byte-broadcast mask:
   its answer ("some lane holds the stop byte") is invariant under the
   byte order [get64u] happens to read, and the exact index always comes
   from the scalar bitmap loop. 0x00 (the zero-byte detector's native
   case) and 0x80 (the sign-bit lane) are the two values that would break
   first if the detector had false positives or lane-order assumptions. *)
let test_lane_endianness () =
  List.iter
    (fun stop ->
      let set = [ stop ] in
      let t = tables_of set in
      for lane = 0 to 15 do
        let b = Bytes.make 24 'a' in
        Bytes.set b lane (Char.chr stop);
        check_int
          (Printf.sprintf "stop %#x at lane %d" stop lane)
          lane
          (agree ~what:"lane" set t (Bytes.to_string b) 0 24)
      done;
      (* neighbours of the stop value in every lane: no false positives *)
      List.iter
        (fun filler ->
          if filler <> stop then begin
            let s = String.make 32 (Char.chr filler) in
            check_int
              (Printf.sprintf "stop %#x over %#x runs clean" stop filler)
              32
              (agree ~what:"clean lanes" set t s 0 32)
          end)
        [ 0x00; 0x01; 0x7f; 0x80; 0x81; 0xff ])
    [ 0x00; 0x80 ];
  (* both extremes in the same word, both orders *)
  let set = [ 0x00; 0x80 ] in
  let t = tables_of set in
  let b = Bytes.make 16 'a' in
  Bytes.set b 5 '\x00';
  Bytes.set b 9 '\x80';
  check_int "0x00 before 0x80" 5 (agree ~what:"both" set t (Bytes.to_string b) 0 16);
  let b = Bytes.make 16 'a' in
  Bytes.set b 3 '\x80';
  Bytes.set b 12 '\x00';
  check_int "0x80 before 0x00" 3 (agree ~what:"both" set t (Bytes.to_string b) 0 16)

(* ---- two-cursor scanner against a two-sided reference ---- *)

let linear_scan2 set_a set_b ~off s pos limit =
  let i = ref pos in
  while
    !i < limit
    && (not (List.mem (Char.code s.[!i]) set_a))
    && not (List.mem (Char.code s.[!i + off]) set_b)
  do
    incr i
  done;
  !i

(* [skip2] scans 32-byte windows that double while both cursors run clean,
   so the stops are planted just before, on and just after the window
   edges (32, 32+64, 32+64+128, ...) on either cursor's side, in ranges up
   to 1100 bytes. The 4- and 5-member sets are gather-table rows at [Swar]
   and bitmap rows at [Bitmap]; both levels must match the reference. *)
let test_two_cursor_oracle () =
  let rng = Prng.create 0xD0A1L in
  let sets =
    [|
      [ 0x78 ];
      [ 0x78; 0x7a ];
      [ 0x78; 0x7a; 0x7e ];
      [];
      [ 0x78; 0x7a; 0x7e; 0x62 ];
      [ 0x7a; 0x7e; 0x62; 0x41; 0x25 ];
    |]
  in
  let edges = [| 0; 32; 96; 224; 480; 992 |] in
  for _ = 1 to 500 do
    let set_a = Prng.choose rng sets and set_b = Prng.choose rng sets in
    let off = Prng.in_range rng (-6) 6 in
    let n = Prng.in_range rng 0 1100 in
    let b = Bytes.make (n + 16) 'a' in
    let pos = max 0 (-off) in
    for _ = 0 to Prng.int rng 3 do
      let at =
        if Prng.bool rng then Prng.int rng (n + 16)
        else
          (* just around a window edge, seen from either cursor *)
          pos + Prng.choose rng edges + Prng.in_range rng (-2) 2
          + if Prng.bool rng then off else 0
      in
      if at >= 0 && at < n + 16 then
        Bytes.set b at (Prng.choose rng [| 'x'; 'z'; '~'; 'b'; 'A'; '%' |])
    done;
    let s = Bytes.to_string b in
    let limit = max pos (min (pos + n) (String.length s - max 0 off)) in
    let expected = linear_scan2 set_a set_b ~off s pos limit in
    List.iter
      (fun level ->
        let a = Test_accel.table level [ set_a ]
        and b_ = Test_accel.table level [ set_b ] in
        check_int "two-cursor scan vs reference" expected
          (Accel.skip2 a 0 b_ 0 ~off s pos limit))
      [ Accel.Swar; Accel.Bitmap ]
  done

(* ---- every kind pair: mirror collapse, no allocation ---- *)

(* one (table, row) per kind, indexed by kind: bitmap (a [Bitmap]-level
   row), SWAR with 1, 2 and 3 stops, free-running, gather table (5
   stops) *)
let kinds_table =
  let swar =
    Test_accel.table Accel.Swar
      [
        [ 0x78 ];
        [ 0x78; 0x7a ];
        [ 0x7a; 0x7e; 0x62 ];
        [];
        [ 0x78; 0x7a; 0x7e; 0x62; 0x41 ];
      ]
  in
  let bitmap =
    Test_accel.table Accel.Bitmap [ [ 0x78; 0x7a; 0x7e; 0x62; 0x41 ] ]
  in
  [| (bitmap, 0); (swar, 0); (swar, 1); (swar, 2); (swar, 3); (swar, 4) |]

let random_run rng n =
  let b = Bytes.make n 'a' in
  for _ = 0 to Prng.int rng 6 do
    if n > 0 then
      Bytes.set b (Prng.int rng n)
        (Prng.choose rng [| 'x'; 'z'; '~'; 'b'; 'A'; '%' |])
  done;
  Bytes.to_string b

(* Swapping the cursors — sides exchanged, [off] negated, the range
   shifted by [off] — must give the same stop for every kind pair:
   skip2 a qa b qb ~off s pos limit
   = skip2 b qb a qa ~off:(-off) s (pos+off) (limit+off) - off *)
let test_mirror_collapse () =
  check "one row per kind" true
    (Array.for_all Fun.id
       (Array.mapi (fun k (t, r) -> Accel.kind t r = k) kinds_table));
  let rng = Prng.create 0x3199L in
  Array.iteri
    (fun ka (a, qa) ->
      Array.iteri
        (fun kb (b, qb) ->
          for _ = 1 to 100 do
            let off = Prng.in_range rng (-9) 9 in
            let n = Prng.in_range rng 0 48 in
            let s = random_run rng (n + 20) in
            let pos = max 0 (-off) + Prng.int rng 4 in
            let limit =
              max pos (min (pos + n) (String.length s - max 0 off))
            in
            let fwd = Accel.skip2 a qa b qb ~off s pos limit in
            let back =
              Accel.skip2 b qb a qa ~off:(-off) s (pos + off) (limit + off)
              - off
            in
            if fwd <> back then
              Alcotest.failf "kinds (%d,%d) off %d [%d,%d): %d vs mirrored %d"
                ka kb off pos limit fwd back
          done)
        kinds_table)
    kinds_table

(* The skip path allocates nothing: every scanner, every kind pair, over
   ranges long enough to double the two-cursor window. *)
let test_no_allocation () =
  let s = String.make 200 'a' in
  let sink = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 200 do
    for ka = 0 to 5 do
      let a, qa = kinds_table.(ka) in
      sink := !sink + Accel.skip a qa s 0 190 + Accel.skip_bitmap a qa s 0 190;
      for kb = 0 to 5 do
        let b, qb = kinds_table.(kb) in
        sink :=
          !sink
          + Accel.skip2 a qa b qb ~off:7 s 0 190
          + Accel.skip2 a qa b qb ~off:(-7) s 7 197
      done
    done
  done;
  let words = Gc.minor_words () -. w0 in
  check "scanned" true (!sink > 0);
  if words > 64. then Alcotest.failf "skip path allocated %.0f words" words

(* ---- seeded random battery on the golden grammars ---- *)

(* 1000 seeded trials: a random accelerated state of a random golden
   grammar, a random slice of a run-biased string, three scanners in
   lockstep. The real tables (not synthetic ones) are what the hot loops
   consume, so this also checks classification against the grammars'
   actual stop sets. *)
let test_random_battery () =
  let rng = Prng.create 0x5AA5_BEEFL in
  let pool =
    List.filter_map
      (fun g ->
        let d = Grammar.dfa g in
        let flagged = ref [] in
        for q = Dfa.size d - 1 downto 0 do
          if Accel.is_flagged d.Dfa.accel q then flagged := q :: !flagged
        done;
        if !flagged = [] then None else Some (g.Grammar.name, d, Array.of_list !flagged))
      golden_grammars
  in
  check "every golden grammar has accelerable states" true
    (List.length pool = List.length golden_grammars);
  check "some golden grammar has a SWAR state" true
    (List.exists (fun (_, d, _) -> Accel.swar_count d.Dfa.accel > 0) pool);
  let pool = Array.of_list pool in
  for _ = 1 to 1000 do
    let name, d, flagged = Prng.choose rng pool in
    let acc = d.Dfa.accel in
    let q = Prng.choose rng flagged in
    (* self-loop bytes of q, to build long runs; all bytes, for stops *)
    let loopers = ref [] in
    for b = 255 downto 0 do
      if not (Accel.is_stop acc q b) then loopers := Char.chr b :: !loopers
    done;
    let loopers = Array.of_list !loopers in
    let n = Prng.in_range rng 0 96 in
    let b = Bytes.init n (fun _ -> Prng.choose rng loopers) in
    for _ = 0 to Prng.int rng 4 do
      if n > 0 then
        Bytes.set b (Prng.int rng n) (Char.chr (Prng.int rng 256))
    done;
    let s = Bytes.to_string b in
    let pos = Prng.int rng (n + 1) in
    let limit = Prng.in_range rng pos n in
    let set = ref [] in
    for byte = 255 downto 0 do
      if Accel.is_stop acc q byte then set := byte :: !set
    done;
    let expected = linear_scan !set s pos limit in
    let what = Printf.sprintf "%s state %d" name q in
    check_int (what ^ ": swar path") expected (Accel.skip acc q s pos limit);
    check_int (what ^ ": bitmap path") expected
      (Accel.skip_bitmap acc q s pos limit)
  done

let suite =
  [
    Alcotest.test_case "classification" `Quick test_classify;
    Alcotest.test_case "word-level oracle" `Quick test_word_oracle;
    Alcotest.test_case "scalar tails" `Quick test_tails;
    Alcotest.test_case "lane endianness" `Quick test_lane_endianness;
    Alcotest.test_case "two-cursor oracle" `Quick test_two_cursor_oracle;
    Alcotest.test_case "mirror collapse" `Quick test_mirror_collapse;
    Alcotest.test_case "skip path allocates nothing" `Quick test_no_allocation;
    Alcotest.test_case "golden random battery" `Quick test_random_battery;
  ]
