(* Self-loop run acceleration: throughput of the default (SWAR-classified
   skip-loop) engines against two reference builds of the same rules — the
   [~accel:Bitmap] build (bitmap skip loops only) and the [~accel:Off]
   build (no skip loops at all).

   Hard checks, not just reporting: byte-identical token streams across
   all three builds on every workload, every corpus grammar must expose at
   least one accelerable state, the run-heavy workloads must classify at
   least one SWAR state, the skip ratio on the run-heavy workloads must
   clear 50%, and — in throughput mode — the run-heavy speedup over the
   unaccelerated build must clear a hard floor, the SWAR-vs-bitmap speedup
   must clear 2x on the words and json-strings workloads, the two-cursor
   adversary (json-digit-strings) must clear 1.5x over the unaccelerated
   build, and the run-poor adversary stays within the regression budget.
   Scalars go via STREAMTOK_BENCH_STATS into BENCH_accel.json. *)

open Streamtok

let corpus = Formats.all @ Languages.all

let input_for g dfa =
  match Gen_data.by_name g.Grammar.name with
  | Some gen ->
      gen ~seed:Bench_common.seed_data ~target_bytes:(256 * 1024) ()
  | None ->
      Fuzz.Gen.token_dense
        (Prng.create Bench_common.seed_data)
        dfa ~target_len:(256 * 1024)

let time_run e input =
  let t0 = Unix.gettimeofday () in
  ignore (Engine.run_string e input ~emit:(fun ~pos:_ ~len:_ ~rule:_ -> ()));
  Unix.gettimeofday () -. t0

(* Interleave the three engines round by round so clock-speed drift and
   noisy neighbours hit all sides equally, and keep the per-engine best. *)
let best_of_triple rounds ea es ep input =
  let ba = ref infinity and bs = ref infinity and bp = ref infinity in
  for _ = 1 to rounds do
    let ta = time_run ea input in
    if ta < !ba then ba := ta;
    let ts = time_run es input in
    if ts < !bs then bs := ts;
    let tp = time_run ep input in
    if tp < !bp then bp := tp
  done;
  (!ba, !bs, !bp)

(* (full SWAR build, bitmap-only build, unaccelerated build) *)
let engines_opt name rules =
  match
    ( Engine.compile_rules rules,
      Engine.compile (Dfa.of_rules ~accel:Accel.Bitmap rules),
      Engine.compile (Dfa.of_rules ~accel:Accel.Off rules) )
  with
  | Ok a, Ok s, Ok p -> Some (a, s, p)
  | Error Engine.Unbounded_tnd, Error Engine.Unbounded_tnd,
    Error Engine.Unbounded_tnd ->
      None
  | _ ->
      Printf.eprintf "accel bench: %s: builds disagree on boundedness\n" name;
      exit 1

let engines_of name rules =
  match engines_opt name rules with
  | Some triple -> triple
  | None ->
      Printf.eprintf "accel bench: %s: grammar must stream\n" name;
      exit 1

let check_parity name ea es ep input =
  let ta, oa = Engine.tokens ea input
  and ts, os = Engine.tokens es input
  and tp, op = Engine.tokens ep input in
  if not (ta = tp && Engine.outcome_equal oa op) then begin
    Printf.eprintf "accel bench: %s: accel/noaccel token streams differ\n" name;
    exit 1
  end;
  if not (ts = tp && Engine.outcome_equal os op) then begin
    Printf.eprintf "accel bench: %s: swar-off/noaccel token streams differ\n"
      name;
    exit 1
  end

let skip_ratios e input =
  let stats = Run_stats.create () in
  ignore
    (Engine.run_string_instrumented e input ~stats
       ~emit:(fun ~pos:_ ~len:_ ~rule:_ -> ()));
  let n = float_of_int (max 1 (String.length input)) in
  ( float_of_int (Run_stats.accel_skipped stats) /. n,
    float_of_int (Run_stats.swar_skipped stats) /. n )

(* ---- synthetic workloads pinning the two hot paths ---- *)

(* K = 1, Fig. 5 path: long whitespace-delimited word runs. The negated
   class gives the word-interior state a 2-byte stop set {space, newline},
   so it lands in the SWAR tier ([a-z]-style positive classes stop on 230
   bytes and stay on the bitmap path). *)
let words_grammar = "[^ \\x0a][^ \\x0a]*\n[ ][ ]*\n\\x0a"

let words_input ~word_len =
  String.concat " "
    (List.init (262_144 / (word_len + 1)) (fun _ -> String.make word_len 'w'))

(* K = 1 with a second dominant run state: line comments (1-byte stop set) *)
let comments_grammar = "//[^\\x0a]*\n[a-z][a-z]*\n[ ][ ]*\n\\x0a"

let comments_input () =
  let line = "// " ^ String.make 157 'c' ^ "\n" in
  let b = Buffer.create (256 * 1024) in
  while Buffer.length b < 256 * 1024 do
    Buffer.add_string b "word word\n";
    for _ = 1 to 3 do
      Buffer.add_string b line
    done
  done;
  Buffer.contents b

(* K = 3 (json), Fig. 6 token-extension path: long string-literal bodies
   (2-byte stop set — quote and backslash — on the tokenization side) *)
let json_strings_input () =
  let lit = "\"" ^ String.make 180 's' ^ "\"" in
  "[" ^ String.concat "," (List.init 700 (fun _ -> lit)) ^ "]"

(* The two-cursor adversary: the same literals with a digit, 'E', 'e' or
   '.' every 20 bytes. Those bytes may continue a number K bytes on, so
   they stop the lookahead cursor's powerstate row but not the string
   interior state: one side of [Accel.skip2] stops every 20 bytes while
   the other runs clean, which is what its 32-byte first window is for. *)
let json_digit_strings_input () =
  let body =
    String.init 180 (fun i ->
        if i mod 20 = 19 then "1Ee.".[i / 20 mod 4] else 's')
  in
  let lit = "\"" ^ body ^ "\"" in
  "[" ^ String.concat "," (List.init 700 (fun _ -> lit)) ^ "]"

let parse g = St_regex.Parser.parse_grammar g

type workload = {
  wname : string;
  ea : Engine.t;
  es : Engine.t;
  ep : Engine.t;
  input : string;
  swar_gate : bool;  (** hard 2x SWAR-vs-bitmap floor applies *)
  plain_floor : float;  (** hard speedup floor vs noaccel, 0 for none *)
}

let run_heavy () =
  let ea, es, ep = engines_of "words" (parse words_grammar) in
  let ca, cs, cp = engines_of "comments" (parse comments_grammar) in
  let ja, js, jp = engines_of "json" (Grammar.rules Formats.json) in
  [
    {
      wname = "words-60";
      ea;
      es;
      ep;
      input = words_input ~word_len:60;
      swar_gate = true;
      plain_floor = 0.;
    };
    {
      wname = "comments";
      ea = ca;
      es = cs;
      ep = cp;
      input = comments_input ();
      swar_gate = false;
      plain_floor = 0.;
    };
    {
      wname = "json-strings";
      ea = ja;
      es = js;
      ep = jp;
      input = json_strings_input ();
      swar_gate = true;
      plain_floor = 0.;
    };
    {
      wname = "json-digit-strings";
      ea = ja;
      es = js;
      ep = jp;
      input = json_digit_strings_input ();
      swar_gate = false;
      plain_floor = 1.5;
    };
  ]

(* the adversary: runs of length <= 2, so the skip loop's entry test is
   paid on nearly every byte and almost never pays off *)
let run_poor () =
  let ea, es, ep = engines_of "words" (parse words_grammar) in
  let input =
    String.concat " "
      (List.init 87_000 (fun i -> if i land 1 = 0 then "ab" else "c"))
  in
  {
    wname = "short-tokens";
    ea;
    es;
    ep;
    input;
    swar_gate = false;
    plain_floor = 0.;
  }

let record ~wname n v =
  Bench_common.record_result ~experiment:"accel" ~name:n
    ~labels:[ ("workload", wname) ]
    v

let run ?(throughput = true) () =
  Bench_common.pp_header
    "Accel: SWAR + bitmap skip scanning vs the reference builds";

  (* corpus-wide: three-way parity on workload data, and the analysis must
     find the dominant run states the corpus grammars all have *)
  let checked = ref 0 in
  let swar_grammars = ref 0 in
  List.iter
    (fun g ->
      let name = g.Grammar.name in
      match engines_opt name (Grammar.rules g) with
      | None -> () (* unbounded max-TND: nothing to run *)
      | Some (ea, es, ep) ->
          if Engine.accel_states ea = 0 then begin
            Printf.eprintf "accel bench: %s: no accelerable states found\n"
              name;
            exit 1
          end;
          if Engine.accel_swar_states ea > 0 then incr swar_grammars;
          if Engine.accel_swar_states es <> 0 then begin
            Printf.eprintf "accel bench: %s: swar-off build has SWAR states\n"
              name;
            exit 1
          end;
          check_parity name ea es ep (input_for g (Engine.dfa ea));
          incr checked)
    corpus;
  Printf.printf
    "  corpus parity: %d grammars, swar == bitmap == noaccel byte-for-byte \
     (%d with SWAR states)\n"
    !checked !swar_grammars;
  if !swar_grammars = 0 then begin
    Printf.eprintf "accel bench: no corpus grammar classifies a SWAR state\n";
    exit 1
  end;

  Printf.printf "  %-18s %6s %5s %8s %8s %10s %10s %10s %7s %7s\n" "workload"
    "states" "swar" "skip%" "swarsk%" "swar" "bitmap" "noaccel" "x-plain"
    "x-btm";
  let floor_speedup = ref infinity in
  let failed_gate = ref false in
  List.iter
    (fun w ->
      check_parity w.wname w.ea w.es w.ep w.input;
      let ratio, swar_ratio = skip_ratios w.ea w.input in
      if ratio < 0.5 then begin
        Printf.eprintf "accel bench: %s: skip ratio %.2f below 0.5\n" w.wname
          ratio;
        exit 1
      end;
      if Engine.accel_swar_states w.ea = 0 then begin
        Printf.eprintf "accel bench: %s: no SWAR states classified\n" w.wname;
        exit 1
      end;
      (* the dominant run state must actually take the SWAR path, not just
         be classified into it *)
      if w.swar_gate && swar_ratio < 0.5 then begin
        Printf.eprintf "accel bench: %s: swar skip ratio %.2f below 0.5\n"
          w.wname swar_ratio;
        exit 1
      end;
      record ~wname:w.wname "skip_ratio" ratio;
      record ~wname:w.wname "swar_skip_ratio" swar_ratio;
      record ~wname:w.wname "accel_states"
        (float_of_int (Engine.accel_states w.ea));
      record ~wname:w.wname "accel_swar_states"
        (float_of_int (Engine.accel_swar_states w.ea));
      if throughput then begin
        let mb = float_of_int (String.length w.input) /. (1024. *. 1024.) in
        let ta, ts, tp = best_of_triple 5 w.ea w.es w.ep w.input in
        let speedup = tp /. ta in
        let swar_speedup = ts /. ta in
        floor_speedup := min !floor_speedup speedup;
        record ~wname:w.wname "accel_mb_s" (mb /. ta);
        record ~wname:w.wname "bitmap_mb_s" (mb /. ts);
        record ~wname:w.wname "plain_mb_s" (mb /. tp);
        record ~wname:w.wname "speedup" speedup;
        record ~wname:w.wname "swar_speedup" swar_speedup;
        Printf.printf
          "  %-18s %6d %5d %7.1f%% %7.1f%% %5.0f MB/s %5.0f MB/s %5.0f MB/s \
           %6.2fx %6.2fx\n"
          w.wname
          (Engine.accel_states w.ea)
          (Engine.accel_swar_states w.ea)
          (100. *. ratio) (100. *. swar_ratio) (mb /. ta) (mb /. ts)
          (mb /. tp) speedup swar_speedup;
        (* the tentpole claim: the word-at-a-time scanner doubles the
           bitmap scanner on SWAR-dominated workloads — a hard gate on
           words and json-strings, reporting-only on the rest *)
        if w.swar_gate && swar_speedup < 2.0 then begin
          Printf.eprintf
            "accel bench: %s: SWAR-vs-bitmap speedup %.2fx below the 2x \
             floor\n"
            w.wname swar_speedup;
          failed_gate := true
        end;
        if speedup < w.plain_floor then begin
          Printf.eprintf
            "accel bench: %s: speedup vs noaccel %.2fx below the %.1fx floor\n"
            w.wname speedup w.plain_floor;
          failed_gate := true
        end
      end
      else
        Printf.printf "  %-18s %6d %5d %7.1f%% %7.1f%% %10s %10s %10s %7s %7s\n"
          w.wname
          (Engine.accel_states w.ea)
          (Engine.accel_swar_states w.ea)
          (100. *. ratio) (100. *. swar_ratio) "-" "-" "-" "-" "-")
    (run_heavy ());
  if !failed_gate then exit 1;

  (* run-poor adversary: entry tests everywhere, skips nowhere *)
  let w = run_poor () in
  check_parity w.wname w.ea w.es w.ep w.input;
  record ~wname:w.wname "skip_ratio" (fst (skip_ratios w.ea w.input));
  if throughput then begin
    let ta, _, tp = best_of_triple 9 w.ea w.es w.ep w.input in
    let overhead = (ta /. tp) -. 1. in
    record ~wname:w.wname "overhead" overhead;
    Printf.printf "  %-18s run-poor overhead %+.1f%% (target <=3%%, gate 15%%)\n"
      w.wname (100. *. overhead);
    (* the paper target is <=3% on quiet hardware; the hard gate is set
       where only a real regression (not scheduler noise) can reach it *)
    if overhead > 0.15 then begin
      Printf.eprintf "accel bench: run-poor regression %.1f%% above the gate\n"
        (100. *. overhead);
      exit 1
    end;
    (* the claim is >=2x on run-heavy workloads; gate leniently below the
       claim so a noisy CI box does not flap, and report the measurement *)
    Printf.printf "  worst run-heavy speedup vs noaccel: %.2fx (floor 1.3x)\n"
      !floor_speedup;
    Bench_common.record_result ~experiment:"accel" ~name:"worst_speedup"
      !floor_speedup;
    if !floor_speedup < 1.3 then begin
      Printf.eprintf "accel bench: run-heavy speedup below the 1.3x floor\n";
      exit 1
    end
  end

(* The CI leg ([bin/check.sh swar-check]): classification presence,
   three-way parity, and a quick interleaved timing check with a lenient
   floor — the full 2x gate runs in [bench accel] throughput mode, where
   best-of-5 interleaving makes it noise-proof. *)
let swar_check () =
  Bench_common.pp_header "SWAR check: classification, parity, quick timing";
  let checks =
    [
      ("words-60", engines_of "words" (parse words_grammar),
       words_input ~word_len:60);
      ("json-strings", engines_of "json" (Grammar.rules Formats.json),
       json_strings_input ());
    ]
  in
  List.iter
    (fun (wname, (ea, es, ep), input) ->
      if Engine.accel_swar_states ea = 0 then begin
        Printf.eprintf "swar check: %s: no SWAR states classified\n" wname;
        exit 1
      end;
      check_parity wname ea es ep input;
      let _, swar_ratio = skip_ratios ea input in
      if swar_ratio < 0.5 then begin
        Printf.eprintf "swar check: %s: swar skip ratio %.2f below 0.5\n"
          wname swar_ratio;
        exit 1
      end;
      let ta, ts, _ = best_of_triple 3 ea es ep input in
      let swar_speedup = ts /. ta in
      Printf.printf
        "  %-14s %d swar states, %.0f%% swar-skipped, %.2fx vs bitmap \
         (floor 1.5x)\n"
        wname
        (Engine.accel_swar_states ea)
        (100. *. swar_ratio) swar_speedup;
      if swar_speedup < 1.5 then begin
        Printf.eprintf
          "swar check: %s: SWAR-vs-bitmap speedup %.2fx below the 1.5x floor\n"
          wname swar_speedup;
        exit 1
      end)
    checks;
  print_endline "  swar check passed"
