(* BPE at vocabulary scale: the merge-table→DFA compiler against the
   reference merge-loop encoder.

   Hard checks, not just reporting: the vendored vocabulary must equal the
   trainer's output, pass the munch-consistency audit, analyze to a small
   finite max-TND, and the DFA engine's token ids must be byte-identical
   to the reference encoder on every input — batch AND chunked through
   Stream_tokenizer, and a cold 4 KiB run must hold the TE DFA under
   3 KiB per materialized powerstate and allocate under 60 % of the words
   per powerstate that the boxed layout did. Throughput mode then reports MB/s
   of both sides and the table footprint. Scalars go via
   STREAMTOK_BENCH_STATS into BENCH_bpe.json. *)

open Streamtok

let vocab_path = "test/vocab/mini.tiktoken"

let load_vocab () =
  match Bpe.Vocab.load_file vocab_path with
  | Ok v -> v
  | Error e ->
      Printf.eprintf "bpe bench: %s: %s (run from the repo root)\n" vocab_path e;
      exit 1

let engine_ids e input =
  let ids = ref [] in
  (match Engine.run_string e input ~emit:(fun ~pos:_ ~len:_ ~rule -> ids := rule :: !ids) with
  | Engine.Finished -> ()
  | Engine.Failed { offset; _ } ->
      Printf.eprintf "bpe bench: munch failed at %d on a byte-complete vocab\n"
        offset;
      exit 1);
  List.rev !ids

let stream_ids e input chunk =
  let ids = ref [] in
  let st = Stream_tokenizer.create e ~emit:(fun _lex rule -> ids := rule :: !ids) in
  let n = String.length input in
  let pos = ref 0 in
  while !pos < n do
    let len = min chunk (n - !pos) in
    Stream_tokenizer.feed st input !pos len;
    pos := !pos + len
  done;
  (match Stream_tokenizer.finish st with
  | Engine.Finished -> ()
  | Engine.Failed _ ->
      Printf.eprintf "bpe bench: chunked munch failed\n";
      exit 1);
  List.rev !ids

let check_parity v e input =
  let expected = Bpe.Encoder.encode v input in
  let batch = engine_ids e input in
  if batch <> expected then begin
    Printf.eprintf "bpe bench: batch ids differ from the merge loop\n";
    exit 1
  end;
  List.iter
    (fun chunk ->
      if stream_ids e input chunk <> expected then begin
        Printf.eprintf "bpe bench: %d-byte-chunk ids differ from the merge loop\n"
          chunk;
        exit 1
      end)
    [ 1; 7; 4096 ];
  List.length expected

(* A powerstate costs its transition row (257 int32 cells on the mini
   vocabulary), its emit row and a few dozen member ids, about 2.2 KB at
   the doubled capacity; storing the powerset densely would cost 85 KB on
   its own. *)
let te_bytes_per_state_cap = 3072

(* Words allocated (minor plus direct major) per materialized powerstate
   by the cold 4 KiB run, at the layout this gate came in with: int
   transition cells and boxed emit words in OCaml arrays, each doubling
   rebuilt by [Array.make] + [Array.blit]. Nearly all of it is growth, so
   the figure tracks the bytes every doubling copies. The gate fails above
   60 % of it; a word count does not depend on the host's speed. *)
let te_words_per_state_before = 1043.5

let record name v =
  Bench_common.record_result ~experiment:"bpe" ~name
    ~labels:[ ("vocab", "mini") ]
    v

let run ?(throughput = true) () =
  Bench_common.pp_header
    "BPE: merge-table\xe2\x86\x92DFA engine vs the reference merge-loop encoder";

  let v = load_vocab () in
  if Bpe.Vocab.tokens v <> Bpe.Vocab.tokens (Bpe.Trainer.mini ()) then begin
    Printf.eprintf
      "bpe bench: %s drifted from Trainer.mini () — regenerate with \
       `streamtok bpe train --mini -o %s`\n"
      vocab_path vocab_path;
    exit 1
  end;

  let t0 = Unix.gettimeofday () in
  (match Bpe.Compiler.audit v with
  | Ok () -> ()
  | Error w ->
      Printf.eprintf "bpe bench: vendored vocab inconsistent: %s\n"
        (Bpe.Compiler.witness_to_string w);
      exit 1);
  let audit_s = Unix.gettimeofday () -. t0 in

  let d =
    match Bpe.Compiler.dfa ~audit:false v with
    | Ok d -> d
    | Error e ->
        Printf.eprintf "bpe bench: %s\n" e;
        exit 1
  in
  let k, e, footprint =
    match Engine.compile_timed d with
    | Error Engine.Unbounded_tnd ->
        Printf.eprintf "bpe bench: finite vocabulary analyzed as unbounded\n";
        exit 1
    | Ok (e, cs) ->
        (match cs.Engine.max_tnd with
        | Tnd.Finite k when k <= 16 -> k
        | Tnd.Finite k ->
            Printf.eprintf "bpe bench: max-TND %d above the sanity cap\n" k;
            exit 1
        | Tnd.Infinite -> assert false),
        e,
        cs.Engine.footprint_bytes
  in
  Printf.printf
    "  vocab %d tokens -> DFA %d states, max-TND %d, audit %.2fs, %d-byte tables\n"
    (Bpe.Vocab.size v) (Dfa.size d) k audit_s footprint;
  record "tokens" (float_of_int (Bpe.Vocab.size v));
  record "dfa_states" (float_of_int (Dfa.size d));
  record "max_tnd" (float_of_int k);
  record "audit_seconds" audit_s;
  record "footprint_bytes" (float_of_int footprint);

  (* parity corpus: training-distribution text plus adversarial shapes *)
  let rng = Prng.create 0xb9eb9eL in
  let inputs =
    Bpe.Trainer.gen_corpus rng 65536
    :: String.init 512 (fun _ -> Char.chr (Prng.int rng 256))
    :: String.make 2048 'e'
    :: List.init 40 (fun _ ->
           Bpe.Trainer.gen_corpus rng (1 + Prng.int rng 300))
  in
  let tokens =
    List.fold_left (fun acc input -> acc + check_parity v e input) 0 inputs
  in
  Printf.printf
    "  parity: %d inputs, %d tokens, engine == merge loop (batch + chunked)\n"
    (List.length inputs) tokens;
  record "parity_inputs" (float_of_int (List.length inputs));

  (* TE memory gate: a cold 4 KiB corpus run on a fresh engine. Bytes per
     powerstate is the TE DFA's own allocated-bytes count over the
     powerstates the run materialized — a count, not a timing, so the gate
     is free of timing noise. Warm-up is the cold run's time less a warm
     re-run of the same text. *)
  let cold =
    match Engine.compile d with Ok e -> e | Error _ -> assert false
  in
  let text = Bpe.Trainer.gen_corpus (Prng.create 7L) 4096 in
  let timed_run () =
    let t0 = Unix.gettimeofday () in
    ignore (Engine.run_string cold text ~emit:(fun ~pos:_ ~len:_ ~rule:_ -> ()));
    Unix.gettimeofday () -. t0
  in
  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let w0 = words () in
  let t_cold = timed_run () in
  let cold_words = words () -. w0 in
  let t_warm = timed_run () in
  let te = Option.get (Engine.Internal.te_dfa cold) in
  let te_states = Te_dfa.num_states te in
  let per_state = Te_dfa.bytes te / te_states in
  let words_per_state = cold_words /. float_of_int te_states in
  Printf.printf
    "  te dfa: cold 4 KiB run -> %d powerstates, %d bytes each, warm-up %.3fs\n"
    te_states per_state (t_cold -. t_warm);
  Printf.printf
    "  te dfa: %.1f words allocated per powerstate  (before %.1f, bound %.1f)\n"
    words_per_state te_words_per_state_before
    (0.6 *. te_words_per_state_before);
  record "te_states" (float_of_int te_states);
  record "te_warmup_s" (t_cold -. t_warm);
  record "te_bytes_per_state" (float_of_int per_state);
  record "te_words_per_state" words_per_state;
  if per_state > te_bytes_per_state_cap then begin
    Printf.eprintf "bpe bench: %d TE bytes per powerstate, above the %d cap\n"
      per_state te_bytes_per_state_cap;
    exit 1
  end;
  if words_per_state > 0.6 *. te_words_per_state_before then begin
    Printf.eprintf
      "bpe bench: %.1f words allocated per TE powerstate, above the %.1f \
       bound\n"
      words_per_state
      (0.6 *. te_words_per_state_before);
    exit 1
  end;

  if throughput then begin
    let input = Bpe.Trainer.gen_corpus (Prng.create 0xfa57L) (4 * 1024 * 1024) in
    let mb = float_of_int (String.length input) /. (1024. *. 1024.) in
    let t_dfa =
      Bench_common.time_best ~repeats:5 (fun () ->
          Engine.run_string e input ~emit:(fun ~pos:_ ~len:_ ~rule:_ -> ()))
    in
    let t_merge =
      Bench_common.time_best ~repeats:3 (fun () -> Bpe.Encoder.encode v input)
    in
    let dfa_mb_s = mb /. t_dfa and merge_mb_s = mb /. t_merge in
    record "dfa_mb_s" dfa_mb_s;
    record "merge_mb_s" merge_mb_s;
    record "speedup" (dfa_mb_s /. merge_mb_s);
    Printf.printf "  %-12s %8.1f MB/s\n" "dfa-engine" dfa_mb_s;
    Printf.printf "  %-12s %8.1f MB/s   (%.1fx)\n" "merge-loop" merge_mb_s
      (dfa_mb_s /. merge_mb_s);
    (* the point of compiling at all: the DFA side must not lose *)
    if dfa_mb_s < merge_mb_s then begin
      Printf.eprintf "bpe bench: DFA engine slower than the merge loop\n";
      exit 1
    end
  end
