(* streamtok: command-line front end.

   Subcommands:
     list                          list built-in grammars
     analyze  <grammar>            static analysis (sizes, max-TND, witness)
     stats    <grammar>            compile-time analysis as machine-readable JSON
     tokenize <grammar> [FILE]     tokenize a file or stdin (--ids: token ids)
     bpe      analyze|train        BPE vocabularies: audit + max-TND, training
     gen      <format>             generate a synthetic workload
     fuzz     [REPRO...]           differential fuzzing / repro replay
     convert  <app> [FILE]         run an RQ5 application pipeline

   `tokenize` and `convert` accept --stats[=FILE] / --stats-format=json|prom
   to dump run-time statistics (see README §Observability for the schema). *)

open Streamtok
open Cmdliner

let read_all ic =
  let buf = Buffer.create 65536 in
  let chunk = Bytes.create 65536 in
  let rec go () =
    let n = input ic chunk 0 (Bytes.length chunk) in
    if n > 0 then begin
      Buffer.add_subbytes buf chunk 0 n;
      go ()
    end
  in
  go ();
  Buffer.contents buf

let read_input = function
  | None -> read_all stdin
  | Some path ->
      let ic = open_in_bin path in
      let s = read_all ic in
      close_in ic;
      s

(* A grammar argument is a built-in name, an inline grammar prefixed with
   '@' (rules separated by top-level ';' — a ';' inside a character class
   stays in its rule), a 'bpe:<vocab-file>' spec (audited and compiled to
   literal rules, rule index = token id), or a path to a grammar file.
   Names, inline bodies and ad-hoc sources go through Registry.resolve /
   Grammar.of_* — the same validated parse path the serve OPEN frame uses
   — so a malformed rule is always an Error naming it. Only the file
   lookups are CLI-local. *)
let bpe_spec spec =
  if String.length spec > 4 && String.sub spec 0 4 = "bpe:" then
    Some (String.sub spec 4 (String.length spec - 4))
  else None

let resolve_grammar spec =
  match bpe_spec spec with
  | Some path ->
      Result.bind (Bpe.Vocab.load_file path) (fun v ->
          Result.map
            (fun _ ->
              Bpe.Compiler.grammar_of_vocab
                ~name:("bpe:" ^ Filename.basename path)
                v)
            (Bpe.Compiler.admit v))
      |> Result.map_error (fun e -> path ^ ": " ^ e)
  | None -> (
      match Registry.find spec with
      | Some g -> Ok g
      | None ->
          if (String.length spec = 0 || spec.[0] <> '@') && Sys.file_exists spec
          then
            read_input (Some spec)
            |> Grammar.of_source ~name:(Filename.basename spec)
                 ~description:("grammar file " ^ spec)
            |> Result.map_error (fun e -> spec ^ ": " ^ e)
          else Registry.resolve spec)

let grammar_conv =
  let parse spec =
    match resolve_grammar spec with Ok g -> Ok g | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, fun fmt g -> Format.pp_print_string fmt g.Grammar.name)

let grammar_arg =
  Arg.(
    required
    & pos 0 (some grammar_conv) None
    & info [] ~docv:"GRAMMAR" ~doc:"Built-in grammar name, grammar file, or '@rule;rule'.")

(* ---- observability plumbing ---- *)

let stats_dest_arg =
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "stats" ] ~docv:"FILE"
        ~doc:
          "Write run statistics to $(docv) ('-' or no value: stderr, \
           keeping stdout clean for tokens). $(b,tokenize) records them in-process \
           with the instrumented runner and $(b,convert) from its token \
           stream; $(b,client) writes the daemon's pool-wide STATS \
           document.")

let stats_format_arg =
  Arg.(
    value
    & opt (enum [ ("json", `Json); ("prom", `Prom) ]) `Json
    & info [ "stats-format" ] ~docv:"FMT"
        ~doc:"Statistics format: compact $(b,json) or $(b,prom)etheus text.")

let write_stats ~dest ~format ~rule_name stats =
  let text =
    match format with
    | `Json -> Run_stats.to_json_string ~rule_name stats ^ "\n"
    | `Prom -> Run_stats.to_prometheus ~rule_name stats
  in
  match dest with
  | "-" -> output_string stderr text
  | path -> (
      match open_out path with
      | oc ->
          output_string oc text;
          close_out oc
      | exception Sys_error msg ->
          Printf.eprintf "error: cannot write stats: %s\n" msg;
          exit 1)

(* Uniform lexical-failure report: offset, resolved position, and a bounded
   preview of the untokenizable remainder — on stderr, so scripts can both
   detect the failure (exit 1) and capture the diagnostics. *)
let report_failure input offset pending =
  let loc = Location.resolve (Location.of_string input) offset in
  let preview =
    if String.length pending <= 32 then Printf.sprintf "%S" pending
    else Printf.sprintf "%S..." (String.sub pending 0 32)
  in
  Printf.eprintf "error: untokenizable input at offset %d (%s)\n" offset
    (Format.asprintf "%a" Location.pp loc);
  Printf.eprintf "pending (%d bytes): %s\n" (String.length pending) preview

(* ---- list ---- *)

let list_cmd =
  let run () =
    List.iter
      (fun g ->
        Printf.printf "%-14s %2d rules  %s\n" g.Grammar.name
          (Grammar.num_rules g) g.Grammar.description)
      Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List built-in grammars")
    Term.(const run $ const ())

(* ---- analyze ---- *)

let analyze_cmd =
  let explain =
    Arg.(value & flag & info [ "explain" ] ~doc:"Print the Fig. 3 frontier trace.")
  in
  let run g explain =
    let nfa_size = Grammar.nfa_size g in
    let d = Grammar.dfa g in
    Printf.printf "grammar:   %s (%d rules)\n" g.Grammar.name
      (Grammar.num_rules g);
    Printf.printf "NFA size:  %d\n" nfa_size;
    Printf.printf "DFA size:  %d\n" (Dfa.size d);
    (* the trace keeps both frontiers of every round: O(|A|²) memory *)
    let result, trace =
      if explain then Tnd.max_tnd_trace d else (Tnd.max_tnd d, [])
    in
    Printf.printf "max-TND:   %s\n" (Tnd.result_to_string result);
    (match result with
    | Tnd.Finite k when k > 0 -> (
        match Tnd.witness d k with
        | Some (u, v) ->
            Printf.printf "witness:   %S -> %S (distance %d)\n" u v
              (String.length v - String.length u)
        | None -> ())
    | Tnd.Infinite -> (
        match Tnd.pumped_witness d with
        | Some { Tnd.u; x; y; z } ->
            Printf.printf
              "witness:   %S -> %S %S (%S)^n %S (distance %d + %d*n, any n >= \
               0)\n"
              u u x y z
              (String.length x + String.length z)
              (String.length y)
        | None -> ())
    | _ -> ());
    (match result with
    | Tnd.Finite k ->
        Printf.printf "streaming: StreamTok applies (lookahead K = %d)\n" k
    | Tnd.Infinite ->
        print_endline
          "streaming: unbounded lookahead; StreamTok does not apply \
           (use the offline ExtOracle or flex-style backtracking)");
    if explain then begin
      print_endline "\nFig. 3 trace (dist, S, T, test):";
      List.iter
        (fun r ->
          Printf.printf "  dist=%-3d S={%s} T={%s} test=%b\n" r.Tnd.dist
            (String.concat "," (List.map string_of_int r.Tnd.s))
            (String.concat "," (List.map string_of_int r.Tnd.t))
            r.Tnd.test)
        trace
    end
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Run the max-TND static analysis on a grammar")
    Term.(const run $ grammar_arg $ explain)

(* ---- stats ---- *)

let stats_cmd =
  let run g =
    let open Obs in
    let r = Metrics.Registry.create () in
    let gauge name help v =
      Metrics.Gauge.set_int (Metrics.Registry.gauge r ~help name) v
    in
    let span name help dt = Metrics.Span.add (Metrics.Registry.span r ~help name) dt in
    gauge "rules" "grammar rules" (Grammar.num_rules g);
    gauge "nfa_states" "rule-tagged Thompson NFA states" (Grammar.nfa_size g);
    let d, dfa_seconds = Timer.time_it (fun () -> Grammar.dfa g) in
    gauge "dfa_states" "minimized tokenization DFA states" (Dfa.size d);
    span "dfa_seconds" "subset construction + Moore minimization" dfa_seconds;
    let result, compile_seconds =
      Timer.time_it (fun () -> Engine.compile_timed d)
    in
    let streaming =
      match result with
      | Ok (e, cs) ->
          gauge "max_tnd" "maximum token neighbor distance"
            (match cs.Engine.max_tnd with Tnd.Finite k -> k | Tnd.Infinite -> -1);
          gauge "lookahead_k" "engine lookahead window" (Engine.k e);
          gauge "te_states" "token-extension powerstates materialized"
            cs.Engine.te_states;
          gauge "k1_table_bytes" "Fig. 5 maximality table size"
            cs.Engine.k1_table_bytes;
          gauge "footprint_bytes" "run-time tables + lookahead buffer"
            cs.Engine.footprint_bytes;
          gauge "accel_states" "accelerable self-loop (skip-scan) states"
            (Engine.accel_states e);
          gauge "accel_swar_states"
            "accelerable states in the SWAR (64-bit scan) tier"
            (Engine.accel_swar_states e);
          span "analysis_seconds" "max-TND frontier analysis"
            cs.Engine.analysis_seconds;
          span "build_seconds" "engine table construction"
            cs.Engine.build_seconds;
          true
      | Error Engine.Unbounded_tnd ->
          gauge "max_tnd" "maximum token neighbor distance (-1: unbounded)"
            (-1);
          span "analysis_seconds" "max-TND frontier analysis" compile_seconds;
          false
    in
    print_endline
      (Json.to_string
         (Json.Obj
            [
              ("schema", Json.String "streamtok/compile-stats/v1");
              ("grammar", Json.String g.Grammar.name);
              ("streaming", Json.Bool streaming);
              ("metrics", Export.registry_to_json r);
            ]))
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Dump the compile-time analysis (sizes, max-TND, footprint, phase \
          timings) as machine-readable JSON")
    Term.(const run $ grammar_arg)

(* ---- tokenize ---- *)

let tokenize_cmd =
  let file =
    Arg.(value & pos 1 (some string) None & info [] ~docv:"FILE" ~doc:"Input file (default stdin).")
  in
  let count_only =
    Arg.(value & flag & info [ "count" ] ~doc:"Print token counts per rule only.")
  in
  let ids_only =
    Arg.(
      value & flag
      & info [ "ids" ]
          ~doc:
            "Print the rule index (= BPE token id for $(b,bpe:) grammars), \
             one per line, instead of rule names and lexemes.")
  in
  let engine_flag =
    Arg.(
      value
      & opt (enum [ ("streamtok", `Streamtok); ("flex", `Flex) ]) `Streamtok
      & info [ "engine" ] ~doc:"Tokenizer: streamtok (default) or flex.")
  in
  let run g file count_only ids_only engine stats_dest stats_format =
    let input = read_input file in
    let d = Grammar.dfa g in
    let counts = Array.make (Grammar.num_rules g) 0 in
    let print_token ~pos ~len ~rule =
      if count_only then counts.(rule) <- counts.(rule) + 1
      else if ids_only then Printf.printf "%d\n" rule
      else
        Printf.printf "%-12s %S\n" (Grammar.rule_name g rule)
          (String.sub input pos len)
    in
    (* `trace record --heat` forces the instrumented runner (with state
       heat on) even without --stats, so the recording can carry a heat
       table. *)
    let want_heat = !Trace.heat_requested in
    let stats =
      if stats_dest <> None || want_heat then Some (Run_stats.create ())
      else None
    in
    (match stats with
    | Some st when want_heat ->
        Run_stats.enable_state_heat st ~states:(Dfa.size d)
    | _ -> ());
    let ok =
      match engine with
      | `Streamtok -> (
          match Engine.compile d with
          | Error Engine.Unbounded_tnd ->
              prerr_endline
                "error: grammar has unbounded max-TND; use --engine flex";
              exit 2
          | Ok e -> (
              let outcome =
                match stats with
                | None -> Engine.run_string_traced e input ~emit:print_token
                | Some st ->
                    Engine.run_string_instrumented e input ~stats:st
                      ~emit:print_token
              in
              (match stats with
              | Some st when want_heat ->
                  Trace.Heat.publish
                    (Engine.heat_table ~label:g.Grammar.name e st)
              | _ -> ());
              match outcome with
              | Engine.Finished -> true
              | Engine.Failed { offset; pending } ->
                  report_failure input offset pending;
                  false))
      | `Flex -> (
          let fm = Flex_model.compile d in
          let emit =
            match stats with
            | None -> print_token
            | Some st ->
                fun ~pos ~len ~rule ->
                  Run_stats.record_token st ~rule ~len;
                  print_token ~pos ~len ~rule
          in
          let (outcome, _), dt =
            Timer.time_it (fun () -> Flex_model.run fm input ~emit)
          in
          (match stats with
          | Some st ->
              Run_stats.add_chunk st (String.length input);
              Run_stats.add_run_seconds st dt
          | None -> ());
          match outcome with
          | Backtracking.Finished -> true
          | Backtracking.Failed { offset; pending } ->
              (match stats with
              | Some st -> Run_stats.record_failure st
              | None -> ());
              report_failure input offset pending;
              false)
    in
    if count_only then
      Array.iteri
        (fun rule c ->
          if c > 0 then Printf.printf "%-12s %d\n" (Grammar.rule_name g rule) c)
        counts;
    (match (stats, stats_dest) with
    | Some st, Some dest ->
        write_stats ~dest ~format:stats_format ~rule_name:(Grammar.rule_name g)
          st
    | _ -> ());
    if not ok then exit 1
  in
  Cmd.v (Cmd.info "tokenize" ~doc:"Tokenize a file or stdin")
    Term.(
      const run $ grammar_arg $ file $ count_only $ ids_only $ engine_flag
      $ stats_dest_arg $ stats_format_arg)

(* ---- bpe ---- *)

(* Loads + audits are CLI-local so `bpe analyze` can show partial results
   (vocab stats, the witness) where the grammar_conv path would just
   abort with the combined error string. *)
let load_vocab path =
  match Bpe.Vocab.load_file path with
  | Ok v -> v
  | Error e ->
      Printf.eprintf "error: %s: %s\n" path e;
      exit 2

let bpe_analyze_cmd =
  let vocab_file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"VOCAB"
          ~doc:"Vocabulary file: tiktoken lines ('<base64> <rank>') or a \
                JSON object mapping token strings to ids.")
  in
  let max_states =
    Arg.(
      value
      & opt int Bpe.Compiler.default_max_states
      & info [ "max-states" ] ~docv:"N"
          ~doc:"Abort subset construction past $(docv) DFA states.")
  in
  let run path max_states =
    let v = load_vocab path in
    Printf.printf "vocab:     %s (%d tokens, longest %d bytes)\n"
      (Filename.basename path) (Bpe.Vocab.size v)
      (Bpe.Vocab.max_token_len v);
    (match Bpe.Compiler.admit v with
    | Error e ->
        Printf.printf "audit:     %s\n" e;
        print_endline
          "           (the greedy DFA would disagree with the merge loop; \
           drop the long token or retrain)";
        exit 1
    | Ok _ ->
        print_endline
          "audit:     munch-consistent (greedy DFA = merge loop on every \
           input)");
    let d =
      match Bpe.Compiler.dfa ~audit:false ~max_states v with
      | Ok d -> d
      | Error e ->
          Printf.eprintf "error: %s\n" e;
          exit 1
    in
    Printf.printf "DFA size:  %d\n" (Dfa.size d);
    let compiled = Engine.compile_timed d in
    let result =
      match compiled with
      | Ok (_, cs) -> cs.Engine.max_tnd
      | Error Engine.Unbounded_tnd -> Tnd.Infinite
    in
    Printf.printf "max-TND:   %s\n" (Tnd.result_to_string result);
    (match result with
    | Tnd.Finite k when k > 0 -> (
        match Tnd.witness d k with
        | Some (u, w) ->
            Printf.printf "witness:   %S -> %S (distance %d)\n" u w
              (String.length w - String.length u)
        | None -> ())
    | _ -> ());
    match compiled with
    | Error Engine.Unbounded_tnd ->
        (* Unreachable for a finite vocabulary of literals, but keep the
           same shape as `analyze` rather than asserting. *)
        print_endline "streaming: unbounded lookahead; StreamTok does not apply";
        exit 1
    | Ok (e, cs) ->
        Printf.printf "streaming: StreamTok applies (lookahead K = %d)\n"
          (Engine.k e);
        Printf.printf "footprint: %d bytes (engine tables)\n"
          cs.Engine.footprint_bytes
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Audit a BPE vocabulary for munch-consistency and run the max-TND \
          analysis on its tokenization DFA")
    Term.(const run $ vocab_file $ max_states)

let bpe_train_cmd =
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Output vocabulary file (tiktoken format).")
  in
  let tokens =
    Arg.(
      value & opt int 512
      & info [ "tokens" ] ~docv:"N" ~doc:"Target vocabulary size.")
  in
  let seed =
    Arg.(
      value & opt int 0x5eed
      & info [ "seed" ] ~docv:"S" ~doc:"PRNG seed for the synthetic corpus.")
  in
  let corpus_bytes =
    Arg.(
      value & opt int 131072
      & info [ "corpus-bytes" ] ~docv:"B"
          ~doc:"Synthetic training corpus size in bytes.")
  in
  let mini =
    Arg.(
      value & flag
      & info [ "mini" ]
          ~doc:
            "Reproduce the vendored test vocabulary \
             (test/vocab/mini.tiktoken) exactly, ignoring the other knobs.")
  in
  let run out tokens seed corpus_bytes mini =
    let v =
      if mini then Bpe.Trainer.mini ()
      else
        let rng = Prng.create (Int64.of_int seed) in
        let corpus = Bpe.Trainer.gen_corpus rng corpus_bytes in
        let v = Bpe.Trainer.train ~corpus ~n_tokens:tokens in
        match Bpe.Trainer.repair v with
        | Ok v -> v
        | Error e ->
            Printf.eprintf "error: %s\n" e;
            exit 1
    in
    let oc = open_out_bin out in
    output_string oc (Bpe.Vocab.to_tiktoken v);
    close_out oc;
    Printf.printf "wrote %s (%d tokens, munch-consistent)\n" out
      (Bpe.Vocab.size v)
  in
  Cmd.v
    (Cmd.info "train"
       ~doc:
         "Train a small BPE vocabulary on a seeded synthetic corpus and \
          repair it to munch-consistency (for tests and demos)")
    Term.(const run $ out $ tokens $ seed $ corpus_bytes $ mini)

let bpe_cmd =
  Cmd.group
    (Cmd.info "bpe"
       ~doc:
         "BPE vocabularies as grammars: consistency audit, max-TND \
          analysis, deterministic training")
    [ bpe_analyze_cmd; bpe_train_cmd ]

(* ---- validate ---- *)

let validate_cmd =
  let file =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"JSON file (default stdin).")
  in
  let run file =
    let input = read_input file in
    let p = Tokenizer_backend.prepare Tokenizer_backend.Streamtok Formats.json in
    let ts = Token_stream.create () in
    (match Token_stream.fill p input ts with
    | Ok () -> ()
    | Error offset ->
        let loc = St_util.Location.resolve (St_util.Location.of_string input) offset in
        Printf.printf "invalid: lexical error at %s (offset %d)\n"
          (Format.asprintf "%a" St_util.Location.pp loc)
          offset;
        exit 1);
    let v = Json_validate.create () in
    match Json_validate.validate v ts with
    | Json_validate.Valid ->
        Printf.printf "valid (max nesting depth %d, %d tokens)
"
          (Json_validate.max_depth v)
          (Token_stream.length ts)
    | Json_validate.Invalid { at_token; reason } ->
        if at_token >= 0 && at_token < Token_stream.length ts then begin
          let off = Token_stream.pos ts at_token in
          let loc = St_util.Location.resolve (St_util.Location.of_string input) off in
          Printf.printf "invalid: %s at %s (offset %d)
" reason
            (Format.asprintf "%a" St_util.Location.pp loc)
            off
        end
        else Printf.printf "invalid: %s
" reason;
        exit 1
  in
  Cmd.v
    (Cmd.info "validate" ~doc:"Streaming JSON syntax validation")
    Term.(const run $ file)

(* ---- gen ---- *)

let gen_cmd =
  let format =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FORMAT"
          ~doc:"json, csv, tsv, xml, yaml, fasta, dns-zone, log, \
                json-records, csv-typed, sql-inserts, or a log format name.")
  in
  let bytes =
    Arg.(value & opt int 1_000_000 & info [ "bytes" ] ~doc:"Target size.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  let run format bytes seed =
    let seed = Int64.of_int seed in
    let data =
      match format with
      | "json-records" -> Gen_data.json_records ~seed ~target_bytes:bytes ()
      | "csv-typed" -> Gen_data.csv_typed ~seed ~target_bytes:bytes ()
      | "sql-inserts" -> Gen_data.sql_inserts ~seed ~target_bytes:bytes ()
      | f when List.mem f Gen_logs.formats ->
          Gen_logs.generate ~format:f ~seed ~target_bytes:bytes ()
      | f -> (
          match Gen_data.by_name f with
          | Some gen -> gen ~seed ~target_bytes:bytes ()
          | None ->
              Printf.eprintf "unknown format %s\n" f;
              exit 2)
    in
    print_string data
  in
  Cmd.v (Cmd.info "gen" ~doc:"Generate a synthetic workload on stdout")
    Term.(const run $ format $ bytes $ seed)

(* ---- fuzz ---- *)

let fuzz_cmd =
  let files =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"REPRO"
          ~doc:"Repro files to replay instead of fuzzing (see test/corpus/).")
  in
  let iters =
    Arg.(
      value
      & opt int Fuzz.Driver.default.Fuzz.Driver.max_iters
      & info [ "iters" ] ~doc:"Grammar iterations.")
  in
  let seconds =
    Arg.(
      value
      & opt float Fuzz.Driver.default.Fuzz.Driver.max_seconds
      & info [ "seconds" ] ~doc:"Wall-clock budget (0 = unlimited).")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"PRNG seed.") in
  let max_input =
    Arg.(
      value
      & opt int Fuzz.Driver.default.Fuzz.Driver.max_input_bytes
      & info [ "max-input" ] ~doc:"Maximum generated input size in bytes.")
  in
  let corpus_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus-dir" ] ~docv:"DIR"
          ~doc:"Write shrunk repro files for any mismatch into $(docv).")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "Quick deterministic preset (60 iterations, no time limit, \
             inputs ≤ 96 bytes) for CI gates.")
  in
  let inject_bug =
    Arg.(
      value & flag
      & info [ "inject-bug" ]
          ~doc:
            "Self-test: make the batch engine drop its final token; the \
             run must find and shrink the mismatch.")
  in
  let report =
    Arg.(
      value
      & opt ~vopt:(Some "-") (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:
            "Emit the streamtok/fuzz-report/v1 JSON document to $(docv) \
             (or stdout).")
  in
  let print_mismatch i (m : Fuzz.Differential.mismatch) =
    Printf.printf "mismatch %d: %s\n" i (Fuzz.Differential.show_mismatch m)
  in
  let replay files inject_bug =
    let failures = ref 0 in
    List.iter
      (fun path ->
        match Fuzz.Repro.load path with
        | Error msg ->
            incr failures;
            Printf.printf "%s: load error: %s\n" path msg
        | Ok repro -> (
            let r = Fuzz.Repro.check ~inject_bug repro in
            match r.Fuzz.Differential.mismatches with
            | [] ->
                Printf.printf "%s: ok (%d subjects%s)\n" path
                  r.Fuzz.Differential.subjects
                  (if r.Fuzz.Differential.streaming then "" else ", unbounded")
            | ms ->
                incr failures;
                Printf.printf "%s: %d mismatches\n" path (List.length ms);
                List.iteri print_mismatch ms))
      files;
    if !failures > 0 then exit 1
  in
  let run files iters seconds seed max_input corpus_dir smoke inject_bug report
      =
    if files <> [] then replay files inject_bug
    else begin
      let config =
        {
          Fuzz.Driver.default with
          Fuzz.Driver.seed;
          max_iters = (if smoke then 60 else iters);
          max_seconds = (if smoke then 0. else seconds);
          max_input_bytes = (if smoke then 96 else max_input);
          corpus_dir;
          inject_bug;
        }
      in
      let r = Fuzz.Driver.run config in
      print_endline (Fuzz.Driver.summary r);
      List.iteri
        (fun i (f : Fuzz.Driver.found) ->
          Printf.printf "mismatch %d: subject %s\n  grammar: %s\n  input: %S\n"
            i f.Fuzz.Driver.subject
            (String.concat " | "
               (List.map Regex.to_string f.Fuzz.Driver.rules))
            f.Fuzz.Driver.input;
          match f.Fuzz.Driver.repro_path with
          | Some p -> Printf.printf "  repro: %s\n" p
          | None -> ())
        r.Fuzz.Driver.found;
      (match report with
      | None -> ()
      | Some dest ->
          let doc = Obs.Json.to_string (Fuzz.Driver.report_to_json r) in
          if dest = "-" then print_endline doc
          else begin
            let oc = open_out dest in
            output_string oc doc;
            output_char oc '\n';
            close_out oc
          end);
      if r.Fuzz.Driver.found <> [] then exit 1
    end
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential fuzzing of all tokenizer implementations")
    Term.(
      const run $ files $ iters $ seconds $ seed $ max_input $ corpus_dir
      $ smoke $ inject_bug $ report)

(* ---- serve / client ---- *)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let serve_cmd =
  let max_sessions =
    Arg.(
      value
      & opt int Serve.Server.default_config.Serve.Server.max_sessions
      & info [ "max-sessions" ] ~docv:"N"
          ~doc:
            "Session-table capacity; above it new connections get a \
             retryable capacity error.")
  in
  let idle_timeout =
    Arg.(
      value
      & opt float Serve.Server.default_config.Serve.Server.idle_timeout
      & info [ "idle-timeout" ] ~docv:"S"
          ~doc:"Evict sessions idle for more than $(docv) seconds (0: never).")
  in
  let domains =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Worker count. Worker 0 runs in the main domain and owns the \
             listening socket; it hands connections round-robin to itself \
             and $(docv)-1 spawned worker domains, so 1 (default) spawns \
             none. The engine cache is shared (one compile per grammar \
             daemon-wide) and STATS answers for every worker. \
             --max-sessions times $(docv) must stay below FD_SETSIZE \
             (1024).")
  in
  let run socket max_sessions idle_timeout domains =
    let config =
      { Serve.Server.default_config with max_sessions; idle_timeout }
    in
    let on_listening () =
      if domains > 1 then
        Printf.printf "listening on %s (%d domains)\n%!" socket domains
      else Printf.printf "listening on %s\n%!" socket
    in
    match Serve.Shard.serve ~config ~on_listening ~domains ~socket () with
    | () -> ()
    | exception Unix.Unix_error (e, _, arg) ->
        Printf.eprintf "error: %s: %s\n" arg (Unix.error_message e);
        exit 1
    | exception Invalid_argument msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 2
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the tokenization daemon: one session per connection, engines \
          shared across same-grammar sessions (and across --domains worker \
          domains), SIGTERM drains and exits")
    Term.(const run $ socket_arg $ max_sessions $ idle_timeout $ domains)

let client_cmd =
  let grammar_spec =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"GRAMMAR"
          ~doc:
            "Built-in grammar name, grammar file, 'bpe:<vocab-file>', or \
             '@rule;rule' — files are read here and sent to the daemon as \
             grammar source (vocab files as an OPEN_BPE frame).")
  in
  let file =
    Arg.(
      value
      & pos 1 (some string) None
      & info [] ~docv:"FILE" ~doc:"Input file (default: stream from stdin).")
  in
  let ids =
    Arg.(
      value & flag
      & info [ "ids" ]
          ~doc:
            "BPE sessions only: request token ids (IDS frames), printed one \
             per line. Requires a $(b,bpe:) grammar spec.")
  in
  let run socket spec file ids stats_dest stats_format =
    (* The daemon never touches client paths: resolve files to source
       locally, everything else is sent verbatim for Registry.resolve.
       A bpe: spec becomes an OPEN_BPE frame carrying the vocab text. *)
    let open_request =
      match bpe_spec spec with
      | Some path ->
          Some (Serve.Wire.Open_bpe { ids; vocab = read_input (Some path) })
      | None ->
          if ids then begin
            prerr_endline "error: --ids requires a bpe:<vocab-file> grammar";
            exit 2
          end;
          None
    in
    let grammar =
      if Registry.find spec <> None then spec
      else if (String.length spec = 0 || spec.[0] <> '@') && Sys.file_exists spec
      then begin
        let src = read_input (Some spec) in
        if String.contains src '\n' then src else src ^ "\n"
      end
      else spec
    in
    let input =
      match file with
      | None -> `Fd Unix.stdin
      | Some path -> `String (read_input (Some path))
    in
    let stats =
      Option.map
        (fun _ ->
          match stats_format with
          | `Json -> Serve.Wire.Json
          | `Prom -> Serve.Wire.Prom)
        stats_dest
    in
    let stats_dest =
      match stats_dest with Some "-" | None -> None | Some path -> Some path
    in
    let outcome =
      Serve.Client.run ~socket ~grammar ~input ?open_request ?stats ?stats_dest
        ()
    in
    if outcome.Serve.Client.exit_code <> 0 then exit outcome.Serve.Client.exit_code
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Tokenize through a running daemon (same output as $(b,tokenize))")
    Term.(
      const run $ socket_arg $ grammar_spec $ file $ ids $ stats_dest_arg
      $ stats_format_arg)

(* ---- convert ---- *)

let convert_cmd =
  let app_arg =
    Arg.(
      required
      & pos 0
          (some
             (enum
                [
                  ("log-to-tsv", `Log_to_tsv);
                  ("json-minify", `Json_minify);
                  ("json-to-csv", `Json_to_csv);
                  ("json-to-sql", `Json_to_sql);
                  ("csv-to-json", `Csv_to_json);
                  ("csv-schema", `Csv_schema);
                  ("sql-load", `Sql_load);
                ]))
          None
      & info [] ~docv:"APP" ~doc:"Application pipeline to run.")
  in
  let file =
    Arg.(value & pos 1 (some string) None & info [] ~docv:"FILE" ~doc:"Input file (default stdin).")
  in
  let log_format =
    Arg.(value & opt string "linux" & info [ "format" ] ~doc:"Log format for log-to-tsv.")
  in
  let run app file log_format stats_dest stats_format =
    let input = read_input file in
    let stats = Option.map (fun _ -> Run_stats.create ()) stats_dest in
    (* rule names for the stats export come from the grammar the pipeline
       actually tokenized with *)
    let stats_grammar = ref None in
    let tokenize g =
      stats_grammar := Some g;
      let p = Tokenizer_backend.prepare Tokenizer_backend.Streamtok g in
      let ts = Token_stream.create () in
      let filled, dt = Timer.time_it (fun () -> Token_stream.fill p input ts) in
      (match filled with
      | Ok () -> ()
      | Error offset ->
          (match stats with
          | Some st -> Run_stats.record_failure st
          | None -> ());
          report_failure input offset
            (String.sub input offset (String.length input - offset));
          exit 1);
      (match stats with
      | Some st ->
          Run_stats.add_chunk st (String.length input);
          Run_stats.add_run_seconds st dt;
          for i = 0 to Token_stream.length ts - 1 do
            Run_stats.record_token st ~rule:(Token_stream.rule ts i)
              ~len:(Token_stream.len ts i)
          done
      | None -> ());
      ts
    in
    let out = Buffer.create (String.length input) in
    (match app with
    | `Log_to_tsv ->
        let g =
          match Registry.find log_format with
          | Some g -> g
          | None ->
              Printf.eprintf "unknown log format %s\n" log_format;
              exit 2
        in
        let ts = tokenize g in
        ignore (Log_to_tsv.process (Log_to_tsv.prepare g) input ts out)
    | `Json_minify ->
        let ts = tokenize Formats.json in
        ignore (Json_apps.minify (Json_apps.prepare ()) input ts out)
    | `Json_to_csv ->
        let ts = tokenize Formats.json in
        ignore (Json_apps.to_csv (Json_apps.prepare ()) input ts out)
    | `Json_to_sql ->
        let ts = tokenize Formats.json in
        ignore (Json_apps.to_sql (Json_apps.prepare ()) ~table:"data" input ts out)
    | `Csv_to_json ->
        let ts = tokenize Formats.csv in
        ignore (Csv_apps.to_json (Csv_apps.prepare ()) input ts out)
    | `Csv_schema ->
        let ts = tokenize Formats.csv in
        let schema = Csv_apps.infer_schema (Csv_apps.prepare ()) input ts in
        Array.iter
          (fun (name, ty) ->
            Buffer.add_string out
              (Printf.sprintf "%-20s %s\n" name (Csv_apps.ty_name ty)))
          schema
    | `Sql_load ->
        let ts = tokenize Languages.sql_insert in
        let stats = Sql_apps.load (Sql_apps.prepare ()) input ts in
        Buffer.add_string out
          (Printf.sprintf "statements: %d\nrows: %d\n" stats.Sql_apps.statements
             stats.Sql_apps.rows);
        List.iter
          (fun (t, n) -> Buffer.add_string out (Printf.sprintf "  %-16s %d\n" t n))
          stats.Sql_apps.tables);
    print_string (Buffer.contents out);
    match (stats, stats_dest) with
    | Some st, Some dest ->
        let rule_name =
          match !stats_grammar with
          | Some g -> Grammar.rule_name g
          | None -> string_of_int
        in
        write_stats ~dest ~format:stats_format ~rule_name st
    | _ -> ()
  in
  Cmd.v (Cmd.info "convert" ~doc:"Run an RQ5 application pipeline")
    Term.(
      const run $ app_arg $ file $ log_format $ stats_dest_arg
      $ stats_format_arg)

(* ---- trace ---- *)

(* Forward reference to the whole command group: `trace record` re-enters
   the CLI to run the wrapped command with tracing enabled. Set in main
   before any eval, so Option.get cannot fail at dispatch time. *)
let main_cmd : unit Cmd.t option ref = ref None

let read_trace_file path =
  match open_in_bin path with
  | ic ->
      let s = read_all ic in
      close_in ic;
      s
  | exception Sys_error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1

let write_trace_file ~out ~heat evs =
  match open_out_bin out with
  | oc ->
      output_string oc (Trace.Chrome.to_string ~heat evs);
      close_out oc
  | exception Sys_error msg ->
      Printf.eprintf "error: cannot write trace: %s\n" msg;
      exit 1

let top_arg =
  Arg.(
    value
    & opt int 10
    & info [ "top" ] ~docv:"N" ~doc:"Rows per state-heat table.")

let trace_record_cmd =
  let out_arg =
    Arg.(
      value
      & opt string "trace.json"
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Output file: Chrome trace-event JSON (Perfetto-loadable).")
  in
  let heat_arg =
    Arg.(
      value & flag
      & info [ "heat" ]
          ~doc:
            "Also collect DFA state heat: the wrapped command runs its \
             instrumented engine with per-state visit/skip counters and \
             attaches the top-state tables to the trace.")
  in
  let capacity_arg =
    Arg.(
      value
      & opt int 262144
      & info [ "capacity" ] ~docv:"EVENTS"
          ~doc:
            "Per-domain ring capacity in events; when it overflows the \
             oldest events are dropped (and counted).")
  in
  let rest_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"CMD"
          ~doc:
            "The streamtok command to trace, after $(b,--) — e.g. \
             $(b,trace record -- tokenize json input.json).")
  in
  let run out heat capacity rest =
    if rest = [] then begin
      prerr_endline
        "error: nothing to record; usage: streamtok trace record [-o FILE] \
         [--heat] -- <command> ...";
      exit 2
    end;
    Trace.configure ~capacity_events:capacity;
    Trace.heat_requested := heat;
    Trace.Heat.clear_published ();
    Trace.reset ();
    Trace.set_enabled true;
    (* The wrapped command may exit directly (e.g. tokenize on lexical
       failure); dump from at_exit so the recording survives any exit
       path, and make it idempotent for the normal return. *)
    let dumped = ref false in
    let dump () =
      if not !dumped then begin
        dumped := true;
        Trace.set_enabled false;
        let evs = Trace.events () in
        let heat_tables = Trace.Heat.published () in
        write_trace_file ~out ~heat:heat_tables evs;
        Printf.eprintf "trace: %d events (%d dropped), %d heat table(s) -> %s\n%!"
          (List.length evs) (Trace.dropped ())
          (List.length heat_tables) out
      end
    in
    at_exit dump;
    let argv = Array.of_list ("streamtok" :: rest) in
    let code = Cmd.eval ~argv (Option.get !main_cmd) in
    dump ();
    if code <> 0 then exit code
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:
         "Run a streamtok command with tracing enabled and write the \
          recording")
    Term.(const run $ out_arg $ heat_arg $ capacity_arg $ rest_arg)

let trace_report_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"Recording to summarize (Chrome trace-event JSON).")
  in
  let depth_arg =
    Arg.(
      value
      & opt int 8
      & info [ "depth" ] ~docv:"N" ~doc:"Maximum span-tree depth printed.")
  in
  let run file top depth =
    match Trace.Chrome.of_string (read_trace_file file) with
    | Error msg ->
        Printf.eprintf "error: %s: %s\n" file msg;
        exit 1
    | Ok (evs, heat) ->
        print_string (Trace.Report.to_text ~max_depth:depth (Trace.Report.build evs));
        List.iter
          (fun t -> print_string (Trace.Heat.to_text ~top_n:top t))
          heat
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Fold a recording into an aggregated span tree with per-category \
          wall-time attribution, plus any state-heat tables")
    Term.(const run $ file_arg $ top_arg $ depth_arg)

let trace_cmd =
  Cmd.group
    (Cmd.info "trace"
       ~doc:
         "Record ($(b,trace record -- <cmd>)) and report execution traces; \
          see README §Tracing & profiling")
    [ trace_record_cmd; trace_report_cmd ]

let () =
  let doc = "StreamTok: static analysis for efficient streaming tokenization" in
  let info = Cmd.info "streamtok" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [
        list_cmd; analyze_cmd; stats_cmd; tokenize_cmd; bpe_cmd;
        validate_cmd; gen_cmd; fuzz_cmd; serve_cmd; client_cmd;
        convert_cmd; trace_cmd;
      ]
  in
  main_cmd := Some group;
  exit (Cmd.eval group)
