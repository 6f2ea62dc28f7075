(** StreamTok: static analysis for efficient streaming tokenization.

    OCaml reproduction of Li, Yang & Mamouras (ASPLOS 2026). The facade
    re-exports the public API; see the README for a guided tour.

    {1 Quick start}

    {[
      let grammar = "[0-9]+(\\.[0-9]+)?\n[ \\t\\n]+\n[a-z]+" in
      match Streamtok.Engine.compile_grammar grammar with
      | Error Unbounded_tnd -> prerr_endline "grammar needs unbounded lookahead"
      | Ok engine ->
          let tokens, outcome = Streamtok.Engine.tokens engine "3.14 foo 42" in
          ...
    ]} *)

(** {1 Regular expressions} *)

module Charset = St_regex.Charset
module Regex = St_regex.Regex
module Parser = St_regex.Parser
module Naive = St_regex.Naive

(** {1 Automata} *)

module Nfa = St_automata.Nfa
module Dfa = St_automata.Dfa
module Accel = St_automata.Accel

(** {1 Static analysis (paper §4)} *)

module Tnd = St_analysis.Tnd
module Tnd_brute = St_analysis.Tnd_brute
module Reduction = St_analysis.Reduction

(** {1 StreamTok (paper §5)} *)

module Engine = St_streamtok.Engine
module Par_tokenizer = St_parallel.Par_tokenizer
module Stream_tokenizer = St_streamtok.Stream_tokenizer
module Engine_cache = St_streamtok.Engine_cache
module Te_dfa = St_streamtok.Te_dfa

(** {1 Observability}

    [Obs] is the generic metrics layer (counters, gauges, log2 histograms,
    span timers; JSON + Prometheus export); [Run_stats] the per-run record
    filled by the instrumented runner variants. *)

module Obs = St_obs
module Run_stats = St_streamtok.Run_stats

(** [Trace] is the event tracer: per-domain binary ring buffers, span /
    instant / counter probes on the serve and engine hot paths, Chrome
    trace-event (Perfetto) JSON export, an aggregated span-tree
    report, and DFA state-heat tables (see README §Tracing & profiling). *)

module Trace = St_trace.Trace

(** {1 Baseline tokenizers (paper §6)} *)

module Backtracking = St_baselines.Backtracking
module Flex_model = St_baselines.Flex_model
module Reps = St_baselines.Reps
module Ext_oracle = St_baselines.Ext_oracle
module Greedy = St_baselines.Greedy
module Comb = St_combinator.Comb
module Comb_tokenizers = St_combinator.Comb_tokenizers

(** {1 Fuzzing & differential testing}

    Seeded generators, adversarial chunk splits, the cross-engine
    differential runner, mismatch shrinking, and replayable repro files —
    the machinery behind [streamtok fuzz] (see DESIGN.md §Fuzzing). *)

module Fuzz = St_fuzz

(** {1 BPE (data-driven grammars)}

    The merge-table → DFA compiler: tiktoken-style vocabularies become
    literal-rule grammars (rule index = token id) after a static
    munch-consistency audit, with a reference merge-loop encoder as the
    differential ground truth and a deterministic trainer for test
    vocabularies (see DESIGN.md §BPE). *)

module Bpe = St_bpe

(** {1 Grammars} *)

module Grammar = St_grammars.Grammar
module Formats = St_grammars.Formats
module Logs_grammars = St_grammars.Logs
module Languages = St_grammars.Languages
module Extras = St_grammars.Extras
module Registry = St_grammars.Registry

(** {1 Workload generators} *)

module Gen_data = St_workloads.Gen_data
module Gen_logs = St_workloads.Gen_logs
module Worst_case = St_workloads.Worst_case
module Grammar_corpus = St_workloads.Grammar_corpus

(** {1 Streaming I/O} *)

module Source = St_stream.Source
module Buffered = St_stream.Buffered

(** {1 Serving}

    The daemon mode: a framed wire protocol ([streamtok/wire/v1]) over
    Unix-domain sockets, one incremental tokenizer per session, engines
    shared across same-grammar sessions through {!Engine_cache}. [Serve]
    is the whole subsystem; the transport-free core ({!Serve.Server},
    {!Serve.Session}, {!Serve.Loopback}) is what the tests drive. *)

module Serve = St_serve

(** {1 Applications (paper RQ5)} *)

module Tokenizer_backend = St_apps.Tokenizer_backend
module Token_stream = St_apps.Token_stream
module Log_to_tsv = St_apps.Log_to_tsv
module Json_apps = St_apps.Json_apps
module Json_validate = St_apps.Json_validate
module Csv_apps = St_apps.Csv_apps
module Sql_apps = St_apps.Sql_apps

(** {1 Utilities} *)

module Prng = St_util.Prng
module Location = St_util.Location
module Timer = St_util.Timer
module Mclock = St_util.Mclock
