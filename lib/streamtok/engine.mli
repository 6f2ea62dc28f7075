(** StreamTok: backtracking-free streaming tokenization (paper §5).

    An {!t} is a compiled tokenizer for a grammar with bounded max-TND. For
    max-TND ≤ 1 it uses the token-extension table of Fig. 5 (one extra table
    lookup per symbol); for max-TND = K ≥ 2 it uses the token-extension DFA
    of Fig. 6 running K symbols ahead of the tokenization DFA. Either way
    the cost is O(1) table lookups per input symbol and the memory footprint
    is independent of the stream length. *)

open St_regex
open St_automata

type t

(** Grammars with unbounded max-TND cannot be streamed with bounded memory
    (paper Lemma 6); {!compile} reports them instead of guessing. *)
type error = Unbounded_tnd

(** [force_te] (ablation knob, default false): use the general Fig. 6
    token-extension machinery even when the grammar's max-TND is ≤ 1 and
    the cheaper Fig. 5 table would suffice. *)
val compile : ?force_te:bool -> Dfa.t -> (t, error) result

(** Compile-time observability: everything {!compile} learned about the
    grammar, with phase timings. Consumed by [streamtok stats] and the
    bench harness. [te_states] counts powerstates materialized {e so far}
    (the token-extension DFA is lazy, so this grows as inputs are run —
    see {!te_states}). *)
type compile_stats = {
  dfa_states : int;
  max_tnd : St_analysis.Tnd.result;
  analysis_seconds : float;
      (** max-TND analysis (the linear form of paper Fig. 3), including the
          co-accessibility pass the engine tables reuse *)
  build_seconds : float;  (** engine table construction after the analysis *)
  te_states : int;
  k1_table_bytes : int;  (** Fig. 5 table size; 0 when the TE DFA is used *)
  footprint_bytes : int;
}

(** {!compile}, also returning the recorded {!compile_stats}. *)
val compile_timed : ?force_te:bool -> Dfa.t -> (t * compile_stats, error) result

(** Convenience wrappers: build the default (classed, accelerated)
    minimized tokenization DFA first. [max_states] caps the subset
    construction (raising [Failure]), as in {!Dfa.of_rules}. The analysis
    runs on the bare tables and the skip accelerator is attached only to an
    admitted grammar, so the result equals
    [compile (Dfa.of_rules ?max_states rules)]. Reference
    builds ([~classes:false], [~accel:Off], [~accel:Bitmap]) go through
    {!Dfa.of_rules} and {!compile} directly. *)
val compile_rules : ?max_states:int -> Regex.t list -> (t, error) result

val compile_grammar : string -> (t, error) result

(** Number of accelerable (skip-loop) DFA states; 0 on an unaccelerated
    build. Reported as the [accel_states] gauge. *)
val accel_states : t -> int

(** Number of accelerable states classified into the SWAR (64-bit scan)
    tier; 0 on [~accel:Off] or [~accel:Bitmap] builds. Reported as the
    [accel_swar_states] gauge. *)
val accel_swar_states : t -> int

(** Same DFA ({!Dfa.equal}, accelerator included), K, reject table and
    Fig. 5 table or token-extension DFA ({!Te_dfa.equal}). For tests. *)
val equal : t -> t -> bool

(** The grammar's max-TND; the engine's lookahead window. *)
val k : t -> int

(** The underlying tokenization DFA. *)
val dfa : t -> Dfa.t

(** Number of powerstates of the token-extension DFA (0 when the Fig. 5
    table is used); reported by the memory-footprint experiment. *)
val te_states : t -> int

(** Size in bytes of the Fig. 5 maximality table (0 in TE mode): one byte
    per (state, symbol-or-EOF) pair, i.e. [257 * dfa_states]. *)
val k1_table_bytes : t -> int

(** Approximate resident size, in bytes, of all tables the engine consults
    at run time: DFA transition/accept tables, the Fig. 5 [k1_table] or the
    token-extension DFA as allocated ({!Te_dfa.bytes}), and the max(K, 1)
    lookahead bytes the streaming kernel carries across a chunk boundary.
    Monotone in {!te_states}, so it grows as the lazy TE DFA materializes.
    Used by the RQ6 memory experiment. *)
val footprint_bytes : t -> int

(** How a run ended: the whole input was tokenized, or tokenization stopped
    at [offset] (no nonempty prefix of the remaining input matches any
    rule); [pending] is the untokenized remainder that the caller may want
    to report. *)
type outcome = Finished | Failed of { offset : int; pending : string }

(** Structural equality, including the pending tail — the fuzz harness and
    the differential suites compare failure positions byte-for-byte. *)
val outcome_equal : outcome -> outcome -> bool

(** [run_string e s ~emit] tokenizes an in-memory string, calling
    [emit ~pos ~len ~rule] for every maximal token, in order. Single
    left-to-right pass, no backtracking: one feed of [s] plus end of stream
    through the streaming kernel ({!Stream_tokenizer}). [from] (default 0)
    starts tokenization at that offset (the rest of the string is still
    the lookahead horizon); the emit callback may raise to stop the run
    early — used by the parallel tokenizer's splice phase. On failure,
    [pending] is the whole untokenized suffix of [s]. *)
val run_string :
  ?from:int ->
  t ->
  string ->
  emit:(pos:int -> len:int -> rule:int -> unit) ->
  outcome

(** [tokens e s] collects [(lexeme, rule)] pairs (convenience wrapper). *)
val tokens : t -> string -> (string * int) list * outcome

(** Instrumented variant of {!run_string}: the same kernel run, plus
    [stats] recording. The per-rule tally is one unchecked increment per
    token; the skip counters are the kernel's own (per skip, always on);
    bytes/chunk/lookahead/footprint numbers are recorded once per call.
    The carry left at end of input is sampled into the buffer high-water
    mark, as {!Stream_tokenizer} samples it after each chunk. With
    [Run_stats.enable_state_heat], the kernel's two skip branches add each
    skip's length to A's state (one test per skip, nothing per byte), and
    each emitted token (and a failed tail) is stepped once more through A
    to count arrivals per state; a skipped byte self-loops A, so visits =
    arrivals − skipped, exactly. *)
val run_string_instrumented :
  ?from:int ->
  t ->
  string ->
  stats:Run_stats.t ->
  emit:(pos:int -> len:int -> rule:int -> unit) ->
  outcome

(** {!run_string} under [Trace.with_span] ([engine.run], category
    [engine]). The probe sits outside the hot loop: with tracing disabled
    this is one bool load and a closure plus the plain runner, which the
    smoke check gates at ≤2% (hard 10%) against {!run_string} itself. *)
val run_string_traced :
  ?from:int ->
  t ->
  string ->
  emit:(pos:int -> len:int -> rule:int -> unit) ->
  outcome

(** [heat_table e stats] folds the state-heat counters collected by
    {!run_string_instrumented} (after [Run_stats.enable_state_heat]) into
    a {!St_trace.Trace.Heat.table}: per state, bytes consumed, bytes
    skip-scanned, the population of its accel stop-byte set, its rule id
    (-1 if non-final) and its accel flag. *)
val heat_table : ?label:string -> t -> Run_stats.t -> St_trace.Trace.Heat.table

(**/**)

(** The streaming kernel behind {!run_string} and {!Stream_tokenizer}: the
    one Fig. 5 loop and the one Fig. 6 loop. Use {!Stream_tokenizer}. *)
module Kernel : sig
  type cursor

  (** [emit buf pos len rule]: the slice is valid only during the call. *)
  val create : t -> emit:(string -> int -> int -> int -> unit) -> cursor

  val reset : cursor -> unit

  (** Feeds one chunk; only counts its bytes once the stream stopped. *)
  val feed : cursor -> string -> int -> int -> unit

  val finish : cursor -> outcome
  val failed : cursor -> bool
  val fed : cursor -> int

  val skipped : cursor -> int
  val swar_skipped : cursor -> int
end

module Internal : sig
  (** The token-extension DFA when K ≥ 2. *)
  val te_dfa : t -> Te_dfa.t option
end
