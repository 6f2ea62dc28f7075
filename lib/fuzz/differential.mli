(** The differential cross-check at the heart of the fuzzer.

    {!St_baselines.Backtracking} is the executable specification of
    maximal-munch tokenization; every other engine must reproduce its token
    stream and failure byte-for-byte. One {!check} call runs the whole
    battery on a (grammar, input) pair:

    - offline baselines: ExtOracle, Reps, the flex runtime model — on every
      grammar, bounded or not;
    - greedy ordered-choice — full equality on single-rule grammars (where
      greedy coincides with maximal munch), the prefix-reconstruction
      invariant otherwise (greedy's divergence on multi-rule grammars is
      documented semantics, not a bug);
    - when the grammar has bounded max-TND: the batch StreamTok engine
      (classed tables), the [engine-dense] cross-engine arm (the same
      engine compiled from the dense 256-column reference DFA,
      [~classes:false] — the alphabet-compression parity check),
      {!St_streamtok.Stream_tokenizer} under every supplied chunking, and
      {!St_parallel.Par_tokenizer} with forced segmentation
      ([min_input_bytes = 1]) for each domain count, so splice points land
      inside tokens even on tiny inputs;
    - the serving data plane over one {!St_serve.Loopback} server, which
      drains replies through the daemon's out-queue path and reads token
      records with the client's decoder: [serve-wire:*] under every
      chunking and [serve-wire:short-writes] with 7-byte transfers each
      way, plus the [serve-wire:poison] and [serve-wire:truncated]
      robustness subjects. *)

open St_regex

(** What one subject observed: the [(lexeme, rule)] stream and, if the run
    failed, the offset and pending tail. *)
type behaviour = {
  tokens : (string * int) list;
  failure : (int * string) option;
}

val behaviour_equal : behaviour -> behaviour -> bool

(** [behaviour_equal_streaming reference got] — the relaxed check used for
    [stream:*] subjects: identical tokens and failure offset, but [got]'s
    pending tail need only be a byte-exact prefix of the reference's.
    Streaming keeps O(K) state, so on failure its pending holds the bytes
    retained when the failure was detected; bytes fed afterwards are
    dropped by the {!St_streamtok.Stream_tokenizer.feed} contract. *)
val behaviour_equal_streaming : behaviour -> behaviour -> bool

(** Bounded rendering for reports (token lists are truncated). *)
val show_behaviour : behaviour -> string

type mismatch = {
  subject : string;  (** e.g. ["stream:straddle-before"], ["parallel:p3"] *)
  expected : behaviour;  (** the backtracking reference *)
  got : behaviour;
}

val show_mismatch : mismatch -> string

type spec = {
  rules : Regex.t list;
  input : string;
  chunkings : (string * Chunking.t) list;
  domain_counts : int list;
  inject_bug : bool;
      (** testing hook: corrupt the batch engine's stream (drop its last
          token) so the catch-and-shrink pipeline itself can be validated
          end to end *)
  bpe : St_bpe.Vocab.t option;
      (** when [rules] are a compiled BPE vocabulary
          ({!St_bpe.Compiler.rules_of_vocab}): adds the [bpe:ref] subject
          (maximal-munch rule ids must equal the reference merge-loop
          encoder's token ids) and [bpe:serve-ids:*] (the serving data
          plane in token-id mode — OPEN_BPE + IDS frames over loopback —
          under every chunking) *)
}

(** [spec rules input] with the {!Chunking.standard} battery (token ends
    taken from the reference run), domain counts [[2; 3]], no injection,
    no BPE arm. *)
val spec :
  ?rng:St_util.Prng.t ->
  ?domain_counts:int list ->
  ?inject_bug:bool ->
  ?bpe:St_bpe.Vocab.t ->
  Regex.t list ->
  string ->
  spec

type result = {
  mismatches : mismatch list;
  streaming : bool;  (** bounded max-TND: the engine subjects ran *)
  subjects : int;  (** comparisons performed *)
}

(** Run the battery. [on_subject] is called with each subject name as it
    runs (the driver tallies per-subject counts from it). *)
val check : ?on_subject:(string -> unit) -> spec -> result
