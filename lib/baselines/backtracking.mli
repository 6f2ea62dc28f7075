(** The standard DFA-based backtracking tokenizer (paper Fig. 2) — the
    algorithm implemented by flex, JFlex, ocamllex, Ragel, RE/flex and re2c.

    For every token it scans forward remembering the last accepting
    position, until the DFA dies or input ends, then backtracks to that
    position and emits. Worst-case Θ(n²) time; Θ(k·n) when the grammar's
    max-TND is k (paper Lemma 12).

    This module doubles as the {e executable specification} of maximal-munch
    tokenization: every other engine is differentially tested against it. *)

open St_automata

type outcome = Finished | Failed of { offset : int; pending : string }

(** Structural equality, including the pending tail — the differential
    suites compare failure positions byte-for-byte. *)
val outcome_equal : outcome -> outcome -> bool

(** [run dfa s ~emit] tokenizes [s], calling [emit ~pos ~len ~rule] per
    token. Also returns the total number of DFA steps taken, which measures
    backtracking overhead (steps / length ≥ 1; equality means no re-reads). *)
val run :
  Dfa.t ->
  string ->
  emit:(pos:int -> len:int -> rule:int -> unit) ->
  outcome * int

(** [tokens dfa s] collects [(lexeme, rule)] pairs. *)
val tokens : Dfa.t -> string -> (string * int) list * outcome

(** Chunked variant used by the streaming benchmarks: flex-style processing
    of a stream through a fixed-capacity buffer. Unconsumed bytes at the end
    of a refill are moved to the buffer start (this models flex's
    block-by-block behaviour and its cost). [read] fills at most [len] bytes
    into [buf] at [pos] and returns 0 at end of stream. *)
val run_buffered :
  Dfa.t ->
  capacity:int ->
  read:(bytes -> pos:int -> len:int -> int) ->
  emit:(string -> int -> unit) ->
  outcome * int

(** Number of DFA steps {!run} takes (no emission); for tests/benches. *)
val steps : Dfa.t -> string -> int
