(** The token-extension DFA (paper §5.2).

    For a tokenization DFA [A] with max-TND [K], a {e token-extension path}
    is a path [q →a₁ q₁ → … →aₖ qₖ] (k ≤ K) whose endpoints are final and
    whose intermediate states are non-final. The token-extension NFA
    recognizes the labels of these paths padded to length exactly [K]; its
    states are labeled with the path's first state [fst(π)]. The
    token-extension DFA results from a modified powerset construction that
    re-injects the initial states at every step ("restart"), so that while
    scanning the stream it simultaneously tracks extension paths starting
    at every position.

    The NFA is never materialized as an explicit path enumeration: its
    states are the compact triples [(q₀, q, j)] (in-progress path from
    final state [q₀], currently at [q], [j] symbols consumed) and pairs
    [(q₀, j)] ("done": the path already ended at a final state and is
    padding to length [K]) — the sharing-based structure of the paper's
    implementation note. In-progress paths through non-co-accessible DFA
    states are pruned.

    Powerstates are stored sparsely. The restart set — the [F] paths of
    length 0, one per final state — is all-or-nothing in every powerstate
    (every real-symbol successor contains it, no EOF successor holds any
    in-progress path), so a powerstate is the sorted run of its other
    members' ids, led by one reserved id when it holds the restart set.
    An id packs [(q₀, j)] above [q] in power-of-two fields, with [q = |A|]
    standing for "done", so a step, which maps [(q₀, j)] to [(q₀, j+1)],
    keeps a run sorted and decodes by shifts and masks; the successors of
    the restart set depend only on the symbol class, are derived once per
    class and merged in. The run is canonical, so powerstates are numbered
    exactly as over the dense powerset. They are interned in the
    {!St_automata.Powerset} that subset construction uses too, compared
    run against run, and their members are read only under the
    automaton's lock.

    The DFA itself is {e lazy}: powerstates and their transitions
    materialize the first time {!step} takes them (eager construction is
    exponential in [K] in the worst case; on a concrete stream only the
    windows that occur are built, preserving O(1) amortized work per
    symbol). Consequently {!step} mutates internal tables; it is
    idempotent and the automaton's answers are deterministic.

    An extra EOF pseudo-symbol kills in-progress paths but advances the
    padding; the engine feeds it [K] times when the stream ends, so
    maximality checks near end-of-stream are exact.

    Transition rows are indexed by the underlying DFA's byte equivalence
    classes ([Dfa.num_classes + 1] columns, EOF last): bytes the DFA cannot
    distinguish take identical extension paths, so class compression is
    exact here too. The byte-level {!step}/{!eof_symbol} interface is kept
    (it translates through the classmap); hot loops that already hold a
    class use {!step_class} with {!eof_class}. *)

open St_automata

type t

val eof_symbol : int

(** Columns per transition row: [Dfa.num_classes + 1]. *)
val width : t -> int

(** The class-space EOF column: [width - 1]. *)
val eof_class : t -> int

(** [build ~coacc dfa ~k] prepares the automaton (only the start state is
    materialized). Requires [k ≥ 1]. [coacc] is [Dfa.co_accessible dfa]. *)
val build : coacc:St_util.Bits.t -> Dfa.t -> k:int -> t

(** The start powerstate (the restart injection set). *)
val start : t -> int

val k : t -> int

(** Powerstates materialized so far. *)
val num_states : t -> int

(** Same DFA, K and co-accessible set, and the same powerstates
    materialized so far, with the same rows. For tests. *)
val equal : t -> t -> bool

val num_finals : t -> int

(** Dense index of a final DFA state, -1 for non-final. *)
val final_index : t -> int -> int

(** [step te s sym] with [sym] ∈ 0..255 or {!eof_symbol}; materializes the
    target powerstate on first use. *)
val step : t -> int -> int -> int

(** [step_class te s cls] with [cls] ∈ 0..num_classes-1 or {!eof_class}:
    the two-load form for callers that already translated the byte. *)
val step_class : t -> int -> int -> int

(** [extendable te s q] — some token-extension path starting at final DFA
    state [q] matches the (padded) window just consumed, i.e. the token
    ending at [q] is {e not} maximal. *)
val extendable : t -> int -> int -> bool

(** [emit_bit te s q] — the token-maximality table entry T[q][S]: true iff
    [q] is final and the token ending at [q] is maximal. Single packed-bit
    read; the engine's per-symbol check. *)
val emit_bit : t -> int -> int -> bool

(** The powerstates' skip rows: an {!Accel.t} at the underlying DFA's
    level, empty until a skip loop first enters a powerstate. *)
val accel : t -> Accel.t

(** [accel_row te s]: the row of powerstate [s] in {!accel}, derived from
    its self-loop classes and appended the first time it is asked for
    (forcing [s]'s real-symbol transitions). *)
val accel_row : t -> int -> int

(** Bytes held by the skip rows and the per-powerstate row index, at
    their allocated capacity. *)
val accel_bytes : t -> int

(** Heap bytes held by the automaton as allocated: the transition, emit
    and skip-row tables at capacity (flat bytes, counted block by block,
    with the record and atomic that publish them), the interner's storage
    ({!St_automata.Powerset.bytes}: the member store, per-powerstate
    vectors and slot table), the per-class restart successors, the skip
    storage ({!accel_bytes}) and the fixed per-DFA arrays. *)
val bytes : t -> int

(**/**)

(** Internal raw views for the engine's hot loop. The materialized tables
    are one immutable value, replaced whole when the automaton grows: a
    reader takes {!tables} once and reads cells and emit words from that
    one value, so a transition row and an emit row always come from the
    same generation. A cell of any generation names a powerstate whose
    emit row that generation holds. A cell that reads -1 is not yet built:
    the reader calls {!step_class} and then takes {!tables} again (a
    cached value stays valid for reads of already-materialized states).

    The tables are flat bytes in native byte order: [trans tb] holds
    [width] int32 cells per powerstate (cell [(s, cls)] at byte
    [4 × (s × width + cls)], -1 = not yet built), and [emit tb] holds
    [words] int64 emit-bit words per powerstate (word [w] of row [s] at
    byte [8 × (s × words + w)]). {!cell} and {!word} are the unchecked
    reads at a byte offset. *)
module Raw : sig
  type tables

  val tables : t -> tables
  val trans : tables -> Bytes.t
  val emit : tables -> Bytes.t

  external cell : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
  external word : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

  val words : t -> int
  val width : t -> int
end
