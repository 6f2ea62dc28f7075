(** Static analysis: the maximum token neighbor distance (paper §4, Fig. 3).

    The max-TND of a grammar tells us how many characters past the end of a
    token may be needed to decide that it is maximal (§3, Definition 7).
    Fig. 3 explores frontiers of DFA states witnessing larger and larger
    distances, and by the dichotomy lemma (Lemma 11) reports ∞ once the
    distance exceeds |A| + 2: on an unbounded grammar, |A| + 2 rounds of
    O(|A|·classes) work each. {!max_tnd} reaches the same answer in one pass: the max-TND is
    the longest path from a token state through non-final co-accessible
    states, and it is ∞ iff such a path can close a cycle. One depth-first
    search finds both in O(|A|·classes) time. The Fig. 3 loop itself is
    kept in {!max_tnd_trace}, which records its frontiers. *)

open St_automata

type result = Finite of int | Infinite

val pp_result : Format.formatter -> result -> unit
val result_to_string : result -> string
val equal_result : result -> result -> bool

(** Max-TND of the token language of an already-built tokenization DFA,
    by the linear search. [coacc] is the DFA's {!Dfa.co_accessible} set,
    computed here when it is not passed. *)
val max_tnd : ?coacc:St_util.Bits.t -> Dfa.t -> result

(** One row of the Fig. 4-style execution trace: the tentative distance, the
    frontier [s] before the step, its successor set [t], and whether the
    termination test [T ∩ CoAcc = ∅] held. *)
type trace_row = {
  dist : int;
  s : int list;
  t : int list;
  test : bool;
}

(** The Fig. 3 loop itself, with its full execution trace (used by the
    CLI's [--explain] mode and by documentation examples). Its result
    equals {!max_tnd}'s; it keeps both frontiers of every round, so it
    takes O(|A|²) memory on an unbounded grammar. *)
val max_tnd_trace : Dfa.t -> result * trace_row list

(** [witness dfa k] is a token neighbor pair [(u, v)] with
    [TkDist (u, v) ≥ k], if one exists. For [k = 0] this is any token paired
    with itself. Witnesses are verified against the reference semantics in
    the test suite: u ∈ L, v ∈ L, u ≤ v, and no strictly intermediate prefix
    of v extending u is in L. *)
val witness : Dfa.t -> int -> (string * string) option

(** A witness family for an unbounded max-TND: [(u, u ^ x ^ yⁿ ^ z)] is a
    token neighbor pair for every [n ≥ 0], so its distance
    [|x| + n·|y| + |z|] grows without bound. [y] labels a cycle through
    non-final states that can still reach a final one. *)
type pump = { u : string; x : string; y : string; z : string }

(** [pumped_witness dfa] is [Some] exactly when the max-TND is
    [Infinite]. Its cycle is the one {!max_tnd}'s search closes, so it
    takes O(|A|·classes) time and O(|A|) memory (a {!witness} at distance
    |A| + 2 carries a path per state per layer). *)
val pumped_witness : Dfa.t -> pump option
