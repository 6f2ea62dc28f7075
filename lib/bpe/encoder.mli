(** Reference BPE encoder: the direct merge loop over the whole input.

    Starts from one segment per byte and repeatedly merges the adjacent
    pair whose concatenation is in the vocabulary with the lowest rank,
    breaking ties leftmost (tiktoken semantics, rank = token id). This is
    the ground truth the DFA engine is differentially tested against; it
    is O(n log n) via a lazy-invalidation heap, so the bench can afford to
    run it on multi-hundred-KB inputs. *)

(** Token ids, in input order. Total for any input because vocabularies
    are byte-complete. *)
val encode : Vocab.t -> string -> int list
