(** Tokenization DFA (Definition 3): a total DFA over the byte alphabet,
    where every final state carries Λ(q), the preferred (least) rule index.

    Built from the rule-tagged NFA by subset construction. The byte alphabet
    is compressed into equivalence classes first: bytes that no charset label
    of the NFA distinguishes share a column, so transitions are a dense
    [num_states × num_classes] table reached through a 256-byte [classmap].
    {!step} is therefore two dependent array reads — still O(1) per symbol,
    which every engine in this library relies on — at 1/10th to 1/60th the
    table footprint of the raw-byte layout on ASCII-heavy grammars. Pass
    [~classes:false] to the constructors to keep the dense 256-column layout
    (identity classmap); that path is retained as the reference oracle for
    the compression test battery. *)

open St_regex

type t = {
  num_states : int;
  start : int;
  num_classes : int;  (** columns per state; 256 when built dense *)
  classmap : string;
      (** 256 bytes; [classmap.[b]] is the equivalence class of byte [b],
          in [0 .. num_classes-1]. Identity when built with
          [~classes:false]. *)
  trans : int array;
      (** [trans.(q * num_classes + class)] is the successor state *)
  accept : int array;  (** Λ(q): rule id of final state [q], or -1 *)
  accel : Accel.t;
      (** The self-loop skip accelerator, one row per state (row [q] is
          state [q]), derived once from the final transition table. At
          {!Accel.Off} its flags are all zero, so hot loops may test
          {!Accel.enters} unconditionally. *)
}

(** [step dfa q c] is δ(q, c): classmap load, then table load. *)
val step : t -> int -> char -> int

(** [step_class dfa q cls] skips the classmap load — for hot loops that
    translate the input once and walk in class space. *)
val step_class : t -> int -> int -> int

(** Equivalence class of a byte (the classmap load of {!step}). *)
val class_of : t -> char -> int

val class_of_byte : t -> int -> int
val num_classes : t -> int

(** [is_final dfa q]. *)
val is_final : t -> int -> bool

(** Token id Λ(q) of a final state; -1 for non-final. *)
val accept_rule : t -> int -> int

(** [run dfa s] is δ(start, s). *)
val run : t -> string -> int

(** The coarsest partition of 0–255 respected by every charset label of the
    NFA, as (classmap, num_classes). Classes are numbered by first byte
    occurrence, so equal NFAs give equal classmaps. *)
val equiv_classes : Nfa.t -> string * int

(** One representative byte per class, in class order. *)
val class_reps : string -> int -> int array

(** Subset construction from a rule-tagged NFA. The result is total and all
    states are accessible; a dead (reject) state exists whenever some input
    cannot be extended into any token. [classes] (default true) selects the
    equivalence-classed table layout; [~classes:false] builds the dense
    256-column reference layout. Both recognize the same languages.
    [accel] (default {!Accel.Swar}) is the skip accelerator's level:
    [~accel:Off] keeps the unaccelerated build and [~accel:Bitmap] the
    bitmap-only build, the differential references of the skip loops and
    of their SWAR tier. [max_states] (default unbounded) caps the number
    of interned subset states: data-driven grammars (BPE vocabularies) can
    blow up the construction, and a prompt [Failure] naming the cap beats
    unbounded memory growth. Subset states are numbered in discovery
    order and interned in a {!Powerset} (the token-extension DFA's
    interner too), each closure compared through a bitset of its members,
    so the construction allocates nothing per state beyond the tables. *)
val of_nfa :
  ?classes:bool -> ?accel:Accel.level -> ?max_states:int -> Nfa.t -> t

(** [attach level d]: [d] with the skip accelerator derived at [level],
    one row per state. Subset construction and minimization build bare
    tables ([Off]); the constructors below attach once, to the final
    one. *)
val attach : Accel.level -> t -> t

(** [of_rules rules] = subset construction ∘ Thompson, with Moore
    minimization applied when [minimize] (default true). Construction and
    minimization work on bare tables; the accelerator is derived once, from
    the final one. *)
val of_rules :
  ?minimize:bool -> ?classes:bool -> ?accel:Accel.level ->
  ?max_states:int -> Regex.t list -> t

(** [of_grammar src] parses a newline-separated grammar and builds its DFA. *)
val of_grammar :
  ?minimize:bool -> ?classes:bool -> ?accel:Accel.level ->
  ?max_states:int -> string -> t

(** States from which some final state is reachable (co-accessible,
    paper §4). The complement is the set of reject/failure states. *)
val co_accessible : t -> St_util.Bits.t

(** States reachable from the start by a {e nonempty} string — the
    initialization set of the static analysis needs finals in this set. *)
val reachable_nonempty : t -> St_util.Bits.t

(** [is_reject dfa coacc q] iff q cannot reach a final state. *)
val is_reject : t -> St_util.Bits.t -> int -> bool

(** Number of states; [|A|] in the paper's pseudocode. *)
val size : t -> int

(** Structural equality of the recognized token languages is not decided
    here; this is plain structural DFA equality (including the classmap)
    for tests. *)
val equal : t -> t -> bool

(** Render transitions compactly for debugging (one line per state,
    byte-level, so dense and classed builds print identically when
    equivalent). *)
val pp : Format.formatter -> t -> unit
