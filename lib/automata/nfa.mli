(** Thompson construction of a rule-tagged NFA from a tokenization grammar.

    Each accepting state carries the index of the rule it accepts for; rule
    indices are the maximal-munch tie-breaking priority (Definition 1 of the
    paper). The number of NFA states is the "NFA/Grammar size" reported in
    Table 1 and Fig. 7. *)

open St_regex

type t = {
  num_states : int;
  start : int;
  eps : int list array;  (** epsilon successors, indexed by state *)
  trans : (Charset.t * int) list array;  (** labeled successors *)
  accept_rule : int array;  (** rule id accepted at this state, or -1 *)
}

(** Build the NFA for a grammar [r₀; r₁; …]; requires a nonempty list. *)
val of_rules : Regex.t list -> t
