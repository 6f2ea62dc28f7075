(** First-alternative greedy tokenization — the semantics a user gets from
    encoding a tokenizer with PCRE-style alternation (Rust regex) or ordered
    parser-combinator alternatives (Rust nom's [alt]).

    Rules are tried {e in order}; the first rule with a nonempty match wins
    with its own longest match, even if a later rule would match a longer
    token. This differs from maximal munch: e.g. for the grammar
    [a ; ab] on input "ab", greedy emits ["a"; leftover "b"] while maximal
    munch emits ["ab"]. The tests pin down both agreement and documented
    divergence cases. *)

open St_regex

type t

val compile : Regex.t list -> t

(** Per-rule DFAs are scanned in rule order at every token start. *)
val run :
  t ->
  string ->
  emit:(pos:int -> len:int -> rule:int -> unit) ->
  Backtracking.outcome * int
(** Also returns total DFA steps (greedy re-scans failed alternatives, which
    is where its slowdown comes from). *)

val tokens : t -> string -> (string * int) list * Backtracking.outcome
