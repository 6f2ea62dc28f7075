(** Merge-table → DFA compiler.

    The target substrate is maximal munch: the vocabulary's tokens become
    literal rules of an ordinary grammar (rule index = token id), and the
    engine tokenizes by longest-match. That is only faithful to BPE when
    the vocabulary is {e munch-consistent} — greedy longest-match and the
    merge loop agree on every input. Not every merge table is (a low-rank
    merge reachable inside a longer token can make BPE stop short of the
    munch choice), so consistency is decided here, statically and exactly,
    before a DFA is ever built:

    - every token must encode to itself ([Encoder.encode v = [id v]]);
      a "dead" token is a direct witness (input = the token);
    - no vocab token [v] may be covered by a pairwise-valid token chain
      that starts with a proper vocab prefix of [v] — such a chain's
      concatenation is an input whose BPE tokenization starts shorter
      than its longest vocab prefix. The search runs per [v] over
      (last token, matched position) states with the pair-validity
      relation precomputed from reference encodes (2-locality: a chain is
      the BPE tokenization of its concatenation iff every adjacent pair
      encodes to itself — Berglund et al.).

    {!admit} refuses inconsistent vocabularies with a concrete witness;
    {!Trainer.repair} uses the same witness to drop offenders. *)

open St_regex
open St_automata
open St_grammars

(** Proof that greedy longest-match and the merge loop disagree:
    on [input], munch's first token is [long_token] while the merge loop
    produces [bpe] (whose first token is shorter). *)
type witness = { long_token : string; input : string; bpe : int list }

val witness_to_string : witness -> string

(** Exact munch-consistency decision. [Ok ()] means the literal-rule DFA
    tokenizes every byte string exactly as the merge loop does (the fuzz
    battery then re-checks this empirically, chunked and whole-string). *)
val audit : Vocab.t -> (unit, witness) result

(** One literal rule per token, in id order ([Regex.str], so the printed
    grammar round-trips through the parser and the engine cache key). *)
val rules_of_vocab : Vocab.t -> Regex.t list

(** The name of token [id]'s rule: [t<id>]. *)
val rule_name : int -> string

(** The vocabulary as an ordinary grammar: rule [t<id>] per token, priority
    = id order. No consistency check — pair with {!admit}. *)
val grammar_of_vocab : ?name:string -> Vocab.t -> Grammar.t

(** The subset-construction cap on a vocabulary's DFA (65536 states). The
    serving layer compiles every client grammar, vocabulary or not, under
    it. *)
val default_max_states : int

(** Vocabulary admission, the one path from a parsed vocabulary to
    compilable rules: the munch-consistency {!audit}, then
    {!rules_of_vocab}. [Error] is the one refusal message,
    ["vocabulary is not munch-consistent — <witness>"]. Compile the rules
    under {!default_max_states}. *)
val admit : Vocab.t -> (Regex.t list, string) result

(** {!admit}, then build the minimized tokenization DFA (rule ids = token
    ids) under [max_states] (default {!default_max_states}). [Error]
    carries either the admission refusal or the max-states overflow
    message. [audit] defaults to [true]; disable only for vocabularies
    already proven consistent. *)
val dfa :
  ?audit:bool -> ?max_states:int -> Vocab.t -> (Dfa.t, string) result
