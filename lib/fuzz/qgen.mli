(** QCheck wrappers for the property suites.

    This module preserves the names and types of the historical
    [test/gen.ml] (which is now a thin shim over it), so the existing
    differential suites keep compiling unchanged, and adds the
    grammar–input–chunking arbitrary for the streaming-equivalence
    property. Seeded {!Gen} is what the fuzz driver uses; these wrappers
    exist for [dune runtest] properties only. *)

open St_regex

(** The [{a,b,c}] alphabet, as a list — kept a [char list] for
    compatibility with callers passing it as [~alphabet]. *)
val small_alphabet : char list

(** 1–4 non-empty-language rules over [{a,b,c}]. *)
val grammar_arb : Regex.t list QCheck.arbitrary

(** Such a grammar and an input of 0–24 bytes over [{a,b,c}]. *)
val grammar_input_arb : (Regex.t list * string) QCheck.arbitrary

(** Grammar, input over the grammar's own alphabet, and a random partition
    of that input — the streaming-equivalence property's domain. *)
val grammar_input_chunks_arb :
  (Regex.t list * string * Chunking.t) QCheck.arbitrary

(** Tokens-equality: (lexeme, rule) lists. *)
val same_tokens : (string * int) list -> (string * int) list -> bool
