(** The engine knob of the RQ5 experiments: every application is
    parameterized by which tokenizer produces its token stream, so Table 2
    can time the same pipeline with flex-style backtracking vs StreamTok.

    [run] tokenizes the whole input, invoking [emit ~pos ~len ~rule] in
    stream order, and returns [Ok ()] iff the entire input was tokenized,
    [Error offset] — the first byte no token covers — otherwise. *)

open St_grammars

type t = Streamtok | Flex

val name : t -> string

(** [run backend grammar input ~emit]. The StreamTok backend compiles the
    engine once per call; use {!prepare} in timing loops. *)
type prepared

val prepare : t -> Grammar.t -> prepared

val run :
  prepared ->
  string ->
  emit:(pos:int -> len:int -> rule:int -> unit) ->
  (unit, int) result
