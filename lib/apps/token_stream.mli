(** Materialized token streams: the hand-off between the tokenization stage
    (timed per backend in Table 2) and the application stage ("rest").

    Tokens are stored as parallel int arrays — positions, lengths, rule ids
    — so the tokenize stage allocates nothing per token. *)

type t

val create : unit -> t
val clear : t -> unit

(** The emit callback to pass to a tokenizer backend. *)
val push : t -> pos:int -> len:int -> rule:int -> unit

val length : t -> int
val pos : t -> int -> int
val len : t -> int -> int
val rule : t -> int -> int

(** [lexeme input t i]. *)
val lexeme : string -> t -> int -> string

(** [fill backend input t] clears [t] and tokenizes into it: [Ok ()], or
    [Error offset] at the first untokenizable byte (the tokens before it
    are kept). *)
val fill : Tokenizer_backend.prepared -> string -> t -> (unit, int) result
