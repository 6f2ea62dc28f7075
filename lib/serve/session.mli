(** Per-session protocol state machine.

    A session is the server half of one connection: [Awaiting_open] until
    a valid OPEN (or OPEN_BPE: vocabulary text admitted by
    {!St_bpe.Compiler.admit}, optionally serving token ids instead of
    lexemes) compiles, then a live incremental
    {!St_streamtok.Stream_tokenizer} that FEED advances and FLUSH drains.
    Both OPENs share one compile path: one
    {!St_streamtok.Engine_cache.lookup} under
    {!St_bpe.Compiler.default_max_states}, so an over-cap grammar or
    vocabulary is a [Bad_grammar] reply, and OPENED's [cached] flag is
    that lookup's hit bit.
    FLUSH ends the {e stream} but not the {e session}: the engine is kept
    and the next FEED starts a fresh stream, so a connection can tokenize
    many documents without re-OPENing.

    Token output never goes through reply values: the emit closure encodes
    each token straight into a scratch {!Outbuf} (the wire TOKENS record
    format) that is reused across frames, so a run of FEEDs accumulates
    one batch with no allocation per token. The caller
    drains it with {!batch}/{!batch_clear} — and must do so {e before}
    enqueueing the replies a call returned, so TOKENS precede any
    [Lexical] error or [Pending] outcome for the same bytes.

    The module is transport-free — requests in, replies out — which is
    what lets the loopback transport drive the whole server
    deterministically in tests. CLOSE and STATS are connection/server
    concerns and are handled by {!Server}, not here. *)

open St_streamtok
open St_grammars

type deps = {
  cache : Engine_cache.t;
  resolve : string -> (Grammar.t, string) result;
}

type t

val create : deps -> t

(** Has a valid OPEN been processed? *)
val opened : t -> bool

(** [feed_views t segs n] feeds the first [n] [(s, pos, len)] segments
    in order, one {!St_streamtok.Stream_tokenizer.feed} each: the output
    of [n] FEED requests. The segments are not retained (safe to pass
    views into a transport buffer). Tokens land in the batch encoder; the
    returned replies are only the exceptional ones ([Lexical] on stream
    failure, [Protocol] before OPEN). Segments after the one that fails
    the stream are not consumed (the failure offset stays exact) and are
    dropped, as is every later FEED until the FLUSH. *)
val feed_views : t -> (string * int * int) array -> int -> Wire.reply list

(** The pending token batch: the encoder holding ready-to-send TOKENS (or
    IDS, for a BPE session opened in id mode) records and the token count,
    or [None] if the batch is empty. Frame it (one blit) under
    {!batch_tag}, then {!batch_clear}. *)
val batch : t -> (Outbuf.t * int) option

(** The frame tag the current batch encodes: {!Wire.tag_ids} for a BPE
    session opened with [ids = true], {!Wire.tag_tokens} otherwise. *)
val batch_tag : t -> int

val batch_clear : t -> unit

(** Process one request; returns the replies to enqueue, in order —
    remember to flush {!batch} first. A reply
    [Error { code = Protocol | Bad_grammar; _ }] is fatal to the session —
    the caller should drain-and-close the connection. A [Lexical] error is
    not: the stream is failed (further FEEDs are dropped by contract) until
    FLUSH reports the outcome and resets it. *)
val handle : t -> Wire.request -> Wire.reply list
