(** The [streamtok/wire/v1] framed protocol.

    Every message is one frame: a 4-byte big-endian payload length, a
    1-byte tag, then the payload. Frames never straddle a meaning boundary
    — one request or reply per frame — but the {e byte stream} may be
    split arbitrarily by the transport; {!Decoder} reassembles frames from
    any chunking (the fuzz suite feeds it adversarial splits).

    Requests (client → server):
    - [OPEN 0x01] — payload: grammar spec ({!St_grammars.Registry.resolve}
      syntax: built-in name, ['@rule;rule'], or rules source).
    - [FEED 0x02] — payload: raw input bytes.
    - [FLUSH 0x03] — end the current stream: drain the lookahead window,
      report the outcome; the session (and its engine) stays open and the
      next FEED starts a fresh stream.
    - [CLOSE 0x04] — close the session; the server drains its output queue
      and hangs up.
    - [STATS 0x05] — payload: 1 byte, [0] = JSON, [1] = Prometheus text.
    - [OPEN_BPE 0x06] — open a BPE session: [u8 ids] (1 = reply with IDS
      frames instead of TOKENS), then the vocabulary text
      ({!St_bpe.Vocab.of_string} syntax: tiktoken lines or a JSON
      object). The server audits munch-consistency and compiles the
      literal-rule DFA through the same engine cache as OPEN.

    Replies (server → client):
    - [OPENED 0x81] — line-oriented text: [grammar NAME], [k K],
      [cached 0|1], then one [rule NAME] line per rule in priority order
      (so clients can print rule names without a JSON parser).
    - [TOKENS 0x82] — repeated records: [u32 rule], [u32 len], [len]
      lexeme bytes. One TOKENS frame batches everything a FEED emitted.
    - [PENDING 0x83] — the outcome after FLUSH: [u8 ok], [u64 offset],
      then the pending (untokenizable) tail bytes; [ok = 1] means the
      stream finished cleanly (offset = total bytes, empty tail).
    - [ERROR 0x84] — [u8 code], [u8 retryable], then a UTF-8 message.
    - [METRICS 0x85] — [u8 format] then the serialized registry.
    - [IDS 0x86] — repeated [u32 token id], in stream order: the batched
      reply of a FEED on an [ids = 1] BPE session (rule index = token id,
      no lexeme bytes — the token-id serving mode's whole point is not
      echoing the input back). *)

(** Hard cap on payload size (16 MiB): a length prefix beyond it is a
    protocol error, not an allocation. *)
val max_payload : int

(** Frame tags, for code that works on raw frames/views without going
    through {!request_of_frame} / {!reply_of_frame}. *)

val tag_open : int
val tag_feed : int
val tag_flush : int
val tag_close : int
val tag_stats : int
val tag_open_bpe : int
val tag_opened : int
val tag_tokens : int
val tag_pending : int
val tag_error : int
val tag_metrics : int
val tag_ids : int

type format = Json | Prom

type error_code =
  | Protocol  (** malformed frame or request out of order; fatal *)
  | Bad_grammar  (** OPEN spec failed to resolve or has unbounded max-TND *)
  | Capacity  (** session table full; retryable *)
  | Lexical  (** the stream stopped tokenizing; FLUSH for the outcome *)
  | Shutting_down  (** server drain (SIGTERM) or idle eviction *)

val error_code_to_int : error_code -> int
val error_code_of_int : int -> error_code option
val error_code_to_string : error_code -> string

type request =
  | Open of string
  | Feed of string
  | Flush
  | Close
  | Stats of format
  | Open_bpe of { ids : bool; vocab : string }

type reply =
  | Opened of { grammar : string; k : int; cached : bool; rules : string list }
  | Tokens of (string * int) list  (** (lexeme, rule) in stream order *)
  | Pending of { ok : bool; offset : int; pending : string }
  | Error of { code : error_code; retryable : bool; message : string }
  | Metrics of { format : format; body : string }
  | Ids of int list  (** token ids in stream order *)

(** {1 Encoding} *)

type frame = { tag : int; payload : string }

val encode_frame : Buffer.t -> frame -> unit
val request_to_frame : request -> frame
val reply_to_frame : reply -> frame
val encode_request : Buffer.t -> request -> unit
val encode_reply : Buffer.t -> reply -> unit

(** {1 Decoding} *)

val request_of_frame : frame -> (request, string) result
val reply_of_frame : frame -> (reply, string) result

(** Incremental frame reassembly, zero-copy.

    The decoder is a flat byte queue; {!next_view} parses the frame header
    in place and hands back a {!view} into the decoder's own buffer —
    no per-frame allocation or copy. Bytes move only inside {!feed}, and
    only when a partial frame straddles the previous feed boundary and
    the buffer tail runs out of room (offset compaction or a doubling
    realloc); {!copies} counts those events, so a straddle-free run — every
    feed delivering whole frames — reports exactly zero.

    View lifetime: a view is valid until the next [feed]/[feed_bytes] call
    on the decoder. {!next_view} itself never invalidates earlier views
    (draining the queue resets offsets without moving bytes), so a caller
    may pull every view of one feed batch before processing any of them.
    Callers that need the payload beyond the next feed must copy
    ({!view_string}).

    After a [View_corrupt] result the decoder is poisoned — the
    stream has no recoverable framing — and every further call returns the
    same error. *)
module Decoder : sig
  type t

  val create : unit -> t
  val feed : t -> string -> pos:int -> len:int -> unit
  val feed_bytes : t -> Bytes.t -> pos:int -> len:int -> unit
  val feed_string : t -> string -> unit

  (** One decoded frame: payload = bytes [voff, voff+vlen) of [vbuf].
      Do not mutate [vbuf]. *)
  type view = { vtag : int; vbuf : Bytes.t; voff : int; vlen : int }

  type view_result = View of view | View_need_more | View_corrupt of string

  (** The zero-copy hot path: never moves or copies payload bytes. *)
  val next_view : t -> view_result

  (** Copy a view's payload out (cold paths, retention past the batch). *)
  val view_string : view -> string

  (** Bytes buffered but not yet consumed by complete frames. *)
  val buffered : t -> int

  (** Compaction/realloc events that moved live bytes — the straddle
      penalty. Zero iff no partial frame ever had to be carried across a
      feed while the tail was out of room. *)
  val copies : t -> int
end

(** [iter_tokens_view v f] walks the TOKENS records of a decoded frame
    view without materializing a list or copying lexemes: [f] is called
    per record with the rule id and the lexeme's location in the decoder
    buffer (valid only during the call). Returns the record count, or
    [Error _] on a malformed payload. *)
val iter_tokens_view :
  Decoder.view ->
  (rule:int -> buf:Bytes.t -> pos:int -> len:int -> unit) ->
  (int, string) result

(** [iter_ids_view v f] — the IDS counterpart: [f] per token id. Returns
    the id count, or [Error _] if the payload length is not a multiple
    of 4. *)
val iter_ids_view : Decoder.view -> (int -> unit) -> (int, string) result

(** Decode every frame of a complete byte string (test helper). *)
val decode_all : string -> (frame list, string) result
