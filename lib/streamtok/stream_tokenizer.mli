(** Push-based chunked streaming interface to StreamTok.

    The stream is delivered block-by-block ({!feed}); tokens are emitted as
    soon as their maximality is confirmed — at most max(K, 1) symbols after
    their last character arrives — and may straddle chunk boundaries
    transparently. Memory use is O(K + longest pending token), independent
    of the stream length.

    This is the interface the paper's streaming claims are about: flex
    processes a stream block-by-block with backtracking inside its buffer,
    while StreamTok never re-reads a byte.

    {b The slice contract.} Tokens are emitted as slices
    [emit buf pos len rule]: the token is [String.sub buf pos len].
    - A slice is valid only during the callback: [buf] is either the chunk
      being fed or the tokenizer's carry buffer, which the next call
      overwrites. Copy what must outlive the call.
    - Bytes are carried (copied) only on a straddle: a token lying inside
      one chunk is a slice of that chunk; only a token that began in an
      earlier chunk is assembled in the carry buffer.
    - Between chunks the carry holds only the open token's prefix, whose
      tail is the ≤ max(K, 1) lookahead bytes already read past the
      tokenizer's position; no other byte is buffered.
    The tokenizer keeps no reference to a chunk after {!feed} returns.

    The module is a bare shell over {!Engine.Kernel}: each call is a bounds
    check, a trace span and one kernel call. It keeps no statistics; the
    one instrumented runner is {!Engine.run_string_instrumented}. *)

type t

(** [create_slices engine ~emit] starts a run; [emit buf pos len rule] is
    called for every maximal token in stream order, per the slice contract
    above. *)
val create_slices :
  Engine.t -> emit:(string -> int -> int -> int -> unit) -> t

(** [create engine ~emit] is {!create_slices} with each slice copied into
    a fresh lexeme: [emit lexeme rule]. *)
val create : Engine.t -> emit:(string -> int -> unit) -> t

(** Start a new stream on the same engine and callback, reusing the
    tokenizer's buffers — as if freshly created. *)
val reset : t -> unit

(** Has the run already failed (untokenizable input seen)? Further {!feed}s
    are ignored once failed. *)
val failed : t -> bool

(** [feed t s pos len] pushes a chunk. Raises [Invalid_argument] on bad
    bounds; silently ignores input after a failure or after {!finish}. *)
val feed : t -> string -> int -> int -> unit

(** [feed_string t s] = [feed t s 0 (String.length s)]. *)
val feed_string : t -> string -> unit

(** Signal end-of-stream: drains the lookahead window, emits any final
    maximal token, and reports the outcome. Idempotent. On failure,
    [pending] runs from the failed token's start up to and including the
    byte that made it untokenizable (to the end of the stream if no byte
    did). *)
val finish : t -> Engine.outcome

(** Total bytes accepted so far (across all chunks). *)
val bytes_fed : t -> int

(** Bytes consumed by self-loop skip loops so far (0 when the engine was
    built [~accel:Off]). *)
val accel_skipped_bytes : t -> int

(** Subset of {!accel_skipped_bytes} consumed by SWAR-classified skip
    loops (0 when the engine was built [~accel:Bitmap]). *)
val swar_skipped_bytes : t -> int
