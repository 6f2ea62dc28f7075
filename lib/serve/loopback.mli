(** In-memory transport: the deterministic twin of {!Io_loop}.

    A loopback connection is a client→server byte queue plus a
    client-side reply decoder. {!step} moves at most [chunk] bytes per
    direction per connection — honouring {!Server.wants_read}, so
    backpressure is observable — and {!run} iterates to a fixpoint.
    Replies leave the server exactly as they leave the daemon: through
    {!Server.out_view} and {!Server.out_consume} over the connection's
    one out queue, with the copy into the client decoder standing in for
    {!Writev.write}, so a small [chunk] is a short write that can stop
    inside a frame header or a token batch. Replies are read back as
    every client reads them, with {!Wire.read_replies}. Nothing touches the real clock or any file
    descriptor, which is what lets the test suite drive session
    lifecycles, idle eviction (via a fake [config.clock] plus {!tick})
    and backpressure byte-for-byte reproducibly. *)

type t
type conn

val create : ?config:Server.config -> unit -> t

(** The server under test, for direct metric / query assertions. *)
val server : t -> Server.t

val connect : t -> conn
val conn_id : conn -> Server.conn_id

(** Queue an encoded request on the client side (delivered by {!step}). *)
val send : conn -> Wire.request -> unit

(** Queue raw bytes — for protocol-error and adversarial-chunking tests. *)
val send_raw : conn -> string -> unit

(** Frame a FEED straight from a slice of [s] — header poke plus one
    payload blit into the client queue, no intermediate encode. The
    benchmark hot path. *)
val send_feed_sub : conn -> string -> pos:int -> len:int -> unit

(** Client-side hangup: undelivered bytes are dropped and the server sees
    EOF, as when a client is killed mid-stream. *)
val hangup : conn -> unit

(** Bytes queued client→server but not yet delivered. *)
val unsent : conn -> int

(** One scheduling round: for each connection, deliver at most [chunk]
    bytes to the server (only while it {!Server.wants_read}s), collect at
    most [chunk] reply bytes, and complete any drain-close the server
    asked for. Returns [true] if anything moved. Default [chunk] is large
    enough to be "all of it" in practice. *)
val step : ?chunk:int -> t -> bool

(** Iterate {!step} to quiescence. *)
val run : ?chunk:int -> t -> unit

(** Run {!Server.on_tick} (idle eviction) — pair with a fake clock. *)
val tick : t -> unit

(** Drain the non-token replies decoded so far, in order. Decoding also
    appends the records of every TOKENS and IDS frame to the logs that
    {!tokens} and {!ids} drain. Raises [Failure] on a corrupt or
    undecodable reply frame: the server must never emit one. *)
val replies : conn -> Wire.reply list

(** Drain the [(lexeme, rule)] records of the TOKENS frames decoded so
    far, in stream order (decoding pending frames as {!replies} does). *)
val tokens : conn -> (string * int) list

(** Drain the token ids of the IDS frames decoded so far, in stream
    order. *)
val ids : conn -> int list

(** The client-side reply decoder, for callers that read replies
    themselves with {!Wire.read_replies} instead of the logs above. *)
val decoder : conn -> Wire.Decoder.t

(** Drain decoded reply frames as zero-copy views (each valid only during
    its callback), bypassing the logs above — the benchmark path that
    skips reply materialization. Raises [Failure] on a corrupt reply
    stream. *)
val drain_views : conn -> (Wire.Decoder.view -> unit) -> unit

(** The server has closed this connection (drain-close or eviction
    completed). Already-decoded replies remain readable. *)
val closed : conn -> bool
