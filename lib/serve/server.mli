(** The transport-agnostic serving core.

    One {!t} holds the session table, the (possibly shared — see
    {!create}'s [cache]) {!St_streamtok.Engine_cache}, per-connection
    frame decoders and bounded out queues, and the server-wide metrics.
    A connection's out queue is the only place its reply bytes wait to
    be written: every reply, token batches included, is framed into it
    as soon as it is produced.

    A transport (a {!Shard} worker's {!Io_loop.Core} select loop, the
    in-memory {!Loopback} in tests and benchmarks) owns the actual byte
    movement and drives this module through a small event/query
    interface:

    - events in: {!on_connect}, {!on_data}, {!on_eof}, {!on_closed},
      {!on_tick};
    - queries out: {!wants_read} (backpressure: [false] while a
      connection's out queue is over budget — stop reading its socket),
      {!out_view}/{!out_consume} (the out queue's live bytes — the one
      drain path: the daemon hands them to {!Writev.write}, the loopback
      copies them into its client decoder), {!should_close}
      (drain-then-close handshake).

    A {!t} is single-domain: one transport drives it, and in the sharded
    server each worker domain owns its own instance (only the engine
    cache and the {!snapshot} copies cross domains).

    Time enters only through [config.clock], so a fake clock makes idle
    eviction and latency recording fully deterministic under loopback. *)

open St_obs

type config = {
  max_sessions : int;  (** beyond this, new connections get a retryable
                           [Capacity] error *)
  idle_timeout : float;  (** seconds; [0.] disables idle eviction *)
  max_out_bytes : int;
      (** the per-connection output budget. Above it in the out queue,
          the server stops reading that connection until the client
          drains replies (backpressure). A TOKENS batch is also framed
          once its encoded records reach it, so one batch never produces
          a frame anywhere near {!Wire.max_payload}. *)
  cache_entries : int;  (** engine-cache capacity (ignored when a shared
                            cache is passed to {!create}) *)
  clock : unit -> float;
}

val default_config : config

type t
type conn_id = int

(** [create ?cache ()] — [cache] (default: a private one of
    [config.cache_entries]) lets worker domains share one domain-safe
    engine cache, so N domains OPENing the same grammar cost one
    compile. *)
val create : ?cache:St_streamtok.Engine_cache.t -> ?config:config -> unit -> t

val config : t -> config

(** {1 Events (transport → server)} *)

(** A connection arrived. Always returns an id — over-capacity or
    mid-drain connections are answered with a retryable error frame and
    marked for drain-close, which the transport observes via
    {!should_close}. *)
val on_connect : t -> conn_id

(** Bytes read from the connection's socket. The slice is copied into the
    connection's frame decoder before returning, so the transport may
    reuse [buf] for the next read. Each decoded FEED frame's payload view
    is fed to the tokenizer at once ({!Session.feed_views}, one segment);
    a run of consecutive buffered FEEDs is answered with one TOKENS frame
    (split only at [config.max_out_bytes]), framed into the out queue
    before this call returns. *)
val on_data : t -> conn_id -> Bytes.t -> pos:int -> len:int -> unit

(** The peer hung up (EOF, reset): the session is discarded immediately. *)
val on_eof : t -> conn_id -> unit

(** The transport finished closing a connection {!should_close} asked for. *)
val on_closed : t -> conn_id -> unit

(** Periodic housekeeping: idle eviction. Call about once a second (or
    whenever {!next_deadline} expires). *)
val on_tick : t -> unit

(** {1 Queries (server → transport)} *)

(** Backpressure: read from this connection's socket only while [true]. *)
val wants_read : t -> conn_id -> bool

(** [out_view t id] is [(buf, pos, len)], the connection's out-queue
    bytes not yet written, in order. Write some prefix (with
    {!Writev.write}, or by copying it), then {!out_consume} it. The view
    is invalidated by any other call on [t]. *)
val out_view : t -> conn_id -> Bytes.t * int * int

(** [out_consume t id n] drops the first [n] bytes of the last
    {!out_view} (a short write leaves the rest queued, so the next write
    resumes exactly where this one stopped) and counts the write
    ([writevs]). *)
val out_consume : t -> conn_id -> int -> unit

(** Pending output bytes: the out queue's length. *)
val out_pending : t -> conn_id -> int

(** The connection should be closed once its out queue is empty. *)
val should_close : t -> conn_id -> bool

val conn_ids : t -> conn_id list

(** Earliest idle-eviction deadline among live sessions, for the select
    timeout. *)
val next_deadline : t -> float option

(** {1 Drain}

    {!drain} stops new sessions (they get a retryable [Shutting_down]
    error), sends every live session a [Shutting_down] error and marks it
    for drain-close. The transport exits once {!live_conns} reaches 0. *)

val drain : t -> unit
val draining : t -> bool
val live_conns : t -> int

(** {1 Observability} *)

(** Currently active sessions. *)
val sessions : t -> int

val cache : t -> St_streamtok.Engine_cache.t

(** Receive-buffer bytes moved by decoder compaction across all
    connections (live and closed): the price of frames straddling a read.
    Zero on a straddle-free run — the [decoder_copies] counter in
    {!stats_registry}. *)
val decoder_copies : t -> int

(** Install the STATS responder: when set, a STATS request is answered
    with [f ()]'s registry instead of this instance's own — the hook a
    {!Shard} worker uses to reply with pool-wide stats. *)
val set_stats_hook : t -> (unit -> Metrics.Registry.t) -> unit

(** An independent copy of this server's own metrics, in STATS order:
    sessions gauge + peak, open/close/reject/evict counters, bytes and
    token counters, the [feeds] / [feed_batches] / [flushes] /
    [writevs] / [decoder_copies] data-plane counters, error counters, and the
    per-FEED-batch latency log2 histogram in nanoseconds. Snapshots of
    servers built by {!create} share one shape, so a pool folds its
    workers' snapshots with {!Metrics.Registry.merge}. *)
val snapshot : t -> Metrics.Registry.t

(** [add_pool_metrics r ~cache ~uptime] appends the values that belong
    to the whole daemon rather than to one server — the engine-cache
    compile / hit / eviction counters and resident-entries gauge, read
    from [cache], and [uptime_seconds] — completing a STATS document. *)
val add_pool_metrics :
  Metrics.Registry.t -> cache:St_streamtok.Engine_cache.t -> uptime:float ->
  unit

(** This server's STATS document: {!snapshot} plus {!add_pool_metrics}
    for its own cache and start time. *)
val stats_registry : t -> Metrics.Registry.t

(** [refusal t ~message] counts a connection turned away before it
    became a session (in [sessions_rejected]) and returns the encoded
    retryable [Capacity] ERROR frame to send it before closing — the
    transport's reply when it cannot even track the fd. *)
val refusal : t -> message:string -> string
