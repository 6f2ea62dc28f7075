(** The daemon: a pool of N workers, each a full single-domain serving
    stack, with worker 0 also owning the listening socket.

    Each worker owns its own {!Server.t} session table, decoders, output
    queues, and an {!Io_loop.Core} select loop whose [extra] fds are its
    wakeup pipe and, for worker 0 of {!serve}, the listener. Unix-domain
    sockets have no [SO_REUSEPORT]-style kernel load balancing, so worker
    0 accepts every connection and hands them out round-robin: its own
    share it registers directly, the others go onto the target worker's
    mutex-guarded queue plus one byte into its wakeup pipe ({!inject}).
    The data plane runs without cross-domain synchronization. Only two
    things cross domains: the engine cache (one mutex-guarded
    {!St_streamtok.Engine_cache}, so N workers OPENing one grammar cost
    one compile) and the stats snapshots ({!Server.snapshot}, published
    by each worker under the pool mutex every ≤50 ms and folded with
    {!St_obs.Metrics.Registry.merge} — a STATS request to any worker
    answers for the whole pool).

    Shutdown: {!stop} raises the pool-wide flag and pokes every wakeup
    pipe; worker 0 closes the listener and unlinks the socket, every
    worker adopts any still-queued handoffs (so those clients get the
    retryable [Shutting_down] reply rather than a hangup), drains its
    sessions, and exits once its last connection closes; {!join} waits
    for them. Do not {!inject} after {!stop}. *)

type t

(** [create_pool ~domains ()] spawns [domains] worker domains with no
    listener — connections arrive only through {!inject} (tests and
    benchmarks hand in [socketpair] ends). Also ignores SIGPIPE
    process-wide: a worker writing to a dead client must not kill the
    daemon. *)
val create_pool : ?config:Server.config -> domains:int -> unit -> t

val domains : t -> int

(** Hand an accepted (or [socketpair]) fd to the next worker
    round-robin. The worker adopts it with {!Io_loop.Core.register}. The
    fd is owned by the pool from this point. *)
val inject : t -> Unix.file_descr -> unit

(** Begin pool-wide drain (idempotent, callable from any domain or a
    signal handler). *)
val stop : t -> unit

(** Wait for every spawned worker to finish draining, then release the
    wakeup pipes. *)
val join : t -> unit

(** The pool's STATS document from the workers' last published
    snapshots, merged, plus the shared cache's counters and the pool's
    uptime ([None] until the first worker publishes, i.e. only
    momentarily after {!create_pool}). Same metric names, kinds and
    order as {!Server.stats_registry}. *)
val stats : t -> St_obs.Metrics.Registry.t option

(** [serve ~domains ~socket ()] — the daemon. Binds [socket] (see
    {!Io_loop.listen}), spawns workers 1..[domains]-1, and runs worker 0
    with the listener in the calling domain, so [domains = 1] spawns no
    domain at all. On SIGTERM/SIGINT (or once [should_stop] returns
    [true], polled every ≤50 ms; given, it replaces the signal handlers
    — the hook for driving a daemon from a bench or a test) worker 0
    stops accepting and unlinks the socket, the pool drains, and [serve]
    returns after joining every worker. [on_listening] fires once the
    socket is accepting (the CLI prints its ready line from it).

    Raises [Invalid_argument] if [config.max_sessions * domains] is not
    below {!Io_loop.fd_setsize}, and [Unix.Unix_error] if the socket
    cannot be bound. *)
val serve :
  ?config:Server.config ->
  ?on_listening:(unit -> unit) ->
  ?should_stop:(unit -> bool) ->
  domains:int ->
  socket:string ->
  unit ->
  unit
