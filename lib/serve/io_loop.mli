(** The socket side of the daemon: a [Unix.select] round over
    non-blocking sockets driving one {!Server}, and the listening socket
    with its accept-side fd bounds.

    All byte movement and fd lifecycle lives in {!Core}; protocol and
    policy live in {!Server}/{!Session}, which is why the rest of the
    subsystem never needs a real socket to be tested. {!Core} is the
    event loop of every {!Shard} worker: each runs the same select round
    with its wakeup pipe as an [extra] fd, and worker 0 adds the
    {!listener}.

    Writes are vectored: a connection's queued replies and its deferred
    token batch (header + session-encoder bytes, never blitted through
    the out queue) go out in one {!Writev.write}.

    fd bounds: an fd at or above {!fd_setsize} never enters [select] —
    it is answered with a retryable [Capacity] error and closed — and a
    listener out of fds (EMFILE/ENFILE) spends a reserved fd to accept
    and refuse the next pending connection the same way, so neither
    kills the daemon nor spins it on a readable listener. *)

(** [FD_SETSIZE]: [Unix.select] cannot watch an fd at or above it. *)
val fd_setsize : int

(** A bound, listening, non-blocking Unix-domain socket plus one
    reserved fd for the out-of-fds refusal. *)
type listener

(** [listen ~socket] binds and listens. A stale socket file (bind
    refused, nobody accepting) is unlinked and rebound; a live one raises
    [EADDRINUSE]. *)
val listen : socket:string -> listener

(** Close the listening fd and the reserve, and unlink the socket file.
    Idempotent. *)
val close_listener : listener -> unit

(** The fds to add to a select round's [extra] for this listener: none
    once closed, or for 100 ms after an accept that could not get an fd
    even from the reserve. *)
val watch : listener -> now:float -> Unix.file_descr list

(** One server's event loop state: the fd↔conn-id tables, the shared
    read buffer, and the writev scratch. Single-domain, like the
    {!Server.t} it drives. *)
module Core : sig
  type t

  val create : Server.t -> t

  (** Adopt an accepted (or handed-off) socket: set it non-blocking,
      {!Server.on_connect} it, track it. An fd at or above {!fd_setsize}
      is refused instead (see {!Server.refusal}). *)
  val register : t -> Unix.file_descr -> unit

  (** [iterate t ~extra ~max_timeout] runs one select round — reads
      ready connections into {!Server.on_data}, issues vectored writes
      for pending output, completes drain-closes, ticks — and returns
      the subset of [extra] fds (listener, wakeup pipe — watched for
      readability, never read here) that were ready. The timeout is
      capped at [max_timeout] seconds and tightened to the server's next
      idle deadline. *)
  val iterate :
    t -> extra:Unix.file_descr list -> max_timeout:float ->
    Unix.file_descr list

  (** [accept t l ~handoff] accepts every pending connection on [l] and
      passes each fd to [handoff] (which {!register}s it here or in
      another worker). At EMFILE/ENFILE the reserved fd is released to
      accept one connection, which gets a retryable [Capacity] error and
      is closed, and the reserve is reopened. *)
  val accept : t -> listener -> handoff:(Unix.file_descr -> unit) -> unit
end
