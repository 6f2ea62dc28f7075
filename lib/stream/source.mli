(** Byte-stream sources.

    A source is a [read] function in the style of [read(2)]: it fills at
    most [len] bytes and returns how many were filled, 0 meaning
    end-of-stream. The in-memory constructor can cap the bytes returned per
    call to model a pipe or socket that delivers data chunk-by-chunk. *)

type t

(** [read t buf ~pos ~len]. *)
val read : t -> bytes -> pos:int -> len:int -> int

(** [of_string ?max_per_read s]: reads from an in-memory string; each call
    returns at most [max_per_read] bytes (default: unlimited). *)
val of_string : ?max_per_read:int -> string -> t

(** Reads from a file descriptor with [read(2)]. [EINTR] is retried and
    [EAGAIN]/[EWOULDBLOCK] waits for readability with [select] before
    retrying, so the source behaves identically over blocking and
    non-blocking fds (pipes, sockets). End-of-stream is still a 0 return. *)
val of_fd : Unix.file_descr -> t

(** [of_fun f] wraps a raw read function. *)
val of_fun : (bytes -> pos:int -> len:int -> int) -> t

(** Number of read calls made so far (a proxy for syscall count). *)
val reads : t -> int

(** Total bytes delivered so far. *)
val bytes_read : t -> int
