(** [write(2)] for every socket write of the serve data plane.

    One syscall writes a slice of an {!Outbuf} straight from the queue's
    storage: the io loop drains a connection's out queue (see
    {!Server.out_view}), the CLI {!Client} its pending requests. The C
    stub is [@@noalloc]: non-blocking fds, no heap allocation, errors
    returned in-band as [-errno]. Unlike [Unix.write] and
    [Unix.single_write] it neither copies through a stack buffer nor
    caps a call at 64 KiB. *)

type result =
  | Written of int  (** bytes written from the front of the slice *)
  | Retry  (** EAGAIN/EWOULDBLOCK/EINTR: try again when writable *)
  | Closed  (** EPIPE/ECONNRESET: peer is gone *)
  | Error of int  (** other errno; the caller drops the connection *)

(** [write fd buf pos len] writes bytes [pos, pos+len) of [buf] on
    non-blocking [fd]. Raises [Invalid_argument] if the slice is not
    inside [buf]. *)
val write : Unix.file_descr -> Bytes.t -> int -> int -> result
