(** [writev(2)] for the io loop's gathered flush path.

    One syscall writes the connection's queued output {e and} the
    deferred token batch (frame header + the session encoder's bytes)
    without first blitting them into one buffer — see
    {!Server.out_vectors}. The C stub is [@@noalloc] (non-blocking fds,
    no heap allocation, errors returned in-band as [-errno]) and gathers
    at most 8 segments; callers never pass more than 3 (out queue, frame
    header, encoder). *)

type result =
  | Written of int  (** bytes written across the segments, in order *)
  | Retry  (** EAGAIN/EWOULDBLOCK/EINTR: try again when writable *)
  | Closed  (** EPIPE/ECONNRESET: peer is gone *)
  | Error of int  (** other errno; the caller drops the connection *)

(** [write fd iovs n] gathers the first [n] [(bytes, pos, len)] segments
    of [iovs] into one write on non-blocking [fd]. *)
val write : Unix.file_descr -> (Bytes.t * int * int) array -> int -> result
