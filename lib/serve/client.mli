(** Line client for the daemon: connect, OPEN, stream FEEDs, FLUSH,
    optionally STATS, CLOSE — printing tokens exactly as
    [streamtok tokenize] does, so the serve smoke test can diff the two
    byte-for-byte.

    The socket is non-blocking and reads/writes are interleaved through
    [Unix.select]: the server stops reading a session whose reply queue
    is over budget, so a client that only wrote and never read could
    deadlock against its own unread tokens. Requests leave through
    {!Writev.write}, as the daemon's replies do, and replies are read
    with {!Wire.read_replies}, as every client reads them. *)

(** [append_escaped b buf pos len] appends exactly what
    [Printf "%S" (Bytes.sub_string buf pos len)] would print — quotes +
    [String.escaped]'s escaping — without materializing the lexeme. The
    client's hot print path; exposed for the byte-parity test. *)
val append_escaped : Buffer.t -> Bytes.t -> int -> int -> unit

(** [append_padded b name] appends [Printf "%-12s " name]. *)
val append_padded : Buffer.t -> string -> unit

type outcome = {
  exit_code : int;
      (** 0 ok; 1 lexical failure or server error; 2 connection/protocol
          failure *)
  tokens : int;
}

(** [run ~socket ~grammar ~input ()] tokenizes [input] (a whole document
    or a stream read incrementally from [input_fd]) through the daemon.

    [grammar] is the usual spec: built-in name, [@inline] rules, or
    grammar source (the caller resolves file paths to source). Tokens go
    to [out] as ["%-12s %S\n" rule_name lexeme]; IDS frames (token-id
    mode BPE sessions) print one decimal id per line. [stats], if given,
    requests a STATS document after FLUSH and prints the body to [err]
    (or the file given by [stats_dest]).

    [open_request] replaces the initial [Wire.Open grammar] frame — the
    CLI uses it to send [Wire.Open_bpe] for [bpe:<vocab>] specs;
    [grammar] is then only documentation.

    Ignores SIGPIPE process-wide: a refused connection is reported from
    the server's ERROR reply, not lost to the signal. *)
val run :
  socket:string ->
  grammar:string ->
  input:[ `String of string | `Fd of Unix.file_descr ] ->
  ?open_request:Wire.request ->
  ?out:out_channel ->
  ?err:out_channel ->
  ?stats:Wire.format ->
  ?stats_dest:string ->
  unit ->
  outcome
