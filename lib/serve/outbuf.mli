(** A flat growable byte queue — the one buffer discipline of the serve
    data plane.

    Bytes [pos, len) of an internal [Bytes.t] are live; producers append
    at the tail ({!add_...}), consumers take from the head
    ({!view}/{!consume}). Storage is compacted in place only when the dead
    prefix dominates and reallocated by doubling otherwise, so a
    long-lived queue neither accretes memory nor moves bytes per frame.

    Five roles share it: per-connection out queues ({!Server}), the
    per-session token-record encoder ({!Session}), the loopback
    client→server queue ({!Loopback}), the CLI client's pending-write
    queue ({!Client}), and the frame decoder's input queue
    ({!Wire.Decoder}, fed with {!add_subbytes} / {!add_substring}). A
    connection's out queue is the one place its reply bytes wait:
    {!add_frame} / {!add_frame_substring} / {!add_frame_subbytes} write a
    [streamtok/wire/v1] frame (u32 length + tag + payload) into it in one
    pass, the payload blitted exactly once, and the transport drains it
    with {!view}/{!consume}. Every integer is written with the stdlib's
    [Bytes.set_int32_be]. *)

type t

val create : ?capacity:int -> unit -> t

(** Live bytes ([len - pos]). *)
val length : t -> int

(** Compactions and reallocations that moved live bytes. Zero while every
    room check finds the tail free or the queue empty: for the frame
    decoder, while no partial frame is carried across a feed that runs
    out of room ({!Wire.Decoder.copies}). *)
val moves : t -> int

(** Drop all content (storage kept). *)
val clear : t -> unit

(** {1 Producing} *)

val add_char : t -> char -> unit
val add_string : t -> string -> unit
val add_substring : t -> string -> int -> int -> unit
val add_subbytes : t -> Bytes.t -> int -> int -> unit
val add_buffer : t -> Buffer.t -> unit

(** Big-endian, as everywhere in the wire protocol. *)
val add_u32 : t -> int -> unit

(** [add_token t ~rule s pos len] appends one TOKENS record — u32 rule,
    u32 length, then [String.sub s pos len] — with one room check. *)
val add_token : t -> rule:int -> string -> int -> int -> unit

(** [add_frame dst ~tag src] appends one frame whose payload is [src]'s
    live bytes. [src] is not consumed (pair with {!clear}). *)
val add_frame : t -> tag:int -> t -> unit

val add_frame_substring : t -> tag:int -> string -> int -> int -> unit
val add_frame_subbytes : t -> tag:int -> Bytes.t -> int -> int -> unit

(** {1 Consuming} *)

(** [(buf, pos, len)] of the live bytes; invalidated by any [add_] (the
    storage may move). Write some prefix, then {!consume} it. *)
val view : t -> Bytes.t * int * int

(** The storage and the offset of the first live byte: {!view} without
    the tuple, for readers that must not allocate. Invalidated as
    {!view} is. *)
val storage : t -> Bytes.t

val head : t -> int

(** Drop [n] bytes from the head. Emptying the queue resets its offsets
    without moving bytes, so views taken before stay readable until the
    next [add_]. *)
val consume : t -> int -> unit
