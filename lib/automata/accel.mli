(** Self-loop run accelerator: the skip tables and scanners behind every
    forward hot loop.

    A state whose self-loop covers most of the alphabet gets a {e row}: a
    profitability flag (it self-loops on at least 4 bytes), a 256-bit
    stop-byte bitmap (bit set iff the byte leaves the state), and — at
    level {!Swar} — a scanner kind with up to 3 broadcast masks and a
    256-byte gather table. Each scanner is written once, for one cursor. Rows live in one growable table {!t}; [Dfa]
    fills one row per state once at build time, [Te_dfa] appends a row the
    first time a skip loop enters a powerstate. Hot loops test {!enters}
    after observing two self-loop steps, then let {!skip} (one cursor) or
    {!skip2} (two cursors, for the token-extension lead) consume the rest
    of the run without touching the transition table. The skip path
    allocates nothing. *)

(** How much of the accelerator a build carries: [Off] never skips (the
    unaccelerated reference build); [Bitmap] skips with the byte-at-a-time
    bitmap scanners only (the SWAR reference build); [Swar] (the default)
    adds the word-at-a-time scanners for rows with at most 3 stop bytes
    and a gather-table scanner for the rest. *)
type level = Off | Bitmap | Swar

type t

(** [create level ~capacity]: an empty table with room for [capacity]
    rows before it grows. Its flags are allocated (all zero) even at
    [Off], so {!enters} may be probed for any row below [capacity]. *)
val create : level -> capacity:int -> t

val level : t -> level

(** Rows derived so far. *)
val rows : t -> int

(** [add_row t ~classmap ~loops] derives the next row from a state's
    self-loop classes — [loops.[c] <> '\000'] iff class [c] maps the state
    to itself; [classmap.[b]] is byte [b]'s class — and returns its index,
    growing the table when full. At [Off] the row is never flagged. *)
val add_row : t -> classmap:string -> loops:Bytes.t -> int

(** The row is flagged accelerable. *)
val is_flagged : t -> int -> bool

(** [is_stop t r b]: byte [b] is a stop byte of row [r] (false at
    [Off]). Test and tool access; hot loops use {!enters}. *)
val is_stop : t -> int -> int -> bool

(** Population of row [r]'s stop set (0 at [Off]). *)
val stop_count : t -> int -> int

(** Flagged rows. *)
val flagged_count : t -> int

(** Rows in the SWAR tier (kinds 1–3; free-running rows run no word loop
    and are not counted). *)
val swar_count : t -> int

(** Bytes the table's arrays hold, at their allocated capacity. *)
val bytes : t -> int

(** Same level, same rows, same arrays. *)
val equal : t -> t -> bool

(** [enters t r b]: the skip-entry test — row [r] is flagged and byte [b]
    does not stop it, so a run continues through [b]. *)
val enters : t -> int -> int -> bool

(** Row [r] is scanned by a SWAR or free-running loop, kinds 1–4 (its
    skips count as [swar_skipped_bytes]). Only meaningful at [Bitmap] and
    [Swar]. *)
val is_swar : t -> int -> bool

(** Row [r]'s scanner: 0 bitmap, 1–3 SWAR with that many stop bytes, 4
    free-running (no stop byte), 5 gather table (more than 3 stop bytes).
    Always 0 below level [Swar], never 0 at [Swar]. Test and tool
    access. *)
val kind : t -> int -> int

(** [mask t r i]: row [r]'s broadcast mask in lane [i] (0–2) — the stop
    byte times [0x0101010101010101]; rows with fewer than 3 stop bytes
    repeat the last real mask. Only meaningful for kinds 1–3 at level
    [Swar]. Test and tool access. *)
val mask : t -> int -> int -> int64

(** [skip t r s pos limit]: the first index in [[pos, limit)] holding a
    stop byte of row [r], or [limit] when the whole range self-loops.
    Dispatches on the row's kind: SWAR rows scan 8 bytes per 64-bit load,
    free-running rows return [limit] at once, many-stop rows test 8 bytes
    per iteration through the gather table, bitmap rows take
    {!skip_bitmap}. Callers reach it only after {!enters} held. *)
val skip : t -> int -> string -> int -> int -> int

(** The byte-at-a-time bitmap scanner of {!skip}, callable directly: the
    reference the [Swar] level is tested and benched against. *)
val skip_bitmap : t -> int -> string -> int -> int -> int

(** [skip2 a ra b rb ~off s pos limit]: the two-cursor scan for the
    token-extension paths — the first index [i] in [[pos, limit)] where
    [s.[i]] stops row [ra] of [a] or [s.[i + off]] stops row [rb] of [b],
    or [limit]. Two {!skip} calls per window: A scans the window, B scans
    up to A's stop. Windows start at 32 bytes and double while both sides
    run clean, so neither side scans more than 32 bytes plus twice the
    run past the first stop. The caller guarantees that both cursors stay
    in bounds: [pos + off >= 0] and [limit + off <= String.length s]. *)
val skip2 :
  t -> int -> t -> int -> off:int -> string -> int -> int -> int
