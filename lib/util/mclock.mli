(** Monotonic clock.

    [Timer] uses [Unix.gettimeofday], which is wall time: it can jump
    backwards under NTP adjustment and costs a float allocation per call.
    Tracing needs neither, so this module wraps
    [clock_gettime(CLOCK_MONOTONIC)] in a C stub that returns nanoseconds
    as an immediate (unboxed, allocation-free) OCaml [int]. *)

(** Nanoseconds since an arbitrary fixed origin; strictly non-decreasing. *)
external now_ns : unit -> int = "st_mclock_now_ns" [@@noalloc]
