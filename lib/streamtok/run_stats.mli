(** Run-time observability for one tokenization run (the instrumented-runner
    pattern).

    The one instrumented runner, {!Engine.run_string_instrumented}, runs
    the same kernel as the plain runners ({!Engine.run_string},
    {!Stream_tokenizer}). Everything here
    is updated per chunk or per run except the per-rule token tally, which
    is a single unchecked array increment per token — measured ≤2%
    overhead on the [bench/micro.ml] hot loops (the `smoke` subcommand
    gates it) — and, only while state heat is on, the per-state counters
    (one add per skip in the kernel, one A step per byte per token).

    Exported metric names (see README §Observability):
    - [bytes_in] (counter) — input bytes consumed
    - [chunks] (counter) — feed calls (1 for one-shot runs)
    - [chunk_bytes] (histogram, log2 buckets) — chunk size distribution
    - [tokens] (counter) — tokens emitted (sum over rules)
    - [rule_tokens{rule=...}] (counter per rule) — tokens per rule
    - [failures] (counter) — runs that ended in [Engine.Failed]
    - [buffer_high_water_bytes] (gauge) — pending token + lookahead bytes
      retained across chunk boundaries, high-water mark
    - [lookahead_bytes] (gauge) — the engine's lookahead window, max(K, 1)
    - [te_states] (gauge) — token-extension powerstates materialized so far
    - [accel_states] (gauge) — accelerable (skip-loop) DFA states
    - [accel_skipped_bytes] (counter) — bytes consumed by skip loops without
      table steps
    - [accel_skip_ratio] (gauge) — [accel_skipped_bytes / bytes_in], the
      per-run skip ratio (omitted until bytes flow)
    - [accel_swar_states] (gauge) — accelerable states classified into the
      SWAR (64-bit scan) tier, kinds 1–3
    - [swar_skipped_bytes] (counter) — bytes consumed by SWAR-classified
      skip loops (a subset of [accel_skipped_bytes])
    - [run_seconds] (span) — wall-clock time inside instrumented runs *)

type t

val create : unit -> t

(** {1 Recording} (used by the instrumented runners) *)

(** [rule_slots t n] returns the per-rule tally array, grown to hold rules
    [0..n-1]; the hot loop increments it with unsafe accesses, so [n] must
    be ≥ 1 + the largest rule id the run can emit. *)
val rule_slots : t -> int -> int array

(** [record_token t ~rule ~len] — per-token tally for non-hot callers
    (grows the rule table on demand). [len] is accepted for interface
    symmetry; only the tally is updated. *)
val record_token : t -> rule:int -> len:int -> unit

(** [enable_state_heat t ~states] turns on per-DFA-state heat counters
    (visits = bytes consumed in the state; skipped = bytes the self-loop
    accelerator skipped from it) for subsequent instrumented runs. The
    kernel's skip branches count [skipped]; the instrumented runner steps
    each token through A to count arrivals, and visits = arrivals −
    skipped. Off by default — the arrays stay [[||]], the kernel's skip
    branches count nothing and no token is stepped twice. *)
val enable_state_heat : t -> states:int -> unit

val heat_enabled : t -> bool

(** [heat_slots t n] returns [(arrivals, skipped)] grown to at least [n]
    slots, for the instrumented runner's and the kernel's increments
    (mirror of {!rule_slots}). *)
val heat_slots : t -> int -> int array * int array

(** Per state, arrivals − skipped: a fresh array. *)
val state_visits : t -> int array
val state_skipped : t -> int array

val add_chunk : t -> int -> unit
val observe_buffer : t -> int -> unit
val set_lookahead : t -> int -> unit
val set_te_states : t -> int -> unit
val set_accel_states : t -> int -> unit
val add_accel_skipped : t -> int -> unit
val set_accel_swar_states : t -> int -> unit
val add_swar_skipped : t -> int -> unit
val record_failure : t -> unit
val add_run_seconds : t -> float -> unit

(** {1 Reading} *)

val bytes_in : t -> int
val chunks : t -> int
val accel_skipped : t -> int
val swar_skipped : t -> int
val tokens_out : t -> int
val failures : t -> int
val rule_count : t -> int -> int

(** {1 Export} *)

(** Snapshot into a fresh registry. [rule_name] labels the per-rule
    counters (default [string_of_int]); rules with zero tokens are
    omitted. *)
val to_registry : ?rule_name:(int -> string) -> t -> St_obs.Metrics.Registry.t

val to_json_string : ?rule_name:(int -> string) -> t -> string
val to_prometheus : ?rule_name:(int -> string) -> t -> string
