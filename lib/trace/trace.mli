(** st_trace: low-overhead event tracing for the streaming-tokenization
    hot path.

    Each domain owns a fixed-capacity binary ring of 20-byte event
    records (kind, probe id, monotonic nanosecond timestamp, argument)
    written with plain byte stores — no allocation, no locks, no
    syscalls on the emit path. When the ring is full the oldest record
    is overwritten and a per-ring drop counter ticks, so a recording can
    run forever and keep the most recent window.

    Probes are registered once (typically at module initialization) and
    identified by a small integer. A disabled tracer costs one mutable
    bool load and a conditional branch per probe site; the hot per-byte
    scanning loops carry no probes at all — instrumentation sits at
    chunk/frame/run granularity (see DESIGN.md).

    A recording is snapshotted with {!events} and exported as Chrome
    trace-event JSON ({!Chrome}, loadable in Perfetto) — the one on-disk
    trace format — or folded into an aggregated span tree ({!Report}).
    {!Heat} carries DFA state-heat tables (per-state visit/skip counts)
    alongside the event stream. *)

(* ---- Enablement ---- *)

(** The global switch. Probe sites in hot paths pre-test [!on] before
    computing any probe arguments; the emit functions below re-check it,
    so a bare [Trace.instant p] is also safe (and still cheap) when
    tracing is off. *)
val on : bool ref

val set_enabled : bool -> unit
val enabled : unit -> bool

(** Set by [streamtok trace record --heat]; commands that can run the
    instrumented engine (e.g. [tokenize]) consult it to enable state-heat
    collection and {!Heat.publish} their tables before exiting. *)
val heat_requested : bool ref

(* ---- Configuration ---- *)

(** [configure ~capacity_events:n] sets the per-domain ring capacity (in
    events) for rings created afterwards and resizes already-registered
    rings, discarding their contents. Call while tracing is disabled and
    no other domain is emitting. Default capacity: 65536 events/domain. *)
val configure : capacity_events:int -> unit

(** Clear all rings and drop counters (capacities are kept). *)
val reset : unit -> unit

(** Total events overwritten across all rings since the last [reset]. *)
val dropped : unit -> int

(* ---- Probes ---- *)

type probe

(** [probe ?cat name] interns a probe. Registering the same [name]/[cat]
    pair again returns the existing probe. [cat] buckets the span-tree
    report's category breakdown ("decode", "session", "engine", "flush",
    "io", ...); it defaults to ["misc"]. *)
val probe : ?cat:string -> string -> probe

(* ---- Emission ---- *)

val begin_span : probe -> unit
val end_span : probe -> unit

(** [with_span p f] wraps [f ()] in a begin/end pair (end is emitted on
    exceptions too). When tracing is disabled this is a tail call to [f]. *)
val with_span : probe -> (unit -> 'a) -> 'a

(** A point event (Chrome "instant"). *)
val instant : probe -> unit

(** [counter p v] records sample value [v] for counter-track [p]. *)
val counter : probe -> int -> unit

(* ---- Snapshot ---- *)

module Ev : sig
  type kind = Begin | End | Instant | Counter

  type t = {
    name : string;
    cat : string;
    kind : kind;
    ts_ns : int;  (** monotonic clock, not epoch-relative *)
    arg : int;  (** counter value; 0 otherwise *)
    tid : int;  (** per-domain ring id, 0 = first domain to emit *)
  }
end

(** Decoded contents of every ring, merged and sorted by timestamp
    (ties: ring id). Cheap to call repeatedly; does not clear the rings. *)
val events : unit -> Ev.t list

(* ---- DFA state heat ---- *)

module Heat : sig
  type row = {
    state : int;
    visits : int;  (** bytes consumed while in this state *)
    skipped : int;  (** bytes the self-loop accelerator skipped from it *)
    stop_bytes : int;  (** population of its accel stop-byte set; 0 = not accelerable *)
    rule : int;  (** accepting rule id, or -1 *)
    accel : bool;  (** accelerator enabled for this state *)
  }

  type table = {
    label : string;  (** grammar/engine identification *)
    states : int;
    bytes : int;  (** total input bytes behind the counts *)
    rows : row list;
  }

  (** Hottest [n] rows by [visits + skipped], ties broken by ascending
      state id — deterministic for a deterministic workload. *)
  val top : n:int -> table -> row list

  (** Process-global mailbox: instrumented runs publish tables here so
      [trace record] can collect them after the traced command returns. *)
  val publish : table -> unit

  val published : unit -> table list
  val clear_published : unit -> unit
  val to_json : table -> St_obs.Json.t
  val of_json : St_obs.Json.t -> (table, string) result

  (** Top-N table rendered as an aligned text block. *)
  val to_text : ?top_n:int -> table -> string
end

(* ---- Exporters ---- *)

module Chrome : sig
  (** Chrome trace-event format (the object form, with a [traceEvents]
      array), as consumed by Perfetto / chrome://tracing. Timestamps are
      microseconds relative to the first event. Heat tables ride along in
      a [stateHeat] extension field, which Perfetto ignores. *)

  val to_json : ?heat:Heat.table list -> Ev.t list -> St_obs.Json.t
  val to_string : ?heat:Heat.table list -> Ev.t list -> string
  val of_string : string -> (Ev.t list * Heat.table list, string) result
end

(* ---- Aggregated report ---- *)

module Report : sig
  type node = {
    name : string;
    cat : string;
    mutable total_ns : int;  (** inclusive time across all invocations *)
    mutable self_ns : int;  (** total minus traced children *)
    mutable count : int;
    mutable children : node list;  (** order of first appearance *)
  }

  type t = {
    events : int;
    threads : int;
    wall_ns : int;  (** last event timestamp minus first *)
    attributed_ns : int;  (** sum of root-span inclusive time *)
    by_cat : (string * int) list;  (** category -> self ns, descending *)
    counters : (string * int * int) list;
        (** instant/counter probe -> occurrences, summed args *)
    roots : node list;
  }

  (** Fold an event stream into a merged span tree. Spans are matched
      per-thread with a stack: an end event closes the innermost open
      span of the same name (closing any nested spans still open above
      it); unmatched ends are ignored; spans still open when the stream
      ends are closed at the thread's last timestamp. Identically-named
      paths from different threads and iterations merge into one node. *)
  val build : Ev.t list -> t

  (** [attribution_pct r] is attributed wall time as a percentage —
      above ~100 means nested roots across threads overlap. *)
  val attribution_pct : t -> float

  val to_text : ?max_depth:int -> t -> string
end
