(** Zero-dependency metric primitives for the StreamTok pipeline.

    Four metric kinds, chosen to cover the paper's evaluation quantities:
    monotone {!Counter}s (bytes, tokens, chunks), {!Gauge}s with a
    high-water-mark update (lookahead buffer occupancy, table sizes),
    log2-bucketed {!Histogram}s (chunk sizes — exact enough for capacity
    planning, constant memory), and {!Span} timers (compile phases, runs).

    Updates are single field stores or array increments, safe to use from
    per-chunk code. The hot per-byte loops are never instrumented — see
    [Run_stats] in [st_streamtok] for the instrumented-runner pattern.

    Metrics carry no internal synchronization: one writer per metric (the
    parallel tokenizer records from its sequential splice pass only). *)

module Counter : sig
  type t

  val create : unit -> t
  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
end

module Gauge : sig
  type t

  val create : unit -> t
  val set : t -> float -> unit
  val set_int : t -> int -> unit

  (** [set_max g v] keeps the maximum of [v] and the current value —
      high-water-mark semantics. *)
  val set_max : t -> float -> unit

  val value : t -> float
end

module Histogram : sig
  (** Log2-bucketed histogram over non-negative integers: bucket [i] counts
      observations [v] with [2^(i-1) ≤ v < 2^i] (bucket 0 counts [v ≤ 0]),
      i.e. the bucket index is the bit length of [v]. 63 buckets cover the
      whole int range in constant memory. *)

  type t

  val create : unit -> t
  val observe : t -> int -> unit

  (** [observe_seconds h dt] records a wall-clock duration as integer
      nanoseconds, so log2 buckets double from 1 ns up — the latency
      histogram used by the serving layer's per-FEED timings. Negative
      durations (clock steps) land in bucket 0. *)
  val observe_seconds : t -> float -> unit

  val count : t -> int
  val sum : t -> int
  val max_value : t -> int

  (** Independent deep copy — the snapshot a worker domain publishes so
      an aggregator can read it without racing further observations. *)
  val copy : t -> t

  (** [merge dst src] folds [src]'s distribution into [dst] (per-bucket
      count sums, summed [count]/[sum], max of maxima). Exact: every
      histogram shares the same log2 bucket boundaries. [src] is not
      modified. *)
  val merge : t -> t -> unit

  (** Bit length of [max v 0]: the bucket an observation lands in. *)
  val bucket_index : int -> int

  (** Inclusive upper bound of bucket [i]: [2^i - 1]. *)
  val bucket_upper : int -> int

  (** Non-empty prefix of buckets as [(inclusive_upper_bound, count)], in
      increasing bound order, ending at the highest non-empty bucket. *)
  val buckets : t -> (int * int) list

  (** [percentile h q] estimates the [q]-quantile ([q] in [[0,1]]) by
      locating the log2 bucket containing rank [q * count] and
      interpolating linearly within it (observations assumed uniform over
      the bucket's [[2^(i-1), 2^i - 1]] range). Error is bounded by the
      bucket width, i.e. the estimate is within 2x of the true quantile;
      results are clamped to [max_value] and [0.] is returned for an empty
      histogram. *)
  val percentile : t -> float -> float
end

module Span : sig
  (** Cumulative wall-clock timer: total seconds and number of timed
      sections. *)

  type t

  val create : unit -> t
  val time : t -> (unit -> 'a) -> 'a
  val add : t -> float -> unit
  val count : t -> int
  val seconds : t -> float
end

type kind =
  | Counter of Counter.t
  | Gauge of Gauge.t
  | Histogram of Histogram.t
  | Span of Span.t

type metric = {
  name : string;
  help : string;
  labels : (string * string) list;
  kind : kind;
}

module Registry : sig
  (** An ordered collection of named metrics; the unit of export
      ({!Export.to_json_string}, {!Export.to_prometheus}). *)

  type t

  val create : unit -> t

  (** [add r metric] appends; names need not be unique (Prometheus-style
      same-name series with different labels are one name, many rows). *)
  val add : t -> metric -> unit

  val counter : t -> ?help:string -> ?labels:(string * string) list -> string -> Counter.t
  val gauge : t -> ?help:string -> ?labels:(string * string) list -> string -> Gauge.t

  val histogram :
    t -> ?help:string -> ?labels:(string * string) list -> string -> Histogram.t

  val span : t -> ?help:string -> ?labels:(string * string) list -> string -> Span.t

  (** Registration order. *)
  val metrics : t -> metric list

  (** Independent deep copy: same names, labels, kinds and order, values
      frozen at the time of the call. The snapshot a worker domain
      publishes so an aggregator can read it without racing further
      updates. *)
  val copy : t -> t

  (** [merge dst src] folds [src] into [dst] metric by metric: counters,
      gauges and spans sum, histograms {!Histogram.merge}. Both registries
      must list the same names and kinds in the same order (as two
      registries built by the same code do); otherwise raises
      [Invalid_argument]. [src] is not modified. *)
  val merge : t -> t -> unit
end
