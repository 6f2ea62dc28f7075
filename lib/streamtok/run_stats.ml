module Metrics = St_obs.Metrics

type t = {
  mutable bytes_in : int;
  mutable chunks : int;
  mutable failures : int;
  mutable buffer_high_water : int;
  mutable lookahead : int;
  mutable te_states : int;
  mutable accel_states : int;
  mutable accel_skipped : int;
  mutable accel_swar_states : int;
  mutable swar_skipped : int;
  mutable rule_counts : int array;
  mutable state_arrivals : int array;  (* [||] until state heat is enabled *)
  mutable state_skipped : int array;
  chunk_bytes : Metrics.Histogram.t;
  run_span : Metrics.Span.t;
}

let create () =
  {
    bytes_in = 0;
    chunks = 0;
    failures = 0;
    buffer_high_water = 0;
    lookahead = 0;
    te_states = 0;
    accel_states = 0;
    accel_skipped = 0;
    accel_swar_states = 0;
    swar_skipped = 0;
    rule_counts = [||];
    state_arrivals = [||];
    state_skipped = [||];
    chunk_bytes = Metrics.Histogram.create ();
    run_span = Metrics.Span.create ();
  }

let rule_slots t n =
  if Array.length t.rule_counts < n then begin
    let grown = Array.make n 0 in
    Array.blit t.rule_counts 0 grown 0 (Array.length t.rule_counts);
    t.rule_counts <- grown
  end;
  t.rule_counts

let grow a n =
  if Array.length a >= n then a
  else begin
    let grown = Array.make n 0 in
    Array.blit a 0 grown 0 (Array.length a);
    grown
  end

let enable_state_heat t ~states =
  let n = max 1 states in
  t.state_arrivals <- grow t.state_arrivals n;
  t.state_skipped <- grow t.state_skipped n

let heat_enabled t = Array.length t.state_arrivals > 0

let heat_slots t n =
  t.state_arrivals <- grow t.state_arrivals n;
  t.state_skipped <- grow t.state_skipped n;
  (t.state_arrivals, t.state_skipped)

(* A skipped byte arrives in the state it self-loops in. *)
let state_visits t =
  Array.mapi (fun q a -> a - t.state_skipped.(q)) t.state_arrivals
let state_skipped t = t.state_skipped

let record_token t ~rule ~len =
  ignore len;
  let rc = rule_slots t (rule + 1) in
  rc.(rule) <- rc.(rule) + 1

let add_chunk t n =
  t.chunks <- t.chunks + 1;
  t.bytes_in <- t.bytes_in + n;
  Metrics.Histogram.observe t.chunk_bytes n

let observe_buffer t n =
  if n > t.buffer_high_water then t.buffer_high_water <- n

let set_lookahead t n = t.lookahead <- n
let set_te_states t n = t.te_states <- n
let set_accel_states t n = t.accel_states <- n
let add_accel_skipped t n = t.accel_skipped <- t.accel_skipped + n
let accel_skipped t = t.accel_skipped
let set_accel_swar_states t n = t.accel_swar_states <- n
let add_swar_skipped t n = t.swar_skipped <- t.swar_skipped + n
let swar_skipped t = t.swar_skipped
let record_failure t = t.failures <- t.failures + 1
let add_run_seconds t dt = Metrics.Span.add t.run_span dt

let bytes_in t = t.bytes_in
let chunks t = t.chunks
let tokens_out t = Array.fold_left ( + ) 0 t.rule_counts
let failures t = t.failures

let rule_count t r =
  if r >= 0 && r < Array.length t.rule_counts then t.rule_counts.(r) else 0

let to_registry ?(rule_name = string_of_int) t =
  let r = St_obs.Metrics.Registry.create () in
  let open St_obs.Metrics.Registry in
  let c name help v = Metrics.Counter.add (counter r ~help name) v in
  let g name help v = Metrics.Gauge.set_int (gauge r ~help name) v in
  c "bytes_in" "input bytes consumed" t.bytes_in;
  c "chunks" "chunks fed (1 for one-shot runs)" t.chunks;
  add r
    {
      St_obs.Metrics.name = "chunk_bytes";
      help = "chunk size distribution (log2 buckets)";
      labels = [];
      kind = St_obs.Metrics.Histogram t.chunk_bytes;
    };
  c "tokens" "tokens emitted" (tokens_out t);
  Array.iteri
    (fun rule n ->
      if n > 0 then
        Metrics.Counter.add
          (counter r ~help:"tokens per rule"
             ~labels:[ ("rule", rule_name rule) ]
             "rule_tokens")
          n)
    t.rule_counts;
  c "failures" "runs that ended untokenizable" t.failures;
  g "buffer_high_water_bytes"
    "pending token + lookahead bytes retained across chunks (high-water)"
    t.buffer_high_water;
  g "lookahead_bytes" "lookahead window, max(K, 1)" t.lookahead;
  g "te_states" "token-extension powerstates materialized" t.te_states;
  g "accel_states" "accelerable (skip-loop) DFA states" t.accel_states;
  c "accel_skipped_bytes" "bytes consumed by skip loops without table steps"
    t.accel_skipped;
  g "accel_swar_states" "accelerable states in the SWAR (64-bit scan) tier"
    t.accel_swar_states;
  c "swar_skipped_bytes"
    "bytes consumed by SWAR-classified skip loops (subset of \
     accel_skipped_bytes)"
    t.swar_skipped;
  if t.bytes_in > 0 then
    Metrics.Gauge.set
      (St_obs.Metrics.Registry.gauge r
         ~help:"fraction of input bytes consumed by skip loops"
         "accel_skip_ratio")
      (float_of_int t.accel_skipped /. float_of_int t.bytes_in);
  add r
    {
      St_obs.Metrics.name = "run_seconds";
      help = "wall-clock time inside instrumented runs";
      labels = [];
      kind = St_obs.Metrics.Span t.run_span;
    };
  r

let to_json_string ?rule_name t =
  St_obs.Export.to_json_string (to_registry ?rule_name t)

let to_prometheus ?rule_name t =
  St_obs.Export.to_prometheus (to_registry ?rule_name t)
