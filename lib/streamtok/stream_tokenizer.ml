module K = Engine.Kernel

(* A thin shell over the engine's streaming kernel: bounds checks, stats,
   trace spans and the coalesced-segment path. The per-byte work is all in
   [Engine.Kernel]. *)

type t = { engine : Engine.t; cur : K.cursor; stats : Run_stats.t option }

let create_slices ?stats engine ~emit =
  let emit =
    match stats with
    | None -> emit
    | Some st ->
        Run_stats.set_lookahead st (max (Engine.k engine) 1);
        Run_stats.set_accel_states st (Engine.accel_states engine);
        Run_stats.set_accel_swar_states st (Engine.accel_swar_states engine);
        fun buf pos len rule ->
          Run_stats.record_token st ~rule ~len;
          emit buf pos len rule
  in
  { engine; cur = K.create engine ~emit; stats }

let create ?stats engine ~emit =
  create_slices ?stats engine ~emit:(fun buf pos len rule ->
      emit (String.sub buf pos len) rule)

let reset t = K.reset t.cur
let failed t = K.failed t.cur
let bytes_fed t = K.fed t.cur
let accel_skipped_bytes t = K.skipped t.cur
let swar_skipped_bytes t = K.swar_skipped t.cur

let p_feed = St_trace.Trace.probe ~cat:"engine" "st.feed"
let p_finish = St_trace.Trace.probe ~cat:"engine" "st.finish"

(* One chunk with its stats: chunk size, a failure it detects, and the
   carried bytes sampled before and after it, so the high-water mark
   reflects what survives chunk boundaries. *)
let feed_chunk t st s pos len =
  Run_stats.add_chunk st len;
  Run_stats.observe_buffer st (K.carried t.cur);
  let running = K.running t.cur in
  K.feed t.cur s pos len;
  if running && K.failed t.cur then Run_stats.record_failure st;
  Run_stats.observe_buffer st (K.carried t.cur)

(* Per-call trace spans; the probe never enters the chunk loop itself,
   so the disabled cost is a single bool load (and a closure) per call. *)
let feed t s pos len =
  St_trace.Trace.with_span p_feed @@ fun () ->
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Stream_tokenizer.feed";
  match t.stats with
  | None -> K.feed t.cur s pos len
  | Some st ->
      let sk0 = K.skipped t.cur and sw0 = K.swar_skipped t.cur in
      feed_chunk t st s pos len;
      Run_stats.add_accel_skipped st (K.skipped t.cur - sk0);
      Run_stats.add_swar_skipped st (K.swar_skipped t.cur - sw0)

(* The coalesced-FEED path: many chunks, one call. Each [(pos, len)]
   segment of [s] is processed as its own chunk — carried bytes and
   failure semantics at segment boundaries are bit-identical to calling
   {!feed} once per segment — but the per-call overhead (validation, the
   trace span, skip-counter deltas) is paid once for the batch. Processing
   stops at the segment that fails the stream: later segments are neither
   consumed nor counted, matching the serving layer's drop-after-failure
   contract ({!Session.feed_views} never feeds a failed stream). *)
let feed_batch t segs n =
  St_trace.Trace.with_span p_feed @@ fun () ->
  if n < 0 || n > Array.length segs then
    invalid_arg "Stream_tokenizer.feed_batch";
  for j = 0 to n - 1 do
    let s, pos, len = Array.unsafe_get segs j in
    if pos < 0 || len < 0 || pos + len > String.length s then
      invalid_arg "Stream_tokenizer.feed_batch"
  done;
  let sk0 = K.skipped t.cur and sw0 = K.swar_skipped t.cur in
  let j = ref 0 in
  while !j < n && K.running t.cur do
    let s, pos, len = Array.unsafe_get segs !j in
    (match t.stats with
    | Some st -> feed_chunk t st s pos len
    | None -> K.feed t.cur s pos len);
    incr j
  done;
  match t.stats with
  | Some st ->
      Run_stats.add_accel_skipped st (K.skipped t.cur - sk0);
      Run_stats.add_swar_skipped st (K.swar_skipped t.cur - sw0)
  | None -> ()

let feed_string t s = feed t s 0 (String.length s)

let finish t =
  St_trace.Trace.with_span p_finish @@ fun () ->
  let running = K.running t.cur in
  let outcome = K.finish t.cur in
  (match t.stats with
  | Some st when running ->
      (match outcome with
      | Engine.Failed _ -> Run_stats.record_failure st
      | Engine.Finished -> ());
      Run_stats.set_te_states st (Engine.te_states t.engine)
  | _ -> ());
  outcome

