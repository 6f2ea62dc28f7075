module K = Engine.Kernel

(* A bare shell over the engine's streaming kernel: bounds check, trace
   span, kernel call. The per-byte work is all in [Engine.Kernel]. *)

type t = K.cursor

let create_slices engine ~emit = K.create engine ~emit

let create engine ~emit =
  create_slices engine ~emit:(fun buf pos len rule ->
      emit (String.sub buf pos len) rule)

let reset = K.reset
let failed = K.failed
let bytes_fed = K.fed
let accel_skipped_bytes = K.skipped
let swar_skipped_bytes = K.swar_skipped

let p_feed = St_trace.Trace.probe ~cat:"engine" "st.feed"
let p_finish = St_trace.Trace.probe ~cat:"engine" "st.finish"

(* Per-call trace spans; the probe never enters the chunk loop itself,
   so the disabled cost is a single bool load (and a closure) per call. *)
let feed t s pos len =
  St_trace.Trace.with_span p_feed @@ fun () ->
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Stream_tokenizer.feed";
  K.feed t s pos len

let feed_string t s = feed t s 0 (String.length s)

let finish t = St_trace.Trace.with_span p_finish @@ fun () -> K.finish t
