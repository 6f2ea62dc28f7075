(* Tracing-layer overhead and attribution. Three measurements:

   1. Enabled-tracer overhead on the words workload — the same document
      pushed through Stream_tokenizer.feed in small chunks with tracing
      off vs on (every chunk emits a st.feed + engine.run span pair into
      the ring). Hard gate: <= 15% slower with the tracer recording.
   2. DFA state heat on the same run — the instrumented run's replayed
      per-state visit/skip counters, printed as the top-10 table (this is
      the `trace record --heat` path without the CLI).
   3. A traced loopback serve run — the whole daemon stack recorded, then
      folded into the span-tree report; the report must attribute the
      bulk of wall time to decode/session/engine/flush spans, which is
      what makes `trace report` a useful profile of the 4.5x serving
      overhead (EXPERIMENTS.md).

   Scalars go via STREAMTOK_BENCH_STATS into BENCH_trace.json. *)

open Streamtok
module W = Serve.Wire
module LB = Serve.Loopback

let overhead_gate_pct = 15.0
let attribution_floor_pct = 90.0

(* Small chunks on purpose: per-chunk span cost is the thing under test,
   so give it as many chances to show up as a real stream would. *)
let chunk = 1024

let words_grammar = "[a-z][a-z]*\n[ ][ ]*"

(* Realistic word-length mix (not one giant run): lengths 2..13, seeded. *)
let words_input target_bytes =
  let rng = Prng.create Bench_common.seed_data in
  let b = Buffer.create target_bytes in
  while Buffer.length b < target_bytes do
    let len = 2 + Prng.int rng 12 in
    for _ = 1 to len do
      Buffer.add_char b (Char.chr (Char.code 'a' + Prng.int rng 26))
    done;
    Buffer.add_char b ' '
  done;
  Buffer.contents b

let feed_all engine input =
  let count = ref 0 in
  let tok = Stream_tokenizer.create engine ~emit:(fun _ _ -> incr count) in
  let t0 = Unix.gettimeofday () in
  let pos = ref 0 in
  let n = String.length input in
  while !pos < n do
    let len = min chunk (n - !pos) in
    Stream_tokenizer.feed tok input !pos len;
    pos := !pos + len
  done;
  (match Stream_tokenizer.finish tok with
  | Engine.Finished -> ()
  | Engine.Failed _ -> failwith "trace bench: workload must tokenize");
  (Unix.gettimeofday () -. t0, !count)

(* Interleave off/on rounds so drift hits both sides equally. The ring is
   reset per traced round: a recording that wraps costs the same as one
   that fits, but the drop counter should stay meaningful. *)
let best_of_pair rounds engine input =
  let t_off = ref infinity and t_on = ref infinity in
  let tokens_off = ref 0 and tokens_on = ref 0 in
  for _ = 1 to rounds do
    Streamtok.Trace.set_enabled false;
    let dt, c = feed_all engine input in
    if dt < !t_off then t_off := dt;
    tokens_off := c;
    Streamtok.Trace.reset ();
    Streamtok.Trace.set_enabled true;
    let dt, c = feed_all engine input in
    Streamtok.Trace.set_enabled false;
    if dt < !t_on then t_on := dt;
    tokens_on := c
  done;
  if !tokens_off <> !tokens_on then begin
    Printf.eprintf "trace bench: token counts differ (off %d, on %d)\n"
      !tokens_off !tokens_on;
    exit 1
  end;
  (!t_off, !t_on, !tokens_off)

let heat_top10 engine input =
  let stats = Run_stats.create () in
  Run_stats.enable_state_heat stats ~states:(Dfa.size (Engine.dfa engine));
  ignore
    (Engine.run_string_instrumented engine input ~stats
       ~emit:(fun ~pos:_ ~len:_ ~rule:_ -> ()));
  Engine.heat_table ~label:"words" engine stats

(* Mirrors the serve bench's hot path — coalesced FEED bursts in,
   zero-copy reply views out — so the span tree profiles the data plane
   as production drives it. *)
let p_client_walk = Streamtok.Trace.probe ~cat:"decode" "client.walk"

let traced_loopback input =
  Streamtok.Trace.reset ();
  Streamtok.Trace.set_enabled true;
  let lb = LB.create () in
  let c = LB.connect lb in
  let count = ref 0 in
  (* the client's walk over each reply's token records is the client
     decode layer of the run: a span of its own, so the report accounts
     for it rather than leaving it unattributed *)
  let on_view v =
    if v.W.Decoder.vtag = W.tag_tokens then
      Streamtok.Trace.with_span p_client_walk (fun () ->
          match
            W.iter_tokens_view v (fun ~rule:_ ~buf:_ ~pos:_ ~len:_ -> ())
          with
          | Ok n -> count := !count + n
          | Error msg -> failwith ("trace bench: " ^ msg))
    else if v.W.Decoder.vtag = W.tag_error then
      failwith "trace bench: server error reply"
  in
  LB.send c (W.Open "json");
  let pos = ref 0 in
  let n = String.length input in
  let wire_chunk = 65536 in
  while !pos < n do
    let stop = min n (!pos + (4 * wire_chunk)) in
    while !pos < stop do
      let len = min wire_chunk (stop - !pos) in
      LB.send_feed_sub c input ~pos:!pos ~len;
      pos := !pos + len
    done;
    LB.run lb;
    LB.drain_views c on_view
  done;
  LB.send c W.Flush;
  LB.send c W.Close;
  LB.run lb;
  LB.drain_views c on_view;
  Streamtok.Trace.set_enabled false;
  (Streamtok.Trace.events (), !count)

let record name v =
  Bench_common.record_result ~experiment:"trace" ~name
    ~labels:[ ("workload", "words") ]
    v

let run ?(size_mb = 4) () =
  Bench_common.pp_header
    (Printf.sprintf
       "Trace: enabled-tracer overhead + serve-span attribution (words, %d \
        MB, %d B chunks)"
       size_mb chunk);
  let input = words_input (size_mb * 1024 * 1024) in
  let engine =
    match Engine.compile_rules (St_regex.Parser.parse_grammar words_grammar) with
    | Ok e -> e
    | Error _ -> assert false
  in
  Streamtok.Trace.configure ~capacity_events:65536;

  (* 1. enabled-tracer overhead *)
  let t_off, t_on, tokens = best_of_pair 7 engine input in
  let mb = float_of_int (String.length input) /. (1024. *. 1024.) in
  let overhead = (t_on /. t_off -. 1.) *. 100. in
  Printf.printf "  tracer off %8.1f MB/s  (%d tokens)\n" (mb /. t_off) tokens;
  Printf.printf "  tracer on  %8.1f MB/s  (%d spans/chunk pairs recorded)\n"
    (mb /. t_on)
    (List.length (Streamtok.Trace.events ()));
  Printf.printf "  enabled-tracer overhead: %+.2f%%  (gate %.0f%%)\n" overhead
    overhead_gate_pct;
  record "plain_mb_s" (mb /. t_off);
  record "traced_mb_s" (mb /. t_on);
  record "overhead_pct" overhead;
  record "overhead_gate_pct" overhead_gate_pct;
  if overhead > overhead_gate_pct then begin
    Printf.eprintf "trace bench: enabled-tracer overhead %.1f%% exceeds the \
                    %.0f%% gate\n"
      overhead overhead_gate_pct;
    exit 1
  end;

  (* 2. state heat via the instrumented run's heat replay *)
  let table = heat_top10 engine input in
  print_string (Streamtok.Trace.Heat.to_text ~top_n:10 table);
  (match Streamtok.Trace.Heat.top ~n:1 table with
  | { visits = 0; skipped = 0; _ } :: _ | [] ->
      prerr_endline "trace bench: heat table is empty";
      exit 1
  | { state; visits; skipped; _ } :: _ ->
      record "hottest_state" (float_of_int state);
      record "hottest_visits" (float_of_int (visits + skipped)));

  (* 3. traced loopback serve run -> span-tree attribution *)
  let serve_input =
    Gen_data.json ~seed:Bench_common.seed_data
      ~target_bytes:(2 * 1024 * 1024) ()
  in
  let evs, served = traced_loopback serve_input in
  let report = Streamtok.Trace.Report.build evs in
  print_string (Streamtok.Trace.Report.to_text ~max_depth:4 report);
  let attributed = Streamtok.Trace.Report.attribution_pct report in
  Printf.printf
    "  loopback serve: %d tokens, %d events, %.1f%% of wall attributed \
     (floor %.0f%%)\n"
    served (List.length evs) attributed attribution_floor_pct;
  record "serve_events" (float_of_int (List.length evs));
  record "attributed_pct" attributed;
  if attributed < attribution_floor_pct then begin
    Printf.eprintf
      "trace bench: span tree attributes only %.1f%% of serve wall time\n"
      attributed;
    exit 1
  end
