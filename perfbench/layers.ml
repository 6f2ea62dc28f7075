(* The traced run: the workload's documents pushed through each layer's
   public calls in-process, interleaved across rounds with end-to-end
   passes through the daemon, so every layer's cost is measured on the
   same input as the end-to-end figure.

   Layers, innermost first (each one's marginal cost is its ns/byte minus
   the layer below it):
     compile   Parser / Vocab, Nfa.of_rules, Dfa.of_nfa, Dfa.of_rules
               (minimize), Tnd.max_tnd, Engine.compile_timed,
               Bpe.Compiler.audit
     engine    Engine.run_string
     stream    Stream_tokenizer.feed / finish at the FEED size
     session   Session.feed_views + batch / batch_clear, FLUSH
     loopback  Loopback (Server.on_data + Wire.Decoder), no sockets
     socket    the real daemon through the load generator

   Each pass also checks parity against the workload's references, and
   every call is wrapped in a St_trace span; the recording is written as
   Chrome JSON plus a span-tree report at the end. *)

open Streamtok
open Common
module W = Serve.Wire
module LB = Serve.Loopback
module Trace = Streamtok.Trace

let span_compile = Trace.probe ~cat:"compile" "layer.compile"
let span_engine = Trace.probe ~cat:"engine" "layer.engine"
let span_stream = Trace.probe ~cat:"stream" "layer.stream"
let span_session = Trace.probe ~cat:"session" "layer.session"
let span_loopback = Trace.probe ~cat:"loopback" "layer.loopback"
let span_socket = Trace.probe ~cat:"socket" "layer.socket"

(* A grammar with an in-process engine and a warm loopback session. *)
type item = {
  g : Workload.grammar;
  engine : Engine.t;
  lb : LB.t;
  lbc : LB.conn;
}

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (now_ns () - t0, r)

let outcome_digest n h text = function
  | Engine.Finished -> { count = n; hash = h; ok = true; offset = String.length text }
  | Engine.Failed { offset; _ } -> { count = n; hash = h; ok = false; offset }

(* ---- compile ---- *)

type compile_sample = {
  parse_ns : int;
  nfa_ns : int;
  subset_ns : int;
  minimize_ns : int;
  tnd_ns : int;
  build_ns : int;
  audit_ns : int;
  states : int;
}

let compile_one (g : Workload.grammar) =
  let parse_ns, (rules, vocab) =
    timed (fun () ->
        match g.request with
        | W.Open_bpe { vocab; _ } -> (
            match Bpe.Vocab.of_string vocab with
            | Ok v -> (Bpe.Compiler.rules_of_vocab v, Some v)
            | Error e -> failwith e)
        | W.Open spec -> (Workload.resolve_rules spec, None)
        | _ -> assert false)
  in
  let max_states = Option.map (fun _ -> Bpe.Compiler.default_max_states) vocab in
  let audit_ns, _ =
    timed (fun () -> Option.map Bpe.Compiler.audit vocab)
  in
  let nfa_ns, nfa = timed (fun () -> Nfa.of_rules rules) in
  let subset_ns, _ = timed (fun () -> Dfa.of_nfa ?max_states nfa) in
  let unmin_ns, _ = timed (fun () -> Dfa.of_rules ~minimize:false ?max_states rules) in
  let min_ns, dfa = timed (fun () -> Dfa.of_rules ?max_states rules) in
  let tnd_ns, tnd = timed (fun () -> Tnd.max_tnd dfa) in
  let build_ns =
    match tnd with
    | Tnd.Infinite -> 0
    | Tnd.Finite _ -> (
        match Engine.compile_timed dfa with
        | Ok (_, st) -> int_of_float (st.Engine.build_seconds *. 1e9)
        | Error _ -> 0)
  in
  ( {
      parse_ns;
      nfa_ns;
      subset_ns;
      minimize_ns = max 0 (min_ns - unmin_ns);
      tnd_ns;
      build_ns;
      audit_ns;
      states = Dfa.size dfa;
    },
    match tnd with Tnd.Finite _ -> true | Tnd.Infinite -> false )

(* ---- per-document layer passes ----

   A [~verify:true] pass hashes every token and compares the whole digest
   with the reference; timed passes only count tokens (and compare count
   and outcome), so the parity hash is not billed to the layer. *)

let matches ~verify (got : digest) (expect : digest) =
  digest_equal (if verify then got else { got with hash = expect.hash }) expect

(* [over_docs items f] sums [f item doc] over every document. *)
let over_docs items f =
  List.fold_left
    (fun acc it -> Array.fold_left (fun acc d -> acc + f it d) acc it.g.docs)
    0 items

let engine_pass tally ~verify items =
  over_docs items (fun it (d : Workload.doc) ->
      let n = ref 0 and h = ref hash_basis in
      let emit =
        if not verify then fun ~pos:_ ~len:_ ~rule:_ -> incr n
        else if it.g.ids then fun ~pos:_ ~len:_ ~rule ->
          incr n;
          h := hash_id !h rule
        else fun ~pos ~len ~rule ->
          incr n;
          h := hash_token_string !h ~rule d.text pos len
      in
      let dt, outcome = timed (fun () -> Engine.run_string it.engine d.text ~emit) in
      check tally
        (matches ~verify (outcome_digest !n !h d.text outcome) d.expect)
        "engine parity";
      dt)

type skip = { mutable accel : int; mutable swar : int }

let stream_pass tally ~verify skip items =
  over_docs items (fun it (d : Workload.doc) ->
      let n = ref 0 and h = ref hash_basis in
      let emit =
        if not verify then fun _ _ -> incr n
        else if it.g.ids then fun _ rule ->
          incr n;
          h := hash_id !h rule
        else fun lexeme rule ->
          incr n;
          h := hash_token_string !h ~rule lexeme 0 (String.length lexeme)
      in
      let dt, (outcome, tok) =
        timed (fun () ->
            let tok = Stream_tokenizer.create it.engine ~emit in
            let len = String.length d.text in
            let pos = ref 0 in
            while !pos < len do
              let k = min Workload.feed_bytes (len - !pos) in
              Stream_tokenizer.feed tok d.text !pos k;
              pos := !pos + k
            done;
            (Stream_tokenizer.finish tok, tok))
      in
      skip.accel <- skip.accel + Stream_tokenizer.accel_skipped_bytes tok;
      skip.swar <- skip.swar + Stream_tokenizer.swar_skipped_bytes tok;
      check tally
        (matches ~verify (outcome_digest !n !h d.text outcome) d.expect)
        "stream parity";
      dt)

(* Count (and with [hash], hash) the records of the session's pending
   TOKENS/IDS batch, walked in place with the client's own decoders. *)
let scan_batch ~hash s ob (n, h) =
  let vbuf, voff, vlen = Serve.Outbuf.view ob in
  let v = { W.Decoder.vtag = Serve.Session.batch_tag s; vbuf; voff; vlen } in
  let n = ref n and h = ref h in
  let walked =
    if v.vtag = W.tag_ids then
      W.iter_ids_view v (fun id ->
          incr n;
          if hash then h := hash_id !h id)
    else
      W.iter_tokens_view v (fun ~rule ~buf ~pos ~len ->
          incr n;
          if hash then h := hash_token_bytes !h ~rule buf pos len)
  in
  match walked with
  | Ok _ -> (vlen, (!n, !h))
  | Error msg -> failwith ("perfbench: session batch: " ^ msg)

let session_pass tally ~verify ~cache encoded items =
  let deps = { Serve.Session.cache; resolve = Registry.resolve } in
  let segs = Array.make 64 ("", 0, 0) in
  List.fold_left
    (fun acc it ->
      let s = Serve.Session.create deps in
      ignore (Serve.Session.handle s it.g.request);
      acc
      + over_docs [ it ] (fun _ (d : Workload.doc) ->
            let st = ref (0, hash_basis) in
            let take () =
              match Serve.Session.batch s with
              | None -> ()
              | Some (ob, _) ->
                  let l, st' = scan_batch ~hash:verify s ob !st in
                  encoded := !encoded + l;
                  st := st';
                  Serve.Session.batch_clear s
            in
            let dt, replies =
              timed (fun () ->
                  let len = String.length d.text in
                  let pos = ref 0 in
                  while !pos < len do
                    let k = ref 0 in
                    while !pos < len && !k < Array.length segs do
                      let l = min Workload.feed_bytes (len - !pos) in
                      segs.(!k) <- (d.text, !pos, l);
                      incr k;
                      pos := !pos + l
                    done;
                    ignore (Serve.Session.feed_views s segs !k);
                    take ()
                  done;
                  let replies = Serve.Session.handle s W.Flush in
                  take ();
                  replies)
            in
            let count, hash = !st in
            check tally
              (List.exists
                 (function
                   | W.Pending { ok; offset; _ } ->
                       matches ~verify { count; hash; ok; offset } d.expect
                   | _ -> false)
                 replies)
              "session parity";
            dt))
    0 items

let loopback_pass tally ~verify items =
  over_docs items (fun it (d : Workload.doc) ->
      let n = ref 0 and h = ref hash_basis and fin = ref None in
      let on_view v =
        let tag = v.W.Decoder.vtag in
        if tag = W.tag_tokens then
          ignore
            (W.iter_tokens_view v (fun ~rule ~buf ~pos ~len ->
                 incr n;
                 if verify then h := hash_token_bytes !h ~rule buf pos len))
        else if tag = W.tag_ids then
          ignore
            (W.iter_ids_view v (fun id ->
                 incr n;
                 if verify then h := hash_id !h id))
        else
          match Loadgen.reply_of_view v with
          | W.Pending { ok; offset; _ } -> fin := Some (ok, offset)
          | _ -> ()
      in
      let dt, () =
        timed (fun () ->
            let len = String.length d.text in
            let pos = ref 0 in
            while !pos < len do
              let k = min Workload.feed_bytes (len - !pos) in
              LB.send_feed_sub it.lbc d.text ~pos:!pos ~len:k;
              pos := !pos + k
            done;
            LB.send it.lbc W.Flush;
            LB.run it.lb;
            LB.drain_views it.lbc on_view)
      in
      check tally
        (match !fin with
        | Some (ok, offset) ->
            matches ~verify { count = !n; hash = !h; ok; offset } d.expect
        | None -> false)
        "loopback parity";
      dt)

(* ---- the run ---- *)

let mean_ms f samples =
  match samples with
  | [] -> 0.
  | _ ->
      ms_of_ns (List.fold_left (fun a s -> a + f s) 0 samples)
      /. float_of_int (List.length samples)

(* [run] measures every layer for [seconds] and returns the per-layer
   metrics. [e2e_pass ()] is one end-to-end pass through the daemon over
   the same documents (grammar-churn: over the next cache-miss ops); it
   returns (elapsed ns, document bytes). *)
let run ~tally ~seconds ~compile_set ~items ~cache ~e2e_pass
    ~daemon_stats ~out_prefix =
  let bytes = List.fold_left (fun a it -> a + Workload.total_doc_bytes it.g) 0 items in
  let per_byte ns = float_of_int ns /. float_of_int (max 1 bytes) in
  Trace.set_enabled true;
  (* te_dfa: the first engine pass runs the lazily built TE DFA cold; both
     passes verify, so their difference is the warm-up alone *)
  let cold_ns = Trace.with_span span_engine (fun () -> engine_pass tally ~verify:true items) in
  let warm_ns = Trace.with_span span_engine (fun () -> engine_pass tally ~verify:true items) in
  let te_states = List.fold_left (fun a it -> a + Engine.te_states it.engine) 0 items in
  let footprint =
    List.fold_left (fun a it -> a + Engine.footprint_bytes it.engine) 0 items
  in
  (* one verifying pass per layer, which also warms the loopback engines *)
  let skip = { accel = 0; swar = 0 } and encoded = ref 0 in
  ignore (stream_pass tally ~verify:true skip items);
  ignore (session_pass tally ~verify:true ~cache encoded items);
  ignore (loopback_pass tally ~verify:true items);
  skip.accel <- 0;
  skip.swar <- 0;
  encoded := 0;
  let compile = ref [] and engine = ref [] and stream = ref [] in
  let session = ref [] and loopback = ref [] in
  let e2e = ref [] and e2e_traced = ref [] in
  let rounds = ref 0 in
  let client_wait = ref 0 and client_time = ref 0 in
  let client_decode = ref 0 and client_tokens = ref 0 in
  let layer span samples pass =
    let ns = Trace.with_span span pass in
    samples := per_byte ns :: !samples
  in
  let end_to_end ~traced samples () =
    Trace.set_enabled traced;
    Loadgen.reset_acct ();
    let ns, b = Trace.with_span span_socket e2e_pass in
    if not traced then begin
      client_wait := !client_wait + Loadgen.acct.wait_ns;
      client_decode := !client_decode + Loadgen.acct.decode_ns;
      client_tokens := !client_tokens + Loadgen.acct.tokens;
      client_time := !client_time + ns
    end;
    Trace.set_enabled true;
    samples := (float_of_int ns /. float_of_int (max 1 b)) :: !samples
  in
  let steps =
    [|
      (fun () ->
        compile :=
          Trace.with_span span_compile (fun () ->
              List.map (fun g -> fst (compile_one g)) compile_set)
          :: !compile);
      (fun () ->
        layer span_engine engine (fun () -> engine_pass tally ~verify:false items));
      (fun () ->
        layer span_stream stream (fun () ->
            stream_pass tally ~verify:false skip items));
      (fun () ->
        layer span_session session (fun () ->
            session_pass tally ~verify:false ~cache encoded items));
      (fun () ->
        layer span_loopback loopback (fun () ->
            loopback_pass tally ~verify:false items));
      (* the traced and untraced passes swap order every round, so
         neither always follows the in-process layers *)
      (fun () ->
        if !rounds land 1 = 0 then begin
          end_to_end ~traced:false e2e ();
          end_to_end ~traced:true e2e_traced ()
        end
        else begin
          end_to_end ~traced:true e2e_traced ();
          end_to_end ~traced:false e2e ()
        end);
    |]
  in
  (* layers interleaved: each round runs every step, starting one step
     later than the round before *)
  let t_end = now_ns () + int_of_float (seconds *. 1e9) in
  while !rounds < 3 || now_ns () < t_end do
    let k = Array.length steps in
    for i = 0 to k - 1 do
      steps.((i + !rounds) mod k) ()
    done;
    incr rounds
  done;
  Trace.set_enabled false;
  let events = Trace.events () in
  let report = Trace.Report.build events in
  write_file (out_prefix ^ ".trace.json") (Trace.Chrome.to_string events);
  write_file (out_prefix ^ ".report.txt") (Trace.Report.to_text ~max_depth:4 report);
  let engine_ns = median !engine and stream_ns = median !stream in
  let session_ns = median !session and loopback_ns = median !loopback in
  let e2e_ns = median !e2e in
  let mb_s ns_per_byte = 1e3 /. ns_per_byte in
  let compile_ms f = median (List.map (mean_ms f) !compile) in
  let stats = daemon_stats () in
  let stat k = Option.value (List.assoc_opt k stats) ~default:0. in
  let in_mb = stat "bytes_in" /. 1e6 in
  let per_mb v = if in_mb > 0. then v /. in_mb else 0. in
  let direct = stat "batch_bytes_direct" and copied = stat "batch_bytes_copied" in
  let pct x y = if y > 0. then 100. *. x /. y else 0. in
  let streamed = float_of_int (bytes * !rounds) in
  let states_max =
    List.fold_left
      (fun m samples -> List.fold_left (fun m s -> max m s.states) m samples)
      0 !compile
  in
  [
    metric "compile.parse_ms" "ms" (compile_ms (fun s -> s.parse_ns));
    metric "compile.nfa_ms" "ms" (compile_ms (fun s -> s.nfa_ns));
    metric "compile.subset_ms" "ms" (compile_ms (fun s -> s.subset_ns));
    metric "compile.minimize_ms" "ms" (compile_ms (fun s -> s.minimize_ns));
    metric "compile.tnd_ms" "ms" (compile_ms (fun s -> s.tnd_ns));
    metric "compile.build_ms" "ms" (compile_ms (fun s -> s.build_ns));
    metric "compile.audit_ms" "ms" (compile_ms (fun s -> s.audit_ns));
    metric "compile.dfa_states_max" "count" (float_of_int states_max);
    metric "engine_cache.compiles" "count" (stat "engine_cache_compiles");
    metric "engine_cache.hits" "count" (stat "engine_cache_hits");
    metric "engine_cache.evictions" "count" (stat "engine_cache_evictions");
    metric "te_dfa.states" "count" (float_of_int te_states);
    metric "te_dfa.warmup_s" "s" (s_of_ns (max 0 (cold_ns - warm_ns)));
    metric "te_dfa.footprint_mb" "MB" (float_of_int footprint /. 1e6);
    metric "engine.mb_s" "MB/s" (mb_s engine_ns);
    metric "engine.ns_per_byte" "ns/B" engine_ns;
    metric "engine.share_pct" "%" (100. *. engine_ns /. e2e_ns);
    metric "stream.mb_s" "MB/s" (mb_s stream_ns);
    metric "stream.marginal_ns_per_byte" "ns/B" (stream_ns -. engine_ns);
    metric "stream.vs_engine_ratio" "x" (engine_ns /. stream_ns);
    metric "stream.accel_skip_pct" "%"
      (pct (float_of_int skip.accel) streamed);
    metric "stream.swar_skip_pct" "%"
      (pct (float_of_int skip.swar) streamed);
    metric "session.marginal_ns_per_byte" "ns/B" (session_ns -. stream_ns);
    metric "session.encoded_bytes_per_byte" "B/B"
      (float_of_int !encoded /. streamed);
    metric "loopback.mb_s" "MB/s" (mb_s loopback_ns);
    metric "loopback.marginal_ns_per_byte" "ns/B" (loopback_ns -. session_ns);
    metric "socket.marginal_ns_per_byte" "ns/B" (e2e_ns -. loopback_ns);
    metric "server.feed_batches_per_mb" "1/MB" (per_mb (stat "feed_batches"));
    metric "server.writevs_per_mb" "1/MB" (per_mb (stat "writevs"));
    metric "server.batch_direct_pct" "%" (pct direct (direct +. copied));
    metric "server.decoder_copies" "count" (stat "decoder_copies");
    metric "server.feed_latency_p50_us" "us" (stat "feed_latency_ns.p50" /. 1e3);
    metric "server.feed_latency_p99_us" "us" (stat "feed_latency_ns.p99" /. 1e3);
    metric "client.decode_ns_per_token" "ns"
      (float_of_int !client_decode /. float_of_int (max 1 !client_tokens));
    metric "client.wait_pct" "%"
      (pct (float_of_int !client_wait) (float_of_int !client_time));
    metric "trace.overhead_pct" "%" (100. *. ((median !e2e_traced /. e2e_ns) -. 1.));
    metric "trace.attributed_pct" "%" (Trace.Report.attribution_pct report);
  ]
