(* Bechamel micro-benchmarks of the per-symbol hot loops: one Test.make
   per engine per format, on fixed 256 KB inputs. Reports ns/run from the
   OLS fit of the monotonic clock. *)

open Streamtok
open Bechamel
open Toolkit

let make_tests () =
  let mk (g : Grammar.t) =
    let d = Grammar.dfa g in
    let fm = Flex_model.compile d in
    let engine =
      match Engine.compile d with Ok e -> e | Error _ -> assert false
    in
    let gen = Option.get (Gen_data.by_name g.Grammar.name) in
    let input = gen ~seed:Bench_common.seed_data ~target_bytes:262_144 () in
    [
      Test.make
        ~name:(g.Grammar.name ^ "/streamtok")
        (Staged.stage (fun () ->
             ignore (Engine.run_string engine input ~emit:Bench_common.emit_spans)));
      Test.make
        ~name:(g.Grammar.name ^ "/flex")
        (Staged.stage (fun () ->
             ignore (Flex_model.run fm input ~emit:Bench_common.emit_spans)));
      Test.make
        ~name:(g.Grammar.name ^ "/plex")
        (Staged.stage (fun () ->
             ignore (Backtracking.run d input ~emit:Bench_common.emit_spans)));
      Test.make
        ~name:(g.Grammar.name ^ "/extoracle")
        (Staged.stage (fun () ->
             ignore (Ext_oracle.run d input ~emit:Bench_common.emit_spans)));
    ]
  in
  Test.make_grouped ~name:"tokenize-256K" ~fmt:"%s %s"
    (List.concat_map mk [ Formats.csv; Formats.json; Formats.linux_log ])

(* Streaming through the slice API at [chunk]-byte feeds against one
   Engine.run_string over the same input — the same kernel both ways, so
   the ratio is the price of chunking (carry copies, per-chunk heads).
   Interleaved best-of-[rounds]; returns stream/batch throughput. *)
let stream_vs_batch ~target_bytes ~chunk ~rounds (g : Grammar.t) =
  let engine =
    match Engine.compile (Grammar.dfa g) with Ok e -> e | Error _ -> assert false
  in
  let gen = Option.get (Gen_data.by_name g.Grammar.name) in
  let input = gen ~seed:Bench_common.seed_data ~target_bytes () in
  let n = String.length input in
  let live = ref 0 in
  let tok =
    Stream_tokenizer.create_slices engine ~emit:(fun _ pos len rule ->
        live := !live lxor (pos + len + rule))
  in
  let stream () =
    Stream_tokenizer.reset tok;
    let pos = ref 0 in
    while !pos < n do
      let len = min chunk (n - !pos) in
      Stream_tokenizer.feed tok input !pos len;
      pos := !pos + len
    done;
    ignore (Stream_tokenizer.finish tok)
  in
  let batch () =
    ignore (Engine.run_string engine input ~emit:Bench_common.emit_spans)
  in
  let t_batch = ref infinity and t_stream = ref infinity in
  for _ = 1 to rounds do
    t_batch := Float.min !t_batch (snd (Bench_common.time_once batch));
    t_stream := Float.min !t_stream (snd (Bench_common.time_once stream))
  done;
  let ratio = !t_batch /. !t_stream in
  Printf.printf
    "  %-10s batch %7.1f MB/s  stream@%dK %7.1f MB/s  ratio %.3fx\n"
    g.Grammar.name
    (Bench_common.throughput n !t_batch)
    (chunk / 1024)
    (Bench_common.throughput n !t_stream)
    ratio;
  Bench_common.record_result ~experiment:"micro" ~name:"stream_vs_batch_ratio"
    ~labels:[ ("grammar", g.Grammar.name); ("chunk", string_of_int chunk) ]
    ratio;
  ratio

(* ROADMAP gate: streaming at 64 KiB chunks keeps ≥0.95x of the batch
   engine on every format. *)
let stream_gate () =
  Bench_common.pp_header
    "Streaming (slice API, 64 KiB chunks) vs batch engine, 4 MB inputs, \
     best of 7 (gate >= 0.95x)";
  let worst =
    List.fold_left
      (fun acc g ->
        Float.min acc
          (stream_vs_batch ~target_bytes:4_194_304 ~chunk:65536 ~rounds:7 g))
      infinity
      [ Formats.json; Formats.csv; Formats.xml; Formats.yaml ]
  in
  if worst < 0.95 then begin
    Printf.eprintf "micro: streaming at %.3fx of batch is below the 0.95x gate\n"
      worst;
    exit 1
  end

let run () =
  stream_gate ();
  Bench_common.pp_header
    "Bechamel micro-benchmarks: 256 KB tokenization (ns/run, OLS fit)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances (make_tests ()) in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let results = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun _measure tbl ->
      let rows =
        Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) tbl []
        |> List.sort compare
      in
      List.iter
        (fun (name, ols) ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] ->
              Bench_common.record_result ~experiment:"micro" ~name:"ns_per_run"
                ~labels:[ ("test", name) ]
                est;
              Printf.printf "  %-28s %12.0f ns/run  (%6.2f MB/s)\n" name est
                (262_144.0 /. est *. 1e3)
          | _ -> Printf.printf "  %-28s (no estimate)\n" name)
        rows)
    results

(* Interleaved paired timing for the overhead gates. Each of [rounds]
   rounds times [a], then [b], then [a] again (each returns its elapsed
   seconds). [b]'s overhead in a round is its time over the mean of the
   two [a] times around it, which cancels drift that is linear across the
   round. The gate reads the median of those per-round overheads: one
   slow round (a noisy neighbour, a major slice) moves it by at most one
   rank, where a best-of minimum swings with a single lucky round on
   either side. The two [a] times of a round are an A/A pair; the
   quartiles of their per-round difference are the noise floor printed
   beside the gated figure. *)
type paired = {
  overhead : float;  (** median per-round overhead of [b] over [a], % *)
  aa_lo : float;  (** A/A difference, first quartile, % *)
  aa_hi : float;  (** A/A difference, third quartile, % *)
  t_a : float;  (** median [a] time, s *)
  t_b : float;  (** median [b] time, s *)
}

let paired_overhead ~rounds a b =
  let ov = Array.make rounds 0. and aa = Array.make rounds 0. in
  let ta = Array.make rounds 0. and tb = Array.make rounds 0. in
  for i = 0 to rounds - 1 do
    let a1 = a () in
    let b1 = b () in
    let a2 = a () in
    ov.(i) <- ((b1 /. ((a1 +. a2) /. 2.)) -. 1.) *. 100.;
    aa.(i) <- ((a2 /. a1) -. 1.) *. 100.;
    ta.(i) <- (a1 +. a2) /. 2.;
    tb.(i) <- b1
  done;
  let q x p =
    let x = Array.copy x in
    Array.sort Float.compare x;
    x.(p * (rounds - 1) / 4)
  in
  {
    overhead = q ov 2;
    aa_lo = q aa 1;
    aa_hi = q aa 3;
    t_a = q ta 2;
    t_b = q tb 2;
  }

(* `main.exe smoke` — the bin/check.sh guardrail, ~3 s total. Verifies that
   the instrumented runner variant (a) produces a byte-identical token
   stream and outcome, (b) reports bytes_in = input length, and (c) stays
   within the overhead budget on the hot loops (both the Fig. 6 TE path —
   json, K = 3 — and the Fig. 5 table path — csv, K = 1). The measured
   overhead, target ≤2%, is printed and recorded; the hard gate is 10% so
   a noisy CI neighbor cannot fail the build spuriously. Then the
   disabled-tracer, streaming and enabled-tracer checks below. *)
let rec smoke () =
  let check (g : Streamtok.Grammar.t) =
    let d = Grammar.dfa g in
    let engine =
      match Engine.compile d with Ok e -> e | Error _ -> assert false
    in
    let gen = Option.get (Gen_data.by_name g.Grammar.name) in
    let input = gen ~seed:Bench_common.seed_data ~target_bytes:524_288 () in
    let digest run =
      let b = Buffer.create 65536 in
      let outcome =
        run ~emit:(fun ~pos ~len ~rule ->
            Buffer.add_string b (Printf.sprintf "%d:%d:%d;" pos len rule))
      in
      Buffer.add_string b
        (match outcome with
        | Engine.Finished -> "finished"
        | Engine.Failed { offset; _ } -> Printf.sprintf "failed@%d" offset);
      Digest.string (Buffer.contents b)
    in
    let stats = Streamtok.Run_stats.create () in
    let plain = digest (fun ~emit -> Engine.run_string engine input ~emit) in
    let inst =
      digest (fun ~emit ->
          Engine.run_string_instrumented engine input ~stats ~emit)
    in
    if plain <> inst then begin
      Printf.eprintf "smoke: instrumented token stream differs on %s\n"
        g.Grammar.name;
      exit 1
    end;
    if Streamtok.Run_stats.bytes_in stats <> String.length input then begin
      Printf.eprintf "smoke: bytes_in %d <> input length %d on %s\n"
        (Streamtok.Run_stats.bytes_in stats)
        (String.length input) g.Grammar.name;
      exit 1
    end;
    (* Interleave plain/instrumented rounds so clock-frequency drift and
       noisy neighbors hit both sides equally; median of paired ratios. *)
    let st = Streamtok.Run_stats.create () in
    let p =
      paired_overhead ~rounds:15
        (fun () ->
          snd
            (Bench_common.time_once (fun () ->
                 ignore
                   (Engine.run_string engine input
                      ~emit:Bench_common.emit_spans))))
        (fun () ->
          snd
            (Bench_common.time_once (fun () ->
                 ignore
                   (Engine.run_string_instrumented engine input ~stats:st
                      ~emit:Bench_common.emit_spans))))
    in
    let overhead = p.overhead in
    Printf.printf
      "  %-10s plain %7.1f MB/s  instrumented %7.1f MB/s  overhead %+5.2f%%  \
       (A/A %+.2f..%+.2f%%, target <=2%%)\n"
      g.Grammar.name
      (Bench_common.throughput (String.length input) p.t_a)
      (Bench_common.throughput (String.length input) p.t_b)
      overhead p.aa_lo p.aa_hi;
    Bench_common.record_result ~experiment:"smoke"
      ~name:"instrumented_overhead_pct"
      ~labels:[ ("grammar", g.Grammar.name) ]
      overhead;
    overhead
  in
  Bench_common.pp_header
    "Smoke: instrumented runner parity + overhead (512 KB inputs)";
  let worst =
    List.fold_left
      (fun acc g -> Float.max acc (check g))
      neg_infinity
      [ Formats.json; Formats.csv ]
  in
  if worst > 10.0 then begin
    Printf.eprintf "smoke: instrumented overhead %.1f%% exceeds the 10%% gate\n"
      worst;
    exit 1
  end;
  disabled_tracer_check ();
  stream_check ();
  alloc_check ();
  compile_alloc_check ();
  trace_check ()

(* The one-kernel contract, cheaply: streaming through the slice API at
   64 KiB chunks must stay near batch speed. The hard floor is 0.85x,
   best of 5, which leaves room for this gate's timing noise; `bench
   micro` reports and gates the 0.95x target on four formats. *)
and stream_check () =
  Bench_common.pp_header
    "Smoke: slice-API streaming (64 KiB chunks) vs batch engine (1 MB inputs)";
  List.iter
    (fun g ->
      let r =
        stream_vs_batch ~target_bytes:1_048_576 ~chunk:65536 ~rounds:5 g
      in
      if r < 0.85 then begin
        Printf.eprintf
          "smoke: streaming at %.3fx of batch on %s is below the 0.85x floor\n"
          r g.Grammar.name;
        exit 1
      end)
    [ Formats.json; Formats.csv ]

(* The probe contract: with tracing disabled, a spanned entry point costs
   one bool load and one closure per call over the plain path. Verified
   the same way as the instrumented runner above — token parity, then
   the median of interleaved paired ratios — at two call sites: one span
   per run ([Engine.run_string_traced] against [Engine.run_string]) and one
   span per 1 KiB chunk, the finest-grained spanned call
   ([Stream_tokenizer.feed] against feeding [Engine.Kernel] directly).
   Target <=2%; the hard gate is 10% (the expected value is ~0%, so only a
   broken fast path can reach the gate). *)
and disabled_tracer_check () =
  Streamtok.Trace.set_enabled false;
  let g = Formats.json in
  let d = Grammar.dfa g in
  let engine =
    match Engine.compile d with Ok e -> e | Error _ -> assert false
  in
  let gen = Option.get (Gen_data.by_name g.Grammar.name) in
  let input = gen ~seed:Bench_common.seed_data ~target_bytes:524_288 () in
  let n = String.length input in
  (* each side: [run emit] tokenizes [input], calling [emit len rule] *)
  let leg ~call ~labels ~plain ~traced =
    let digest run =
      let b = Buffer.create 65536 in
      let outcome =
        run (fun len rule ->
            Buffer.add_string b (Printf.sprintf "%d:%d;" len rule))
      in
      Buffer.add_string b
        (match outcome with
        | Engine.Finished -> "finished"
        | Engine.Failed { offset; _ } -> Printf.sprintf "failed@%d" offset);
      Digest.string (Buffer.contents b)
    in
    if digest plain <> digest traced then begin
      Printf.eprintf "smoke: %s token stream differs with tracing disabled\n"
        call;
      exit 1
    end;
    let live = ref 0 in
    let sink len rule = live := !live lxor (len + rule) in
    let time run () =
      snd (Bench_common.time_once (fun () -> ignore (run sink)))
    in
    let p = paired_overhead ~rounds:15 (time plain) (time traced) in
    let overhead = p.overhead in
    Printf.printf
      "  %-10s %-16s plain %7.1f MB/s  traced-off %7.1f MB/s  overhead \
       %+5.2f%%  (A/A %+.2f..%+.2f%%, target <=2%%)\n"
      g.Grammar.name call
      (Bench_common.throughput n p.t_a)
      (Bench_common.throughput n p.t_b)
      overhead p.aa_lo p.aa_hi;
    Bench_common.record_result ~experiment:"smoke"
      ~name:"disabled_tracer_overhead_pct"
      ~labels:(("grammar", g.Grammar.name) :: labels)
      overhead;
    if overhead > 10.0 then begin
      Printf.eprintf
        "smoke: disabled-tracer overhead %.1f%% on %s exceeds the 10%% gate\n"
        overhead call;
      exit 1
    end
  in
  let run_with runner emit =
    runner engine input ~emit:(fun ~pos:_ ~len ~rule -> emit len rule)
  in
  leg ~call:"engine.run" ~labels:[]
    ~plain:(run_with (Engine.run_string ?from:None))
    ~traced:(run_with (Engine.run_string_traced ?from:None));
  let chunked feed finish =
    let pos = ref 0 in
    while !pos < n do
      let len = min 1024 (n - !pos) in
      feed input !pos len;
      pos := !pos + len
    done;
    finish ()
  in
  leg ~call:"st.feed@1KiB"
    ~labels:[ ("call", "st.feed"); ("chunk", "1024") ]
    ~plain:(fun emit ->
      let c =
        Engine.Kernel.create engine ~emit:(fun _ _ len rule -> emit len rule)
      in
      chunked (Engine.Kernel.feed c) (fun () -> Engine.Kernel.finish c))
    ~traced:(fun emit ->
      let t =
        Stream_tokenizer.create_slices engine ~emit:(fun _ _ len rule ->
            emit len rule)
      in
      chunked (Stream_tokenizer.feed t) (fun () -> Stream_tokenizer.finish t))

(* The allocation contract: the hot paths allocate per chunk or per
   document, never per token or byte. Eight seeded 64 KiB documents (json,
   then csv) go, after a warm-up pass that grows the buffers, through the
   batch engine, the slice-API tokenizer in 1 KiB chunks, a serve session
   in 1 KiB FEEDs, and the served path end to end — 1 KiB FEED frames
   through [Loopback], four per round, the replies read back with
   [Wire.read_replies] — with a FLUSH per document on the last two; each
   path must allocate at most 0.1 minor-heap words per input byte. One
   2-word box per token would cost >= 0.46 words/byte on csv and >= 0.78
   on json. A word count does not depend on the host's speed, so the gate
   cannot flake. The paths must agree on the token count and every FLUSH
   must report a clean stream, so a path that stopped early cannot
   pass. *)
and alloc_check () =
  Streamtok.Trace.set_enabled false;
  let module W = Serve.Wire in
  let module S = Serve.Session in
  let module LB = Serve.Loopback in
  Bench_common.pp_header
    "Smoke: minor-heap words per input byte (8 x 64 KB documents, bound 0.1)";
  let bound = 0.1 in
  let deps = { S.cache = Engine_cache.create (); resolve = Registry.resolve } in
  List.iter
    (fun (g : Grammar.t) ->
      let engine =
        match Engine.compile (Grammar.dfa g) with
        | Ok e -> e
        | Error _ -> assert false
      in
      let gen = Option.get (Gen_data.by_name g.Grammar.name) in
      let docs =
        List.init 8 (fun i ->
            gen
              ~seed:(Int64.add Bench_common.seed_data (Int64.of_int i))
              ~target_bytes:65_536 ())
      in
      let bytes = List.fold_left (fun n d -> n + String.length d) 0 docs in
      let tokens = ref 0 in
      let slices doc f =
        let n = String.length doc in
        let pos = ref 0 in
        while !pos < n do
          let len = min 1024 (n - !pos) in
          f !pos len;
          pos := !pos + len
        done
      in
      let finished call ok =
        if not ok then begin
          Printf.eprintf "smoke: %s: a %s document did not tokenize\n" call
            g.Grammar.name;
          exit 1
        end
      in
      let tok =
        Stream_tokenizer.create_slices engine ~emit:(fun _ _ _ _ ->
            incr tokens)
      in
      let session = S.create deps in
      ignore (S.handle session (W.Open g.Grammar.name));
      (* the daemon's FEED path: one segment per FEED *)
      let segs = [| ("", 0, 0) |] in
      let drain () =
        match S.batch session with
        | Some (_, k) ->
            tokens := !tokens + k;
            S.batch_clear session
        | None -> ()
      in
      (* the served path: a loopback connection read like every client *)
      let lb = LB.create () in
      let lbc = LB.connect lb in
      LB.send lbc (W.Open g.Grammar.name);
      let clean = ref false in
      let on_token ~rule:_ ~buf:_ ~pos:_ ~len:_ = incr tokens in
      let on_id _ = incr tokens in
      let on_reply = function
        | W.Pending { ok; _ } -> clean := ok
        | W.Error { message; _ } ->
            Printf.eprintf "smoke: loopback error reply: %s\n" message;
            exit 1
        | W.Opened _ | W.Metrics _ -> ()
      in
      let serve_round () =
        LB.run lb;
        match
          W.read_replies (LB.decoder lbc) ~tokens:on_token ~ids:on_id
            ~reply:on_reply
        with
        | Ok () -> ()
        | Error msg ->
            Printf.eprintf "smoke: loopback reply stream: %s\n" msg;
            exit 1
      in
      let paths =
        [
          ( "engine.run",
            fun doc ->
              finished "engine.run"
                (Engine.run_string engine doc ~emit:(fun ~pos:_ ~len:_ ~rule:_ ->
                     incr tokens)
                = Engine.Finished) );
          ( "st.feed@1KiB",
            fun doc ->
              Stream_tokenizer.reset tok;
              slices doc (Stream_tokenizer.feed tok doc);
              finished "st.feed" (Stream_tokenizer.finish tok = Engine.Finished)
          );
          ( "session@1KiB",
            fun doc ->
              slices doc (fun pos len ->
                  segs.(0) <- (doc, pos, len);
                  ignore (S.feed_views session segs 1);
                  drain ());
              let replies = S.handle session W.Flush in
              drain ();
              finished "session"
                (List.exists
                   (function W.Pending { ok; _ } -> ok | _ -> false)
                   replies) );
          ( "loopback@1KiB",
            fun doc ->
              clean := false;
              let frames = ref 0 in
              slices doc (fun pos len ->
                  LB.send_feed_sub lbc doc ~pos ~len;
                  incr frames;
                  if !frames mod 4 = 0 then serve_round ());
              LB.send lbc W.Flush;
              serve_round ();
              finished "loopback" !clean );
        ]
      in
      let counts =
        List.map
          (fun (call, run) ->
            List.iter run docs;
            tokens := 0;
            let w0 = Gc.minor_words () in
            List.iter run docs;
            let per_byte = (Gc.minor_words () -. w0) /. float_of_int bytes in
            Printf.printf
              "  %-10s %-13s %8.5f words/byte  (%d tokens, bound %.1f)\n"
              g.Grammar.name call per_byte !tokens bound;
            Bench_common.record_result ~experiment:"smoke"
              ~name:"minor_words_per_byte"
              ~labels:[ ("grammar", g.Grammar.name); ("call", call) ]
              per_byte;
            if per_byte > bound then begin
              Printf.eprintf
                "smoke: %s allocates %.4f minor words per byte on %s (bound \
                 %.1f)\n"
                call per_byte g.Grammar.name bound;
              exit 1
            end;
            !tokens)
          paths
      in
      if List.exists (( <> ) (List.hd counts)) counts then begin
        Printf.eprintf "smoke: %s token counts differ across paths: %s\n"
          g.Grammar.name
          (String.concat ", " (List.map string_of_int counts));
        exit 1
      end)
    [ Formats.json; Formats.csv ]

(* The compile allocation contract: an OPEN's compile allocates nothing
   per DFA state or per (state, class) cell beyond the tables it returns,
   so the words [Engine.compile_rules] allocates (minor plus direct major)
   per transition of the minimized DFA stay a small constant. Three
   subjects: the rejected compile-stress grammar (3 classes, so per-state
   costs show) and two vocabularies (256 classes, so per-cell costs show).
   Beside each figure is the same count at the build this gate came in
   with (per-state sets, a signature array per state per Moore round, the
   accelerator built before the verdict); the gate fails above 60% of it.
   A word count does not depend on the host's speed, so it cannot
   flake. *)
and compile_alloc_check () =
  Bench_common.pp_header
    "Smoke: compile words per DFA transition (Engine.compile_rules, bound \
     0.6 x before)";
  let vocab v = Bpe.Compiler.rules_of_vocab v in
  let subjects =
    [
      ("[xy]*x[xy]{10}", Parser.parse_grammar "[xy]*x[xy]{10}", 249.0);
      ("tiny 0x7157", vocab (Bpe.Trainer.tiny ~seed:0x7157L), 14.8);
      ("mini.tiktoken", vocab (Bpe_bench.load_vocab ()), 18.2);
    ]
  in
  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  List.iter
    (fun (name, rules, before) ->
      let max_states = Bpe.Compiler.default_max_states in
      let d = Dfa.of_rules ~max_states rules in
      let cells = float_of_int (Dfa.size d * Dfa.num_classes d) in
      let w0 = words () in
      ignore (Sys.opaque_identity (Engine.compile_rules ~max_states rules));
      let per_cell = (words () -. w0) /. cells in
      Printf.printf
        "  %-16s %7.1f words/transition  (before %.1f, bound %.1f)\n" name
        per_cell before (0.6 *. before);
      Bench_common.record_result ~experiment:"smoke"
        ~name:"compile_words_per_transition"
        ~labels:[ ("grammar", name) ]
        per_cell;
      if per_cell > 0.6 *. before then begin
        Printf.eprintf
          "smoke: compiling %s allocates %.1f words per transition (bound \
           %.1f)\n"
          name per_cell (0.6 *. before);
        exit 1
      end)
    subjects

(* The tracer recording. (1) A 4 MB words document fed through
   Stream_tokenizer in 1 KiB chunks — one st.feed + engine.run span pair
   per chunk, so per-span cost has every chance to show — with the tracer
   off vs on, median of 7 interleaved paired ratios: token counts must
   match and the enabled tracer may cost at most 15%. (2) A traced 2 MB
   loopback json serve run, driven like production (FEED bursts
   in, replies read in place with [Wire.read_replies]), folded into the
   span-tree report: at least 90% of its wall time must be attributed, and
   its token count must equal a direct run's. Returns with the tracer
   disabled and its rings reset. *)
and trace_check () =
  let module Tr = Streamtok.Trace in
  let module W = Serve.Wire in
  let module LB = Serve.Loopback in
  Bench_common.pp_header
    "Smoke: enabled-tracer parity + overhead (words, 4 MB, 1 KiB chunks), \
     serve-span attribution + token parity (json, 2 MB loopback)";
  Tr.configure ~capacity_events:65536;
  (* realistic word-length mix (lengths 2..13), not one giant run *)
  let rng = Prng.create Bench_common.seed_data in
  let b = Buffer.create 4_194_304 in
  while Buffer.length b < 4_194_304 do
    for _ = 1 to 2 + Prng.int rng 12 do
      Buffer.add_char b (Char.chr (Char.code 'a' + Prng.int rng 26))
    done;
    Buffer.add_char b ' '
  done;
  let input = Buffer.contents b in
  let n = String.length input in
  let engine =
    match
      Engine.compile_rules
        (St_regex.Parser.parse_grammar "[a-z][a-z]*\n[ ][ ]*")
    with
    | Ok e -> e
    | Error _ -> assert false
  in
  let feed_all () =
    let count = ref 0 in
    let tok = Stream_tokenizer.create engine ~emit:(fun _ _ -> incr count) in
    let (), dt =
      Bench_common.time_once (fun () ->
          let pos = ref 0 in
          while !pos < n do
            let len = min 1024 (n - !pos) in
            Stream_tokenizer.feed tok input !pos len;
            pos := !pos + len
          done;
          match Stream_tokenizer.finish tok with
          | Engine.Finished -> ()
          | Engine.Failed _ -> failwith "smoke: words must tokenize")
    in
    (dt, !count)
  in
  (* interleaved so drift hits both sides; the ring is reset per traced
     round so the drop counter stays meaningful *)
  let tokens = ref (-1) in
  let counted on =
    let dt, count = feed_all () in
    if !tokens >= 0 && count <> !tokens then begin
      Printf.eprintf "smoke: token counts differ (tracer %s: %d, before: %d)\n"
        (if on then "on" else "off")
        count !tokens;
      exit 1
    end;
    tokens := count;
    dt
  in
  let p =
    paired_overhead ~rounds:7
      (fun () ->
        Tr.set_enabled false;
        counted false)
      (fun () ->
        Tr.reset ();
        Tr.set_enabled true;
        let dt = counted true in
        Tr.set_enabled false;
        dt)
  in
  let overhead = p.overhead in
  Printf.printf
    "  words      off %7.1f MB/s  on %7.1f MB/s  (%d tokens, %d events)  \
     enabled overhead %+5.2f%%  (A/A %+.2f..%+.2f%%, gate 15%%)\n"
    (Bench_common.throughput n p.t_a)
    (Bench_common.throughput n p.t_b)
    !tokens
    (List.length (Tr.events ()))
    overhead p.aa_lo p.aa_hi;
  let record name workload v =
    Bench_common.record_result ~experiment:"smoke" ~name
      ~labels:[ ("workload", workload) ]
      v
  in
  record "trace_tokens" "words" (float_of_int !tokens);
  record "enabled_tracer_overhead_pct" "words" overhead;
  if overhead > 15.0 then begin
    Printf.eprintf
      "smoke: enabled-tracer overhead %.1f%% exceeds the 15%% gate\n" overhead;
    exit 1
  end;
  (* the client's read of each round's replies is the client decode
     layer: a span of its own, so the report accounts for it *)
  let p_walk = Tr.probe ~cat:"decode" "client.walk" in
  let serve_input =
    Gen_data.json ~seed:Bench_common.seed_data ~target_bytes:2_097_152 ()
  in
  let n = String.length serve_input in
  Tr.reset ();
  Tr.set_enabled true;
  let lb = LB.create () in
  let c = LB.connect lb in
  let served = ref 0 in
  let read_replies () =
    Tr.with_span p_walk (fun () ->
        match
          W.read_replies (LB.decoder c)
            ~tokens:(fun ~rule:_ ~buf:_ ~pos:_ ~len:_ -> incr served)
            ~ids:(fun _ -> failwith "smoke: unexpected IDS reply")
            ~reply:(function
              | W.Error _ -> failwith "smoke: server error reply" | _ -> ())
        with
        | Ok () -> ()
        | Error msg -> failwith ("smoke: " ^ msg))
  in
  LB.send c (W.Open "json");
  let pos = ref 0 in
  while !pos < n do
    (* 4 FEED frames per round, as a socket read delivers them *)
    let stop = min n (!pos + (4 * 65536)) in
    while !pos < stop do
      let len = min 65536 (stop - !pos) in
      LB.send_feed_sub c serve_input ~pos:!pos ~len;
      pos := !pos + len
    done;
    LB.run lb;
    read_replies ()
  done;
  LB.send c W.Flush;
  LB.send c W.Close;
  LB.run lb;
  read_replies ();
  Tr.set_enabled false;
  let evs = Tr.events () in
  Tr.reset ();
  let report = Tr.Report.build evs in
  print_string (Tr.Report.to_text ~max_depth:4 report);
  let attributed = Tr.Report.attribution_pct report in
  Printf.printf
    "  json       loopback serve: %d events, %.1f%% of wall attributed \
     (floor 90%%)\n"
    (List.length evs) attributed;
  record "trace_attributed_pct" "json" attributed;
  (* large-frame loopback parity: the served token count must match a
     direct run of the same grammar over the same bytes *)
  let json =
    match Engine.compile (Grammar.dfa Formats.json) with
    | Ok e -> e
    | Error _ -> assert false
  in
  let direct = ref 0 in
  (match
     Engine.run_string json serve_input ~emit:(fun ~pos:_ ~len:_ ~rule:_ ->
         incr direct)
   with
  | Engine.Finished -> ()
  | Engine.Failed _ -> failwith "smoke: json must tokenize");
  if !served <> !direct then begin
    Printf.eprintf "smoke: loopback served %d json tokens, direct run %d\n"
      !served !direct;
    exit 1
  end;
  if attributed < 90.0 then begin
    Printf.eprintf
      "smoke: span tree attributes only %.1f%% of serve wall time (floor \
       90%%)\n"
      attributed;
    exit 1
  end
