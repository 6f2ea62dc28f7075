(* The serving subsystem, tested without a single real socket: wire
   round-trips and adversarial re-chunking at the frame layer, then full
   session lifecycles (parity with the batch engine, cache sharing, idle
   eviction, capacity rejection, backpressure, FLUSH reset, lexical and
   protocol failures) driven through the deterministic loopback
   transport. *)

open Streamtok
module W = Serve.Wire
module SV = Serve.Server
module LB = Serve.Loopback

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---- wire round-trips ---- *)

let gen_bytes = QCheck.Gen.(string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 200))

(* OPENED payload values are line-oriented: anything but '\n'. *)
let gen_line =
  QCheck.Gen.(
    string_size
      ~gen:(map (fun c -> if c = '\n' then ' ' else c) printable)
      (int_bound 30))

let gen_format = QCheck.Gen.oneofl [ W.Json; W.Prom ]

let gen_request =
  QCheck.Gen.(
    oneof
      [
        map (fun s -> W.Open s) gen_bytes;
        map (fun s -> W.Feed s) gen_bytes;
        return W.Flush;
        return W.Close;
        map (fun f -> W.Stats f) gen_format;
      ])

let gen_reply =
  QCheck.Gen.(
    oneof
      [
        map3
          (fun grammar k rules -> W.Opened { grammar; k; cached = k mod 2 = 0; rules })
          gen_line (int_bound 40)
          (list_size (int_bound 6) gen_line);
        map
          (fun toks -> W.Tokens toks)
          (list_size (int_bound 8) (pair gen_bytes (int_bound 100)));
        map3
          (fun ok offset pending -> W.Pending { ok; offset; pending })
          bool (int_bound 1_000_000) gen_bytes;
        map3
          (fun code retryable message -> W.Error { code; retryable; message })
          (oneofl [ W.Protocol; W.Bad_grammar; W.Capacity; W.Lexical; W.Shutting_down ])
          bool gen_bytes;
        map2 (fun format body -> W.Metrics { format; body }) gen_format gen_bytes;
      ])

let prop_request_roundtrip =
  QCheck.Test.make ~count:500 ~name:"wire: request frame round-trip"
    (QCheck.make gen_request) (fun req ->
      let b = Buffer.create 64 in
      W.encode_request b req;
      match W.decode_all (Buffer.contents b) with
      | Ok [ f ] -> W.request_of_frame f = Ok req
      | _ -> false)

let prop_reply_roundtrip =
  QCheck.Test.make ~count:500 ~name:"wire: reply frame round-trip"
    (QCheck.make gen_reply) (fun reply ->
      let b = Buffer.create 64 in
      W.encode_reply b reply;
      match W.decode_all (Buffer.contents b) with
      | Ok [ f ] -> W.reply_of_frame f = Ok reply
      | _ -> false)

(* Drive the view API under one chunking and collect (tag, payload copy)
   pairs; [View_corrupt] maps to None. *)
let decode_views_under chunking stream =
  let d = W.Decoder.create () in
  let frames = ref [] in
  let ok = ref true in
  let pos = ref 0 in
  List.iter
    (fun n ->
      W.Decoder.feed d stream ~pos:!pos ~len:n;
      pos := !pos + n;
      let continue = ref true in
      while !continue do
        match W.Decoder.next_view d with
        | W.Decoder.View v ->
            frames := (v.W.Decoder.vtag, W.Decoder.view_string v) :: !frames
        | W.Decoder.View_need_more -> continue := false
        | W.Decoder.View_corrupt _ ->
            ok := false;
            continue := false
      done)
    chunking;
  if !ok then Some (List.rev !frames, W.Decoder.copies d) else None

(* A frame stream split at adversarial byte boundaries (reusing the fuzz
   chunking strategies) must decode to exactly the same frames. *)
let prop_chunked_decode =
  QCheck.Test.make ~count:100 ~name:"wire: chunk-split decode identity"
    QCheck.(
      make
        Gen.(
          pair (list_size (int_range 1 10) gen_request) (int_range 0 9999)))
    (fun (reqs, seed) ->
      let b = Buffer.create 256 in
      List.iter (W.encode_request b) reqs;
      let stream = Buffer.contents b in
      let reference =
        match W.decode_all stream with
        | Ok fs -> List.map (fun f -> (f.W.tag, f.W.payload)) fs
        | Error _ -> assert false
      in
      let rng = Prng.create (Int64.of_int seed) in
      List.for_all
        (fun (_name, chunking) ->
          Option.map fst (decode_views_under chunking stream) = Some reference)
        (Fuzz.Chunking.standard ~rng ~delay:5 (String.length stream)))

(* ---- loopback session lifecycles ---- *)

let fake_clock start =
  let now = ref start in
  ((fun () -> !now), fun t -> now := t)

let config ?(max_sessions = 8) ?(idle_timeout = 0.) ?(max_out_bytes = 1 lsl 20)
    ?(out_frame_bytes = 1 lsl 20) clock =
  {
    SV.default_config with
    max_sessions;
    idle_timeout;
    max_out_bytes;
    out_frame_bytes;
    clock;
  }

let tokens_of replies =
  List.concat_map (function W.Tokens ts -> ts | _ -> []) replies

let json_engine =
  lazy
    (match Engine.compile (Grammar.dfa Formats.json) with
    | Ok e -> e
    | Error _ -> assert false)

let test_lifecycle_parity () =
  let clock, _ = fake_clock 0. in
  let lb = LB.create ~config:(config clock) () in
  let input = Gen_data.json ~seed:11L ~target_bytes:4000 () in
  let c = LB.connect lb in
  LB.send c (W.Open "json");
  (* odd-sized FEEDs, token boundaries nowhere near chunk edges *)
  let pos = ref 0 in
  while !pos < String.length input do
    let n = min 37 (String.length input - !pos) in
    LB.send c (W.Feed (String.sub input !pos n));
    pos := !pos + n
  done;
  LB.send c W.Flush;
  LB.send c W.Close;
  LB.run lb;
  let replies = LB.replies c in
  (match replies with
  | W.Opened { grammar; cached; k; _ } :: _ ->
      check "grammar echoed" true (grammar = "json");
      check "first open not cached" false cached;
      check_int "k" (Engine.k (Lazy.force json_engine)) k
  | _ -> Alcotest.fail "expected OPENED first");
  (match List.rev replies with
  | W.Pending { ok; offset; pending } :: _ ->
      check "clean flush" true (ok && pending = "");
      check_int "offset = bytes fed" (String.length input) offset
  | _ -> Alcotest.fail "expected PENDING last");
  let reference, outcome = Engine.tokens (Lazy.force json_engine) input in
  check "batch outcome finished" true (outcome = Engine.Finished);
  check "tokens ≡ batch engine" true (tokens_of replies = reference);
  check "connection closed after CLOSE" true (LB.closed c)

let test_engine_cache_sharing () =
  let clock, _ = fake_clock 0. in
  let lb = LB.create ~config:(config clock) () in
  let open_one () =
    let c = LB.connect lb in
    LB.send c (W.Open "json");
    LB.run lb;
    match LB.replies c with
    | [ W.Opened { cached; _ } ] -> cached
    | _ -> Alcotest.fail "expected OPENED"
  in
  check "first compile not cached" false (open_one ());
  check "second session shares engine" true (open_one ());
  check "third session shares engine" true (open_one ());
  let cache = SV.cache (LB.server lb) in
  check_int "exactly one compile for N sessions" 1 (Engine_cache.compiles cache);
  check_int "two hits" 2 (Engine_cache.hits cache);
  check_int "three live sessions" 3 (SV.sessions (LB.server lb))

(* The compile flags are part of the cache key: the same grammar under
   default and [~accel:false] builds must not share an entry (a session
   handed the wrong variant would silently lose the skip loops — or worse,
   a reference build would silently gain them). *)
let test_engine_cache_flag_keys () =
  let rules = Streamtok.Grammar.rules Streamtok.Formats.csv in
  let cache = Engine_cache.create () in
  check "keys differ across accel flag" false
    (Engine_cache.key_of_rules rules
    = Engine_cache.key_of_rules ~accel:false rules);
  check "keys differ across classes flag" false
    (Engine_cache.key_of_rules rules
    = Engine_cache.key_of_rules ~classes:false rules);
  let get ?classes ?accel () =
    match Engine_cache.find_or_compile cache ?classes ?accel rules with
    | Ok e -> e
    | Error _ -> Alcotest.fail "csv must compile"
  in
  let ea = get () in
  let ep = get ~accel:false () in
  check_int "two distinct compiles" 2 (Engine_cache.compiles cache);
  check "default build accelerated" true
    (Streamtok.Dfa.accel_enabled (Streamtok.Engine.dfa ea));
  check "reference build not accelerated" false
    (Streamtok.Dfa.accel_enabled (Streamtok.Engine.dfa ep));
  ignore (get ());
  ignore (get ~accel:false ());
  check_int "both variants hit their own entry" 2 (Engine_cache.hits cache);
  check_int "still two compiles" 2 (Engine_cache.compiles cache)

let test_idle_eviction () =
  let clock, set = fake_clock 0. in
  let lb = LB.create ~config:(config ~idle_timeout:30. clock) () in
  let busy = LB.connect lb in
  let idle = LB.connect lb in
  LB.send busy (W.Open "json");
  LB.send idle (W.Open "json");
  LB.run lb;
  ignore (LB.replies busy);
  ignore (LB.replies idle);
  set 29.;
  LB.send busy (W.Feed "{}");
  LB.run lb;
  set 45.;
  (* busy fed at t=29 (idle 16s), idle last active at t=0 (idle 45s) *)
  LB.tick lb;
  LB.run lb;
  check "idle session evicted" true (LB.closed idle);
  check "busy session survives" false (LB.closed busy);
  (match LB.replies idle with
  | [ W.Error { code = W.Shutting_down; retryable; _ } ] ->
      check "eviction is retryable" true retryable
  | _ -> Alcotest.fail "expected retryable eviction error");
  check_int "one live session left" 1 (SV.sessions (LB.server lb))

let test_capacity_rejection () =
  let clock, _ = fake_clock 0. in
  let lb = LB.create ~config:(config ~max_sessions:1 clock) () in
  let a = LB.connect lb in
  LB.send a (W.Open "json");
  LB.run lb;
  let b = LB.connect lb in
  LB.run lb;
  check "over-capacity connection closed" true (LB.closed b);
  (match LB.replies b with
  | [ W.Error { code = W.Capacity; retryable; _ } ] ->
      check "capacity rejection is retryable" true retryable
  | _ -> Alcotest.fail "expected retryable capacity error");
  (* a slot frees up once a session closes *)
  LB.send a W.Close;
  LB.run lb;
  let c = LB.connect lb in
  LB.send c (W.Open "json");
  LB.run lb;
  check "slot reusable after close" true
    (match LB.replies c with [ W.Opened _ ] -> true | _ -> false)

let test_backpressure () =
  (* Direct Server contract: with a tiny output budget, an unread reply
     queue must turn off wants_read, and reading resumes once the
     transport drains it. *)
  let clock, _ = fake_clock 0. in
  let srv = SV.create ~config:(config ~max_out_bytes:256 clock) () in
  let id = SV.on_connect srv in
  let b = Buffer.create 4096 in
  W.encode_request b (W.Open "@[0-9];[ ]+");
  (* every digit is its own token: plenty of reply bytes *)
  W.encode_request b (W.Feed (String.concat " " (List.init 300 (fun _ -> "7"))));
  W.encode_request b (W.Flush);
  let s = Buffer.to_bytes b in
  SV.on_data srv id s ~pos:0 ~len:(Bytes.length s);
  check "queue over budget" true (SV.out_pending srv id > 256);
  check "backpressure: reading off" false (SV.wants_read srv id);
  while SV.out_pending srv id > 0 do
    let _, _, len = SV.out_view srv id in
    SV.out_consume srv id (min 64 len)
  done;
  check "reading resumes when drained" true (SV.wants_read srv id)

let test_flush_resets_stream () =
  let clock, _ = fake_clock 0. in
  let lb = LB.create ~config:(config clock) () in
  let c = LB.connect lb in
  LB.send c (W.Open "@[a-z]+;[ ]+");
  LB.send c (W.Feed "foo bar");
  LB.send c W.Flush;
  LB.send c (W.Feed "baz");
  LB.send c W.Flush;
  LB.send c W.Close;
  LB.run lb;
  let replies = LB.replies c in
  check "two streams, one session" true
    (tokens_of replies = [ ("foo", 0); (" ", 1); ("bar", 0); ("baz", 0) ]);
  let pendings =
    List.filter_map
      (function W.Pending { ok; offset; _ } -> Some (ok, offset) | _ -> None)
      replies
  in
  (* second stream's offset counts from its own start *)
  check "offsets restart per stream" true (pendings = [ (true, 7); (true, 3) ])

let test_lexical_failure () =
  let clock, _ = fake_clock 0. in
  let lb = LB.create ~config:(config clock) () in
  let c = LB.connect lb in
  LB.send c (W.Open "@[a-z]+");
  LB.send c (W.Feed "abc123");
  LB.send c (W.Feed "more-after-failure");
  LB.send c W.Flush;
  LB.send c W.Close;
  LB.run lb;
  let replies = LB.replies c in
  check "lexical error reported, not fatal" true
    (List.exists
       (function
         | W.Error { code = W.Lexical; retryable = false; _ } -> true
         | _ -> false)
       replies);
  (match
     List.find_opt (function W.Pending _ -> true | _ -> false) replies
   with
  | Some (W.Pending { ok; offset; _ }) ->
      check "flush reports failure" false ok;
      check_int "failure offset" 3 offset
  | _ -> Alcotest.fail "expected PENDING");
  check "feeds after failure dropped" true
    (List.length
       (List.filter (function W.Tokens _ -> true | _ -> false) replies)
    <= 1);
  check "session closed via CLOSE" true (LB.closed c)

let test_protocol_errors () =
  let clock, _ = fake_clock 0. in
  let lb = LB.create ~config:(config clock) () in
  (* FEED before OPEN is fatal *)
  let a = LB.connect lb in
  LB.send a (W.Feed "x");
  LB.run lb;
  check "feed-before-open closes" true (LB.closed a);
  (match LB.replies a with
  | [ W.Error { code = W.Protocol; retryable = false; _ } ] -> ()
  | _ -> Alcotest.fail "expected fatal protocol error");
  (* an oversize length prefix is corrupt before any allocation *)
  let b = LB.connect lb in
  LB.send_raw b "\xff\xff\xff\xff\x01";
  LB.run lb;
  check "corrupt frame closes" true (LB.closed b);
  (* a bad grammar is rejected with the resolver's message *)
  let c = LB.connect lb in
  LB.send c (W.Open "@[a-z");
  LB.run lb;
  check "bad grammar closes" true (LB.closed c);
  (match LB.replies c with
  | [ W.Error { code = W.Bad_grammar; _ } ] -> ()
  | _ -> Alcotest.fail "expected bad-grammar error");
  (* the daemon itself is still healthy *)
  let d = LB.connect lb in
  LB.send d (W.Open "json");
  LB.run lb;
  check "server healthy after errors" true
    (match LB.replies d with [ W.Opened _ ] -> true | _ -> false)

let test_drain () =
  let clock, _ = fake_clock 0. in
  let lb = LB.create ~config:(config clock) () in
  let a = LB.connect lb in
  LB.send a (W.Open "json");
  LB.run lb;
  ignore (LB.replies a);
  SV.drain (LB.server lb);
  LB.run lb;
  check "live session drained" true (LB.closed a);
  (match LB.replies a with
  | [ W.Error { code = W.Shutting_down; retryable = true; _ } ] -> ()
  | _ -> Alcotest.fail "expected retryable shutdown error");
  let b = LB.connect lb in
  LB.run lb;
  check "new connections rejected while draining" true (LB.closed b);
  check_int "no live conns left" 0 (SV.live_conns (LB.server lb))

(* ---- zero-copy decoder views ---- *)

(* The zero-copy contract: under ANY chunk split — byte-at-a-time,
   random, straddling the compaction boundary — the payload views are
   byte-identical to a one-feed decode, and a whole-stream feed (no frame
   ever straddles a feed) performs zero copies. *)
let prop_view_decode_identity =
  QCheck.Test.make ~count:100 ~name:"wire: zero-copy views ≡ copying decode"
    QCheck.(
      make
        Gen.(
          pair (list_size (int_range 1 10) gen_request) (int_range 0 9999)))
    (fun (reqs, seed) ->
      let b = Buffer.create 256 in
      List.iter (W.encode_request b) reqs;
      let stream = Buffer.contents b in
      let reference =
        match W.decode_all stream with
        | Ok fs -> List.map (fun f -> (f.W.tag, f.W.payload)) fs
        | Error _ -> assert false
      in
      let rng = Prng.create (Int64.of_int seed) in
      let whole_ok =
        match decode_views_under [ String.length stream ] stream with
        | Some (frames, copies) -> frames = reference && copies = 0
        | None -> false
      in
      whole_ok
      && List.for_all
           (fun (_name, chunking) ->
             match decode_views_under chunking stream with
             | Some (frames, _) -> frames = reference
             | None -> false)
           (Fuzz.Chunking.standard ~rng ~delay:5 (String.length stream)))

let test_view_straddle_compaction () =
  (* A payload bigger than the decoder's initial 4 KiB buffer, delivered
     in two feeds: the carried partial frame forces a grow/compact blit,
     which the copies counter must report — and the view must still be
     byte-identical. *)
  let payload = String.init 6000 (fun i -> Char.chr (i land 0xff)) in
  let b = Buffer.create 8192 in
  W.encode_request b (W.Feed payload);
  let stream = Buffer.contents b in
  let d = W.Decoder.create () in
  let half = String.length stream / 2 in
  W.Decoder.feed d stream ~pos:0 ~len:half;
  check "partial frame: need more" true (W.Decoder.next_view d = W.Decoder.View_need_more);
  W.Decoder.feed d stream ~pos:half ~len:(String.length stream - half);
  (match W.Decoder.next_view d with
  | W.Decoder.View v ->
      check_int "tag" 0x02 v.W.Decoder.vtag;
      check "payload identical across straddle" true
        (W.Decoder.view_string v = payload)
  | _ -> Alcotest.fail "expected a frame");
  check "straddle was copied (counted)" true (W.Decoder.copies d > 0);
  (* Views of one feed batch stay valid until the next feed: pull both
     frames of a single feed, then read them. *)
  let b = Buffer.create 64 in
  W.encode_request b (W.Feed "alpha");
  W.encode_request b (W.Feed "beta");
  let s = Buffer.contents b in
  let d = W.Decoder.create () in
  W.Decoder.feed_string d s;
  let v1 =
    match W.Decoder.next_view d with
    | W.Decoder.View v -> v
    | _ -> Alcotest.fail "frame 1"
  in
  let v2 =
    match W.Decoder.next_view d with
    | W.Decoder.View v -> v
    | _ -> Alcotest.fail "frame 2"
  in
  check "both views of the batch readable" true
    (W.Decoder.view_string v1 = "alpha" && W.Decoder.view_string v2 = "beta");
  check_int "no copies on whole-frame feeds" 0 (W.Decoder.copies d)

(* ---- FEED coalescing ---- *)

let counter_value srv name =
  let metrics = Obs.Metrics.Registry.metrics (SV.stats_registry srv) in
  match List.find_opt (fun m -> m.Obs.Metrics.name = name) metrics with
  | Some { Obs.Metrics.kind = Obs.Metrics.Counter c; _ } ->
      Obs.Metrics.Counter.value c
  | _ -> Alcotest.fail (Printf.sprintf "no counter %s" name)

let grammar_engine spec =
  match Registry.resolve spec with
  | Error msg -> Alcotest.fail ("no grammar " ^ spec ^ ": " ^ msg)
  | Ok g -> (
      match Engine.compile (Grammar.dfa g) with
      | Ok e -> e
      | Error _ -> Alcotest.fail ("engine compile failed for " ^ spec))

(* One session fed [input] under the given FEED split; everything is
   queued up front, so with [deliver_each = false] the whole burst lands
   in one on_data call and the server coalesces it into one batch. *)
let serve_tokens ?(deliver_each = false) lb grammar input split =
  let c = LB.connect lb in
  LB.send c (W.Open grammar);
  if deliver_each then LB.run lb;
  let pos = ref 0 in
  List.iter
    (fun n ->
      if n > 0 then LB.send_feed_sub c input ~pos:!pos ~len:n;
      pos := !pos + n;
      if deliver_each then LB.run lb)
    split;
  LB.send c W.Flush;
  LB.send c W.Close;
  LB.run lb;
  let replies = LB.replies c in
  (match List.rev replies with
  | W.Pending { ok; _ } :: _ -> check "clean flush" true ok
  | _ -> Alcotest.fail "expected PENDING last");
  tokens_of replies

let test_coalescing_parity () =
  (* N FEED frames coalesced into one batch must produce the exact token
     stream of N separately delivered feeds — and of the batch engine —
     across the golden grammar corpus and seeded random splits. *)
  let rng = Prng.create 0x5EEDL in
  List.iter
    (fun name ->
      let gen =
        match Gen_data.by_name name with
        | Some g -> g
        | None -> Alcotest.fail ("no generator " ^ name)
      in
      let input = gen ~seed:7L ~target_bytes:3000 () in
      let reference, outcome = Engine.tokens (grammar_engine name) input in
      check (name ^ ": batch engine finished") true (outcome = Engine.Finished);
      List.iter
        (fun split ->
          let clock, _ = fake_clock 0. in
          let lb = LB.create ~config:(config clock) () in
          let coalesced = serve_tokens lb name input split in
          check (name ^ ": coalesced ≡ batch engine") true
            (coalesced = reference);
          (* the burst really was coalesced: many FEEDs, fewer batches *)
          let srv = LB.server lb in
          let feeds = counter_value srv "feeds" in
          let batches = counter_value srv "feed_batches" in
          if feeds > 1 then
            check (name ^ ": burst coalesced") true (batches < feeds);
          let lb2 = LB.create ~config:(config clock) () in
          let separate =
            serve_tokens ~deliver_each:true lb2 name input split
          in
          check (name ^ ": separate feeds ≡ coalesced") true
            (separate = coalesced))
        [
          Fuzz.Chunking.bytes 37 (String.length input);
          Fuzz.Chunking.random rng (String.length input);
        ])
    [ "json"; "csv"; "yaml"; "fasta" ]

let test_backpressure_mid_batch () =
  (* Backpressure must engage mid-coalesced-batch: a burst of FEEDs whose
     token output blows the out-queue budget turns wants_read off while
     client bytes are still queued — and a tiny out_frame_bytes splits the
     batch into several TOKENS frames without changing the stream. *)
  let clock, _ = fake_clock 0. in
  let lb =
    LB.create
      ~config:(config ~max_out_bytes:256 ~out_frame_bytes:128 clock) ()
  in
  let srv = LB.server lb in
  let c = LB.connect lb in
  LB.send c (W.Open "@[0-9];[ ]+");
  LB.run lb;
  let input = String.concat " " (List.init 400 (fun _ -> "7")) in
  let pos = ref 0 in
  while !pos < String.length input do
    let n = min 40 (String.length input - !pos) in
    LB.send_feed_sub c input ~pos:!pos ~len:n;
    pos := !pos + n
  done;
  (* deliver roughly half the burst in one on_data: one coalesced batch,
     reply bytes >> max_out_bytes *)
  ignore (LB.step ~chunk:((5 + 40) * 10) lb : bool);
  check "client bytes still queued" true (LB.unsent c > 0);
  check "backpressure engaged mid-batch" false
    (SV.wants_read srv (LB.conn_id c));
  (* parity is unaffected: drain everything and compare token streams —
     counting TOKENS frames, which the 128-byte cap must have split *)
  LB.send c W.Flush;
  LB.send c W.Close;
  let frames = ref 0 in
  let toks = ref [] in
  let continue = ref true in
  while !continue do
    if not (LB.step lb) then continue := false;
    LB.drain_views c (fun v ->
        if v.W.Decoder.vtag = W.tag_tokens then begin
          incr frames;
          match
            W.iter_tokens_view v (fun ~rule ~buf ~pos ~len ->
                toks := (Bytes.sub_string buf pos len, rule) :: !toks)
          with
          | Ok _ -> ()
          | Error msg -> Alcotest.fail msg
        end)
  done;
  check "batch split into multiple TOKENS frames" true (!frames > 1);
  let reference, _ = Engine.tokens (grammar_engine "@[0-9];[ ]+") input in
  check "tokens ≡ batch engine despite backpressure" true
    (List.rev !toks = reference)

let test_decoder_copies_stat () =
  (* Straddle-free runs (whole frames per delivery) must report exactly
     zero decoder copies; byte-dribbled deliveries (every header and
     payload straddles) must report some. *)
  let clock, _ = fake_clock 0. in
  let lb = LB.create ~config:(config clock) () in
  let srv = LB.server lb in
  let c = LB.connect lb in
  LB.send c (W.Open "json");
  let input = Gen_data.json ~seed:3L ~target_bytes:5000 () in
  let pos = ref 0 in
  while !pos < String.length input do
    let n = min 500 (String.length input - !pos) in
    LB.send_feed_sub c input ~pos:!pos ~len:n;
    pos := !pos + n
  done;
  LB.send c W.Flush;
  LB.send c W.Close;
  LB.run lb;
  ignore (LB.replies c : W.reply list);
  check_int "straddle-free run: zero decoder copies" 0
    (SV.decoder_copies srv);
  check_int "exported as a counter" 0 (counter_value srv "decoder_copies");
  (* one frame bigger than the decoder's 4 KiB initial buffer, delivered
     in 1000-byte slices: the partial frame is carried across feeds until
     the buffer must grow with live bytes — a counted copy. The count
     must also survive the connection teardown (closed conns included). *)
  let d = LB.connect lb in
  LB.send d (W.Open "json");
  LB.send_feed_sub d input ~pos:0 ~len:(String.length input);
  LB.send d W.Flush;
  LB.send d W.Close;
  LB.run ~chunk:1000 lb;
  ignore (LB.replies d : W.reply list);
  check "straddled run counts copies" true (SV.decoder_copies srv > 0);
  check "closed conns keep their copies" true
    (counter_value srv "decoder_copies" > 0)

(* ---- vectored write path ---- *)

(* The same request stream through two identical servers: one drained
   through the single-buffer view (out_view/out_consume), one through
   the vectored path (out_vectors/out_vec_consume) with deliberately
   awkward partial consumes that land inside the 5-byte frame header
   and inside the deferred TOKENS payload. The reconstructed reply
   streams must be byte-identical. *)
let drive_requests srv id reqs =
  let b = Buffer.create 4096 in
  List.iter (fun r -> W.encode_request b r) reqs;
  let data = Buffer.to_bytes b in
  SV.on_data srv id data ~pos:0 ~len:(Bytes.length data)

let collect_view srv id =
  let out = Buffer.create 4096 in
  let continue = ref true in
  while !continue do
    let buf, pos, len = SV.out_view srv id in
    if len = 0 then continue := false
    else begin
      Buffer.add_subbytes out buf pos len;
      SV.out_consume srv id len
    end
  done;
  Buffer.contents out

let collect_vectored srv id ~step =
  let vecs = Array.make 8 (Bytes.empty, 0, 0) in
  let out = Buffer.create 4096 in
  let continue = ref true in
  while !continue do
    let k = SV.out_vectors srv id vecs in
    if k = 0 then continue := false
    else begin
      let total = ref 0 in
      for i = 0 to k - 1 do
        let _, _, len = vecs.(i) in
        total := !total + len
      done;
      let n = min step !total in
      let left = ref n and i = ref 0 in
      while !left > 0 do
        let buf, pos, len = vecs.(!i) in
        let take = min len !left in
        Buffer.add_subbytes out buf pos take;
        left := !left - take;
        incr i
      done;
      SV.out_vec_consume srv id n
    end
  done;
  Buffer.contents out

let test_vectored_write_parity () =
  let input = Gen_data.json ~seed:0xFEED1L ~target_bytes:3000 () in
  let reqs = [ W.Open "json"; W.Feed input; W.Flush; W.Close ] in
  let run collect =
    let srv = SV.create () in
    let id = SV.on_connect srv in
    drive_requests srv id reqs;
    let s = collect srv id in
    (s, srv)
  in
  let view_stream, _ = run collect_view in
  check "view stream nonempty" true (String.length view_stream > 0);
  List.iter
    (fun step ->
      let vec_stream, srv =
        run (fun srv id -> collect_vectored srv id ~step)
      in
      check
        (Printf.sprintf "vectored stream byte-identical (step %d)" step)
        true
        (vec_stream = view_stream);
      check "writev consumptions counted" true
        (counter_value srv "writevs" > 0))
    [ 1; 3; 7; 4096; max_int ]

(* ---- gathered feeds ---- *)

let test_feed_batch_parity () =
  let engine = grammar_engine "json" in
  let input = Gen_data.json ~seed:0xBA7C4L ~target_bytes:4096 () in
  let n = String.length input in
  let run_batch segments =
    let toks = ref [] in
    let tok =
      Stream_tokenizer.create engine ~emit:(fun lex rule ->
          toks := (lex, rule) :: !toks)
    in
    let arr =
      Array.of_list (List.map (fun (pos, len) -> (input, pos, len)) segments)
    in
    Stream_tokenizer.feed_batch tok arr (Array.length arr);
    (match Stream_tokenizer.finish tok with
    | Engine.Finished -> ()
    | Engine.Failed _ -> Alcotest.fail "batch workload must tokenize");
    List.rev !toks
  in
  let whole = run_batch [ (0, n) ] in
  check "tokens produced" true (whole <> []);
  let segs_of sizes =
    let rec go pos = function
      | [] -> if pos < n then [ (pos, n - pos) ] else []
      | s :: rest ->
          if pos >= n then []
          else
            let len = min s (n - pos) in
            (pos, len) :: go (pos + len) rest
    in
    go 0 sizes
  in
  check "tiny leading segments" true
    (run_batch (segs_of [ 1; 1; 1; 5; 64 ]) = whole);
  let rec splits pos acc =
    if pos >= n then List.rev acc
    else
      let len = min 97 (n - pos) in
      splits (pos + len) ((pos, len) :: acc)
  in
  check "97-byte segmentation" true (run_batch (splits 0 []) = whole);
  check "empty segments are no-ops" true
    (run_batch [ (0, 0); (0, n); (n, 0) ] = whole)

(* ---- client escaping ---- *)

let prop_escape_parity =
  QCheck.Test.make ~count:500 ~name:"client escaping ≡ Printf %S"
    (QCheck.make gen_bytes) (fun s ->
      let b = Buffer.create 64 in
      Serve.Client.append_escaped b (Bytes.of_string s) 0 (String.length s);
      Buffer.contents b = Printf.sprintf "%S" s)

let test_padded_parity () =
  List.iter
    (fun name ->
      let b = Buffer.create 32 in
      Serve.Client.append_padded b name;
      Alcotest.(check string)
        ("padding for " ^ name)
        (Printf.sprintf "%-12s " name)
        (Buffer.contents b))
    [ ""; "x"; "number"; "exactly12chr"; "longer_than_twelve" ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_request_roundtrip;
    QCheck_alcotest.to_alcotest prop_reply_roundtrip;
    QCheck_alcotest.to_alcotest prop_chunked_decode;
    Alcotest.test_case "lifecycle ≡ batch engine" `Quick test_lifecycle_parity;
    Alcotest.test_case "engine cache sharing" `Quick test_engine_cache_sharing;
    Alcotest.test_case "engine cache flag keys" `Quick
      test_engine_cache_flag_keys;
    Alcotest.test_case "idle eviction" `Quick test_idle_eviction;
    Alcotest.test_case "capacity rejection" `Quick test_capacity_rejection;
    Alcotest.test_case "backpressure" `Quick test_backpressure;
    Alcotest.test_case "flush resets stream" `Quick test_flush_resets_stream;
    Alcotest.test_case "lexical failure" `Quick test_lexical_failure;
    Alcotest.test_case "protocol errors" `Quick test_protocol_errors;
    Alcotest.test_case "drain" `Quick test_drain;
    QCheck_alcotest.to_alcotest prop_view_decode_identity;
    Alcotest.test_case "view straddle + compaction" `Quick
      test_view_straddle_compaction;
    Alcotest.test_case "coalescing parity" `Quick test_coalescing_parity;
    Alcotest.test_case "backpressure mid-coalesced-batch" `Quick
      test_backpressure_mid_batch;
    Alcotest.test_case "decoder copies stat" `Quick test_decoder_copies_stat;
    Alcotest.test_case "vectored write parity" `Quick
      test_vectored_write_parity;
    Alcotest.test_case "feed_batch parity" `Quick test_feed_batch_parity;
    QCheck_alcotest.to_alcotest prop_escape_parity;
    Alcotest.test_case "client padding parity" `Quick test_padded_parity;
  ]
