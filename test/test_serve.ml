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
        map3
          (fun ok offset pending -> W.Pending { ok; offset; pending })
          bool (int_bound (1 lsl 40)) gen_bytes;
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

(* The one token-record codec: records written by the session encoder's
   [Outbuf.add_token] / [Outbuf.add_u32] walk back in place, through
   [iter_tokens_view] / [iter_ids_view], to the same list; a TOKENS
   payload cut inside its last record and an IDS payload whose length is
   not a multiple of 4 are errors. *)
let view_of ~tag ob =
  let vbuf, voff, vlen = Serve.Outbuf.view ob in
  { W.Decoder.vtag = tag; vbuf; voff; vlen }

let prop_token_records =
  QCheck.Test.make ~count:500 ~name:"wire: token records round-trip"
    QCheck.(
      make
        Gen.(
          pair
            (list_size (int_bound 8) (pair gen_bytes (int_bound 100)))
            (int_bound 1000)))
    (fun (toks, cut) ->
      let tob = Serve.Outbuf.create () and iob = Serve.Outbuf.create () in
      List.iter
        (fun (lex, rule) ->
          Serve.Outbuf.add_token tob ~rule lex 0 (String.length lex);
          Serve.Outbuf.add_u32 iob rule)
        toks;
      let tv = view_of ~tag:W.tag_tokens tob in
      let got = ref [] and ids = ref [] in
      let tokens_ok =
        W.iter_tokens_view tv (fun ~rule ~buf ~pos ~len ->
            got := (Bytes.sub_string buf pos len, rule) :: !got)
        = Ok (List.length toks)
        && List.rev !got = toks
      in
      let ids_ok =
        W.iter_ids_view (view_of ~tag:W.tag_ids iob) (fun id -> ids := id :: !ids)
        = Ok (List.length toks)
        && List.rev !ids = List.map snd toks
      in
      let truncated_ok =
        match List.rev toks with
        | [] -> true
        | (last, _) :: _ ->
            let drop = 1 + (cut mod (7 + String.length last)) in
            Result.is_error
              (W.iter_tokens_view
                 { tv with W.Decoder.vlen = tv.W.Decoder.vlen - drop }
                 (fun ~rule:_ ~buf:_ ~pos:_ ~len:_ -> ()))
      in
      for _ = 0 to cut mod 3 do
        Serve.Outbuf.add_char iob 'x'
      done;
      let ragged_ok =
        Result.is_error (W.iter_ids_view (view_of ~tag:W.tag_ids iob) ignore)
      in
      tokens_ok && ids_ok && truncated_ok && ragged_ok)

(* Everything a reply stream carries, one item per TOKENS or IDS record
   or other reply, as [read_replies] reports it. *)
type read = Tok of string * int | Id of int | Rep of W.reply

let reader () =
  let got = ref [] in
  let read d =
    W.read_replies d
      ~tokens:(fun ~rule ~buf ~pos ~len ->
        got := Tok (Bytes.sub_string buf pos len, rule) :: !got)
      ~ids:(fun id -> got := Id id :: !got)
      ~reply:(fun r -> got := Rep r :: !got)
  in
  (read, fun () -> List.rev !got)

(* One reply frame — TOKENS and IDS batches built by the session's
   encoder, any other reply by [encode_reply] — and the items it reads
   back as. *)
let gen_reply_frame =
  let batch tag add recs =
    let body = Serve.Outbuf.create () and ob = Serve.Outbuf.create () in
    List.iter (add body) recs;
    Serve.Outbuf.add_frame ob ~tag body;
    let buf, pos, len = Serve.Outbuf.view ob in
    Bytes.sub_string buf pos len
  in
  QCheck.Gen.(
    oneof
      [
        map
          (fun r ->
            let b = Buffer.create 64 in
            W.encode_reply b r;
            (Buffer.contents b, [ Rep r ]))
          gen_reply;
        map
          (fun toks ->
            ( batch W.tag_tokens
                (fun ob (lex, rule) ->
                  Serve.Outbuf.add_token ob ~rule lex 0 (String.length lex))
                toks,
              List.map (fun (lex, rule) -> Tok (lex, rule)) toks ))
          (list_size (int_bound 6) (pair gen_bytes (int_bound 0xffff_ffff)));
        map
          (fun ids ->
            ( batch W.tag_ids Serve.Outbuf.add_u32 ids,
              List.map (fun id -> Id id) ids ))
          (list_size (int_bound 8) (int_bound 0xffff_ffff));
      ])

(* [read_replies] returns a framed reply sequence — cut at random points
   and fed piecewise — item for item. A stream cut inside a frame reads
   as the frames before the cut, with [Ok]; a length prefix past
   [max_payload] is an [Error] after every earlier frame is delivered. *)
let prop_read_replies =
  QCheck.Test.make ~count:300 ~name:"wire: read_replies round-trip"
    QCheck.(
      make
        Gen.(
          triple
            (list_size (int_range 1 8) gen_reply_frame)
            (list_size (int_bound 6) (int_bound 10_000))
            (pair (int_bound 10_000) (int_bound 10_000))))
    (fun (frames, cuts, (stop, bad)) ->
      let stream = String.concat "" (List.map fst frames) in
      let n = String.length stream in
      let expect k =
        List.concat_map snd (List.filteri (fun i _ -> i < k) frames)
      in
      let whole = expect (List.length frames) in
      let cuts =
        List.sort_uniq compare (List.map (fun c -> c mod (n + 1)) cuts)
      in
      let d = W.Decoder.create () in
      let read, got = reader () in
      let piecewise_ok =
        List.fold_left
          (fun (ok, from) upto ->
            W.Decoder.feed d stream ~pos:from ~len:(upto - from);
            (read d = Ok () && ok, upto))
          (true, 0) (cuts @ [ n ])
        = (true, n)
        && got () = whole
      in
      (* a prefix: the whole frames before the cut *)
      let stop = stop mod (n + 1) in
      let ends =
        List.rev
          (List.fold_left
             (fun acc (f, _) ->
               let e = match acc with e :: _ -> e | [] -> 0 in
               (e + String.length f) :: acc)
             [] frames)
      in
      let complete = List.length (List.filter (fun e -> e <= stop) ends) in
      let d = W.Decoder.create () in
      let read, got = reader () in
      W.Decoder.feed d stream ~pos:0 ~len:stop;
      let prefix_ok = read d = Ok () && got () = expect complete in
      (* a corrupt length prefix on frame [bad] *)
      let bad = bad mod List.length frames in
      let at = if bad = 0 then 0 else List.nth ends (bad - 1) in
      let corrupt = Bytes.of_string stream in
      Bytes.set_int32_be corrupt at (-1l);
      let d = W.Decoder.create () in
      let read, got = reader () in
      W.Decoder.feed_bytes d corrupt ~pos:0 ~len:n;
      let corrupt_ok = Result.is_error (read d) && got () = expect bad in
      piecewise_ok && prefix_ok && corrupt_ok)

(* The TOKENS records of a reply byte stream, read as the client reads
   them. *)
let tokens_of_stream s =
  let d = W.Decoder.create () in
  W.Decoder.feed_string d s;
  let toks = ref [] in
  (match
     W.read_replies d
       ~tokens:(fun ~rule ~buf ~pos ~len ->
         toks := (Bytes.sub_string buf pos len, rule) :: !toks)
       ~ids:ignore ~reply:ignore
   with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  List.rev !toks

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
    clock =
  { SV.default_config with max_sessions; idle_timeout; max_out_bytes; clock }

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
  check "tokens ≡ batch engine" true (LB.tokens c = reference);
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

(* The OPENED [cached] flag comes from the same locked lookup that finds
   or compiles the engine: with a 1-entry cache it must report a miss, a
   hit, then a miss again once another grammar has evicted the entry. *)
let test_cached_flag_eviction () =
  let clock, _ = fake_clock 0. in
  let lb = LB.create ~config:{ (config clock) with SV.cache_entries = 1 } () in
  let open_one spec =
    let c = LB.connect lb in
    LB.send c (W.Open spec);
    LB.run lb;
    match LB.replies c with
    | [ W.Opened { cached; _ } ] -> cached
    | _ -> Alcotest.fail "expected OPENED"
  in
  check "first open misses" false (open_one "json");
  check "second open hits" true (open_one "json");
  check "other grammar misses" false (open_one "csv");
  check "evicted grammar misses again" false (open_one "json");
  let cache = SV.cache (LB.server lb) in
  check_int "three compiles" 3 (Engine_cache.compiles cache);
  check_int "one hit" 1 (Engine_cache.hits cache);
  check_int "two evictions" 2 (Engine_cache.evictions cache)

(* A 22-byte grammar OPEN whose DFA has 2^17 + 2 states (max-TND 0):
   every OPEN compiles under the subset-construction cap, so it is a
   non-retryable Bad_grammar naming the cap, and the server then serves an
   honest session exactly as the batch engine tokenizes. *)
let test_over_cap_open () =
  let clock, _ = fake_clock 0. in
  let lb = LB.create ~config:(config clock) () in
  let hostile = LB.connect lb in
  LB.send hostile (W.Open "@[ab]*a[ab]{16}c");
  LB.run lb;
  (match LB.replies hostile with
  | [ W.Error { code = W.Bad_grammar; retryable; message } ] ->
      check "not retryable" false retryable;
      Alcotest.(check string)
        "names the state cap"
        "Dfa.of_nfa: subset construction exceeded 65536 states (max_states \
         cap)"
        message
  | _ -> Alcotest.fail "expected one Bad_grammar error");
  check "hostile connection closed" true (LB.closed hostile);
  let input = Gen_data.json ~seed:5L ~target_bytes:3000 () in
  let c = LB.connect lb in
  LB.send c (W.Open "json");
  LB.send c (W.Feed input);
  LB.send c W.Flush;
  LB.run lb;
  let reference, outcome = Engine.tokens (Lazy.force json_engine) input in
  check "batch outcome finished" true (outcome = Engine.Finished);
  check "tokens ≡ batch engine" true (LB.tokens c = reference);
  check_int "no engine cached for the hostile grammar" 1
    (Engine_cache.size (SV.cache (LB.server lb)))

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
    (LB.tokens c = [ ("foo", 0); (" ", 1); ("bar", 0); ("baz", 0) ]);
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
  (match
     List.filter
       (function W.Error { code = W.Lexical; _ } -> true | _ -> false)
       replies
   with
  | [ W.Error { retryable; _ } ] ->
      check "one lexical error, not retryable" false retryable
  | errors ->
      Alcotest.fail
        (Printf.sprintf "expected exactly one Lexical ERROR, got %d"
           (List.length errors)));
  (match
     List.find_opt (function W.Pending _ -> true | _ -> false) replies
   with
  | Some (W.Pending { ok; offset; _ }) ->
      check "flush reports failure" false ok;
      check_int "failure offset" 3 offset
  | _ -> Alcotest.fail "expected PENDING");
  check "feeds after failure dropped" true (LB.tokens c = [ ("abc", 0) ]);
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
  (match List.rev (LB.replies c) with
  | W.Pending { ok; _ } :: _ -> check "clean flush" true ok
  | _ -> Alcotest.fail "expected PENDING last");
  LB.tokens c

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
     client bytes are still queued — and the same tiny budget splits the
     batch into several TOKENS frames without changing the stream. *)
  let clock, _ = fake_clock 0. in
  let lb = LB.create ~config:(config ~max_out_bytes:128 clock) () in
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

(* ---- short writes ---- *)

(* The daemon's drain path under short writes. FEED and FLUSH arrive in
   separate reads, so one token batch is framed when the first read's
   input runs out and another at the FLUSH; [step]-byte writes through
   out_view/out_consume then stop inside the 5-byte frame header and
   inside the TOKENS payload. Every split must reproduce the whole drain
   byte for byte, the whole drain's TOKENS records must be the batch
   engine's tokens, and a loopback run at the same chunk size (which
   drains the same way) must deliver those tokens too. *)
let drive_requests srv id reqs =
  let b = Buffer.create 4096 in
  List.iter (fun r -> W.encode_request b r) reqs;
  let data = Buffer.to_bytes b in
  SV.on_data srv id data ~pos:0 ~len:(Bytes.length data)

let collect_short_writes srv id ~step =
  let out = Buffer.create 4096 in
  while SV.out_pending srv id > 0 do
    let buf, pos, len = SV.out_view srv id in
    let take = min len step in
    Buffer.add_subbytes out buf pos take;
    SV.out_consume srv id take
  done;
  Buffer.contents out

let test_short_write_parity () =
  let input = Gen_data.json ~seed:0xFEED1L ~target_bytes:3000 () in
  let reference, _ = Engine.tokens (Lazy.force json_engine) input in
  let run step =
    let srv = SV.create () in
    let id = SV.on_connect srv in
    let s =
      String.concat ""
        (List.map
           (fun reqs ->
             drive_requests srv id reqs;
             collect_short_writes srv id ~step)
           [ [ W.Open "json"; W.Feed input ]; [ W.Flush; W.Close ] ])
    in
    check
      (Printf.sprintf "writes counted (step %d)" step)
      true
      (counter_value srv "writevs" > 0);
    s
  in
  let whole = run max_int in
  check "whole drain ≡ batch engine" true (tokens_of_stream whole = reference);
  List.iter
    (fun step ->
      check
        (Printf.sprintf "split drain byte-identical (step %d)" step)
        true
        (run step = whole);
      let lb = LB.create () in
      let c = LB.connect lb in
      List.iter (LB.send c) [ W.Open "json"; W.Feed input; W.Flush; W.Close ];
      LB.run ~chunk:step lb;
      check
        (Printf.sprintf "loopback tokens ≡ batch engine (chunk %d)" step)
        true
        (LB.tokens c = reference))
    [ 1; 3; 7; 4096 ]

(* ---- multi-segment feeds ---- *)

(* A fresh session OPENed on [spec], fed [segs] of [input] by one
   [Session.feed_views] call, then FLUSHed: the tokens its batch encoder
   held after each, the feed's replies and the FLUSH's replies. *)
let session_feed_views spec input segs =
  let s =
    Serve.Session.create
      {
        Serve.Session.cache = Engine_cache.create ();
        resolve = Registry.resolve;
      }
  in
  (match Serve.Session.handle s (W.Open spec) with
  | [ W.Opened _ ] -> ()
  | _ -> Alcotest.fail ("OPEN " ^ spec));
  let arr =
    Array.of_list (List.map (fun (pos, len) -> (input, pos, len)) segs)
  in
  let toks = ref [] in
  let take () =
    (match Serve.Session.batch s with
    | None -> ()
    | Some (enc, _) -> (
        let vbuf, voff, vlen = Serve.Outbuf.view enc in
        match
          W.iter_tokens_view
            { W.Decoder.vtag = W.tag_tokens; vbuf; voff; vlen }
            (fun ~rule ~buf ~pos ~len ->
              toks := (Bytes.sub_string buf pos len, rule) :: !toks)
        with
        | Ok _ -> ()
        | Error msg -> Alcotest.fail msg));
    Serve.Session.batch_clear s
  in
  let fed = Serve.Session.feed_views s arr (Array.length arr) in
  take ();
  let flushed = Serve.Session.handle s W.Flush in
  take ();
  (List.rev !toks, fed, flushed)

let test_feed_views_segments () =
  let input = Gen_data.json ~seed:0xBA7C4L ~target_bytes:4096 () in
  let n = String.length input in
  let reference, outcome = Engine.tokens (grammar_engine "json") input in
  check "batch engine finished" true (outcome = Engine.Finished);
  let parity name segs =
    let toks, fed, flushed = session_feed_views "json" input segs in
    check (name ^ ": no feed replies") true (fed = []);
    check (name ^ ": clean flush") true
      (flushed = [ W.Pending { ok = true; offset = n; pending = "" } ]);
    check (name ^ ": tokens ≡ batch engine") true (toks = reference)
  in
  let segs_of sizes =
    let rec go pos = function
      | [] -> if pos < n then [ (pos, n - pos) ] else []
      | s :: rest ->
          let len = min s (n - pos) in
          (pos, len) :: go (pos + len) rest
    in
    go 0 sizes
  in
  parity "one segment" [ (0, n) ];
  parity "tiny leading segments" (segs_of [ 1; 1; 1; 5; 64 ]);
  parity "97-byte segments" (segs_of (List.init ((n + 96) / 97) (fun _ -> 97)));
  parity "empty segments"
    [ (0, 0); (0, 100); (100, 0); (100, 0); (100, n - 100); (n, 0) ];
  (* segment 1 fails the stream; segment 2 is not consumed *)
  let input = "ab cde 1fg hi" in
  let segs = [ (0, 5); (5, 5); (10, 3) ] in
  let reference, outcome =
    Engine.tokens (grammar_engine "@[a-z]+;[ ]+") input
  in
  let toks, fed, flushed = session_feed_views "@[a-z]+;[ ]+" input segs in
  (match outcome with
  | Engine.Failed { offset; _ } ->
      check_int "batch engine fails at the digit" 7 offset;
      check "PENDING carries the failure offset" true
        (flushed = [ W.Pending { ok = false; offset; pending = "1" } ])
  | Engine.Finished -> Alcotest.fail "the digit must fail the stream");
  (match fed with
  | [ W.Error { code = W.Lexical; retryable = false; _ } ] -> ()
  | _ -> Alcotest.fail "expected exactly one Lexical ERROR");
  check "tokens up to the failure ≡ batch engine" true (toks = reference)

(* ---- client escaping ---- *)

let prop_escape_parity =
  QCheck.Test.make ~count:500 ~name:"client escaping ≡ Printf %S"
    (QCheck.make gen_bytes) (fun s ->
      let b = Buffer.create 64 in
      Serve.Client.append_escaped b (Bytes.of_string s) 0 (String.length s);
      Buffer.contents b = Printf.sprintf "%S" s)

(* The engine-cache key is structural: equal iff the rule lists are equal
   rule by rule. Generated pairs over {a,b,c} are mostly unequal, so each
   grammar is also checked against a fresh deep copy of itself (equal, not
   shared) and against its Alt/Seq flip (same shape and classes), and
   json and csv against byte renamings of themselves (the printable bytes
   permuted: equal only under the identity). *)
let key = Engine_cache.key_of_rules

let rec copy_regex = function
  | Regex.Eps -> Regex.Eps
  | Regex.Cls cs -> Regex.Cls (Charset.union cs Charset.empty)
  | Regex.Alt (a, b) -> Regex.Alt (copy_regex a, copy_regex b)
  | Regex.Seq (a, b) -> Regex.Seq (copy_regex a, copy_regex b)
  | Regex.Star a -> Regex.Star (copy_regex a)

let rec rename_regex perm = function
  | Regex.Cls cs ->
      Regex.Cls
        (Charset.fold
           (fun c acc -> Charset.union acc (Charset.singleton perm.(Char.code c)))
           cs Charset.empty)
  | Regex.Alt (a, b) -> Regex.Alt (rename_regex perm a, rename_regex perm b)
  | Regex.Seq (a, b) -> Regex.Seq (rename_regex perm a, rename_regex perm b)
  | Regex.Star a -> Regex.Star (rename_regex perm a)
  | Regex.Eps -> Regex.Eps

(* The same shape with every Alt and Seq swapped: equal only without
   either node. *)
let rec flip = function
  | Regex.Alt (a, b) -> Regex.Seq (flip a, flip b)
  | Regex.Seq (a, b) -> Regex.Alt (flip a, flip b)
  | Regex.Star a -> Regex.Star (flip a)
  | r -> r

let prop_cache_key_iff_equal =
  QCheck.Test.make ~count:500 ~name:"cache key equal iff rules equal"
    QCheck.(pair Fuzz.Qgen.grammar_arb Fuzz.Qgen.grammar_arb)
    (fun (a, b) ->
      let iff x y = (key x = key y) = List.equal Regex.equal x y in
      key (List.map copy_regex a) = key a
      && iff a b
      && iff a (List.map flip a))

let test_cache_key_renamings () =
  let formats = List.map Grammar.rules [ Formats.json; Formats.csv ] in
  let variants =
    List.concat_map
      (fun rules ->
        rules
        :: List.init 100 (fun seed ->
               let rng = Prng.create (Int64.of_int seed) in
               let range = Array.init 94 (fun i -> Char.chr (33 + i)) in
               Prng.shuffle rng range;
               let perm = Array.init 256 Char.chr in
               Array.iteri (fun i c -> perm.(33 + i) <- c) range;
               List.map (rename_regex perm) rules))
      formats
  in
  let variants = Array.of_list variants in
  let keys = Array.map key variants in
  let wrong = ref 0 in
  Array.iteri
    (fun i a ->
      for j = i + 1 to Array.length variants - 1 do
        if List.equal Regex.equal a variants.(j) <> (keys.(i) = keys.(j)) then
          incr wrong
      done)
    variants;
  check_int "pairs whose keys disagree with rule equality" 0 !wrong

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
    QCheck_alcotest.to_alcotest prop_token_records;
    QCheck_alcotest.to_alcotest prop_read_replies;
    QCheck_alcotest.to_alcotest prop_chunked_decode;
    Alcotest.test_case "lifecycle ≡ batch engine" `Quick test_lifecycle_parity;
    Alcotest.test_case "engine cache sharing" `Quick test_engine_cache_sharing;
    Alcotest.test_case "cached flag across eviction" `Quick
      test_cached_flag_eviction;
    Alcotest.test_case "over-cap OPEN refused" `Quick test_over_cap_open;
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
    Alcotest.test_case "short-write parity" `Quick
      test_short_write_parity;
    Alcotest.test_case "feed_views segments" `Quick test_feed_views_segments;
    QCheck_alcotest.to_alcotest prop_escape_parity;
    Alcotest.test_case "client padding parity" `Quick test_padded_parity;
    QCheck_alcotest.to_alcotest prop_cache_key_iff_equal;
    Alcotest.test_case "cache key over renamings" `Quick
      test_cache_key_renamings;
  ]
