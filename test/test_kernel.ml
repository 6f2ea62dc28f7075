(* The slice-emitting streaming kernel behind Engine.run_string,
   Stream_tokenizer and Session: serving payloads byte-identical to the
   Backtracking reference at every chunk size that can split a token's
   lookahead window, exact failure reports when the pending bytes straddle
   a chunk boundary, allocation per chunk rather than per token, tokenizer
   reuse, and exact replayed state heat. *)

open Streamtok
module W = Serve.Wire
module Session = Serve.Session

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let deps () =
  { Session.cache = Engine_cache.create (); resolve = Registry.resolve }

let mini_vocab_text () =
  In_channel.with_open_bin "vocab/mini.tiktoken" In_channel.input_all

let open_request = function
  | `Grammar g -> W.Open g
  | `Bpe_ids -> W.Open_bpe { ids = true; vocab = mini_vocab_text () }

let reference_dfa = function
  | `Grammar g -> Grammar.dfa (Option.get (Registry.find g))
  | `Bpe_ids -> (
      match Bpe.Vocab.of_string (mini_vocab_text ()) with
      | Ok v -> Dfa.of_rules (Bpe.Compiler.rules_of_vocab v)
      | Error e -> Alcotest.fail e)

let put_u32 b v =
  Buffer.add_char b (Char.chr ((v lsr 24) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char b (Char.chr (v land 0xff))

(* The TOKENS (or IDS) record bytes the reference tokenization encodes to. *)
let reference_payload ~ids toks =
  let b = Buffer.create 1024 in
  List.iter
    (fun (lex, rule) ->
      put_u32 b rule;
      if not ids then begin
        put_u32 b (String.length lex);
        Buffer.add_string b lex
      end)
    toks;
  Buffer.contents b

(* Drive one stream through a session in [chunk]-byte FEEDs; returns the
   concatenated batch payloads and the FLUSH reply. *)
let session_run s input ~chunk =
  let out = Buffer.create 1024 in
  let take () =
    match Session.batch s with
    | None -> ()
    | Some (ob, _) ->
        let buf, pos, len = Serve.Outbuf.view ob in
        Buffer.add_subbytes out buf pos len;
        Session.batch_clear s
  in
  let n = String.length input in
  let p = ref 0 in
  while !p < n do
    let l = min chunk (n - !p) in
    ignore (Session.feed_views s [| (input, !p, l) |] 1);
    take ();
    p := !p + l
  done;
  let replies = Session.handle s W.Flush in
  take ();
  let pending =
    List.find_map
      (function
        | W.Pending { ok; offset; pending } -> Some (ok, offset, pending)
        | _ -> None)
      replies
  in
  (Buffer.contents out, Option.get pending)

let test_straddle_parity () =
  List.iter
    (fun (spec, k, input) ->
      let ids = spec = `Bpe_ids in
      let toks, outcome = Backtracking.tokens (reference_dfa spec) input in
      check "reference finishes" true (outcome = Backtracking.Finished);
      let expected = reference_payload ~ids toks in
      let s = Session.create (deps ()) in
      (match Session.handle s (open_request spec) with
      | [ W.Opened { k = k'; _ } ] -> check_int "K" k k'
      | _ -> Alcotest.fail "OPEN failed");
      for chunk = 1 to (2 * k) + 2 do
        (* FLUSH resets the stream: one session serves every chunk size *)
        let payload, (ok, offset, _) = session_run s input ~chunk in
        let name = Printf.sprintf "K=%d chunk=%d" k chunk in
        check (name ^ ": payload = Backtracking") true (payload = expected);
        check (name ^ ": clean flush") true ok;
        check_int (name ^ ": offset") (String.length input) offset
      done)
    [
      (`Grammar "json", 3, Gen_data.json ~seed:21L ~target_bytes:700 ());
      (`Grammar "xml", 6, Gen_data.xml ~seed:22L ~target_bytes:700 ());
      (`Bpe_ids, 5, Gen_data.json ~seed:23L ~target_bytes:400 ());
    ]

(* A lexical failure whose pending bytes straddle chunk boundaries: the
   PENDING offset and bytes are the failed token's start and its bytes up
   to the one that killed it (to the end of stream if none did), for every
   chunking. *)
let test_straddle_failure () =
  List.iter
    (fun (g, input, want_offset, want_pending) ->
      let s = Session.create (deps ()) in
      ignore (Session.handle s (W.Open g));
      for chunk = 1 to 14 do
        let _, (ok, offset, pending) = session_run s input ~chunk in
        let name = Printf.sprintf "%s %S chunk=%d" g input chunk in
        check (name ^ ": failed") false ok;
        check_int (name ^ ": offset") want_offset offset;
        Alcotest.(check string) (name ^ ": pending") want_pending pending
      done)
    [
      ("json", "[1, trux]", 4, "trux");
      ("json", "[true, fals", 7, "fals");
      ("json", "[1, \"abc", 4, "\"abc");
      ("xml", "<a><b>hello</b></a><!-- unterminated comment", 19,
       "<!-- unterminated comment");
    ]

(* One stream in [chunk]-byte FEEDs, batches drained and discarded;
   returns the token count. *)
let session_count s input ~chunk =
  let n = String.length input in
  let p = ref 0 and toks = ref 0 in
  let take () =
    match Session.batch s with
    | Some (_, c) ->
        toks := !toks + c;
        Session.batch_clear s
    | None -> ()
  in
  while !p < n do
    let l = min chunk (n - !p) in
    ignore (Session.feed_views s [| (input, !p, l) |] 1);
    take ();
    p := !p + l
  done;
  ignore (Session.handle s W.Flush);
  take ();
  !toks

(* Minor-heap words allocated by one document pushed through a session in
   64 KiB FEEDs, after a warm-up document (Outbuf and carry growth), and
   the document's token count. *)
let session_minor_words spec doc =
  let s = Session.create (deps ()) in
  ignore (Session.handle s (open_request spec));
  ignore (session_count s doc ~chunk:65536);
  let w0 = Gc.minor_words () in
  let tokens = session_count s doc ~chunk:65536 in
  (Gc.minor_words () -. w0, tokens)

(* Allocation scales with chunks, not tokens: no lexeme is materialized on
   the TOKENS path, and IDS sessions encode the rule only. The bound —
   512 words per chunk plus 4096 per document — is orders of magnitude
   below one word per token. The IDS document repeats a 4 KiB sample of
   the mini vocabulary's training distribution, as the bpe-ids workload
   does: fresh json, csv or corpus text keeps materializing new
   token-extension powerstates (about 11k after 64 KiB of corpus text),
   which costs memory but says nothing about per-token allocation. *)
let test_allocation_per_chunk () =
  let doc_bytes = 512 * 1024 in
  let chunks = doc_bytes / 65536 in
  List.iter
    (fun (name, spec, doc) ->
      let words, tokens = session_minor_words spec doc in
      let bound = float_of_int ((512 * chunks) + 4096) in
      check
        (Printf.sprintf
           "%s: %.0f minor words for %d chunks, %d tokens (bound %.0f)" name
           words chunks tokens bound)
        true
        (words <= bound && tokens > 10 * int_of_float bound))
    [
      ( "json TOKENS",
        `Grammar "json",
        Gen_data.json ~seed:31L ~target_bytes:doc_bytes () );
      ( "csv TOKENS",
        `Grammar "csv",
        Gen_data.csv ~seed:32L ~target_bytes:doc_bytes () );
      ( "bpe IDS",
        `Bpe_ids,
        let pool = Bpe.Trainer.gen_corpus (Prng.create 33L) 4096 in
        String.concat "" (List.init (doc_bytes / 4096) (fun _ -> pool)) );
    ]

let engine_of g =
  match Engine.compile (Grammar.dfa (Option.get (Registry.find g))) with
  | Ok e -> e
  | Error _ -> assert false

(* A reset tokenizer behaves as a fresh one — after a clean stream, a
   failed one, and a token long enough to grow the carry. *)
let test_reset_reuse () =
  let e = engine_of "json" in
  let acc = ref [] in
  let t =
    Stream_tokenizer.create e ~emit:(fun lex rule -> acc := (lex, rule) :: !acc)
  in
  let run input chunk =
    acc := [];
    let n = String.length input in
    let p = ref 0 in
    while !p < n do
      let l = min chunk (n - !p) in
      Stream_tokenizer.feed t input !p l;
      p := !p + l
    done;
    let o = Stream_tokenizer.finish t in
    Stream_tokenizer.reset t;
    (List.rev !acc, o)
  in
  let clean = Gen_data.json ~seed:41L ~target_bytes:2000 () in
  let long = "[\"" ^ String.make 100_000 'x' ^ "\", 1]" in
  List.iter
    (fun (input, chunk) ->
      let toks, o = run input chunk in
      let rtoks, ro = Engine.tokens e input in
      check "tokens = batch run" true (toks = rtoks);
      match (o, ro) with
      | Engine.Finished, Engine.Finished -> ()
      | Engine.Failed { offset; _ }, Engine.Failed { offset = ro; _ } ->
          check_int "failure offset" ro offset
      | _ -> Alcotest.fail "outcome differs from a fresh run")
    [
      (clean, 7);
      ("[1, trux]", 3);
      (long, 4096);
      (clean, 1);
      (long, 65536);
      (clean, 64);
    ];
  check_int "bytes_fed restarts" 0 (Stream_tokenizer.bytes_fed t)

(* The state heat is exact: its skipped bytes are the kernel's own skip
   counter, visits + skipped cover every byte, and per state they equal
   the visits of an unaccelerated build of the same DFA (it skips
   nothing and has identical tables), on inputs that skip, fail, or start
   past offset 0. *)
let test_heat_replay_exact () =
  let heat e ~from input =
    let stats = Run_stats.create () in
    Run_stats.enable_state_heat stats ~states:(Dfa.size (Engine.dfa e));
    ignore
      (Engine.run_string_instrumented ~from e input ~stats
         ~emit:(fun ~pos:_ ~len:_ ~rule:_ -> ()));
    stats
  in
  let json = Gen_data.json ~seed:51L ~target_bytes:65536 () in
  List.iter
    (fun (label, g, from, input) ->
      let grammar = Option.get (Registry.find g) in
      let e = engine_of g in
      let e_off =
        match
          Engine.compile (Dfa.of_rules ~accel:Accel.Off (Grammar.rules grammar))
        with
        | Ok e -> e
        | Error _ -> assert false
      in
      check (label ^ ": off build has the same tables") true
        ((Engine.dfa e).Dfa.trans = (Engine.dfa e_off).Dfa.trans
        && (Engine.dfa e).Dfa.accept = (Engine.dfa e_off).Dfa.accept);
      let stats = heat e ~from input and off = heat e_off ~from input in
      let visits = Run_stats.state_visits stats in
      let skipped = Run_stats.state_skipped stats in
      let sum = Array.fold_left ( + ) 0 in
      check_int (label ^ ": heat skipped = kernel skipped")
        (Run_stats.accel_skipped stats) (sum skipped);
      check_int (label ^ ": every byte counted once")
        (String.length input - from)
        (sum visits + sum skipped);
      check (label ^ ": skips happened") true (sum skipped > 0);
      check (label ^ ": off build skips nothing") true
        (sum (Run_stats.state_skipped off) = 0);
      check (label ^ ": visits + skipped = off-build visits, per state") true
        (Array.mapi (fun q v -> v + skipped.(q)) visits
        = Run_stats.state_visits off))
    [
      ("json", "json", 0, json);
      ("csv", "csv", 0, Gen_data.csv ~seed:52L ~target_bytes:65536 ());
      ("xml", "xml", 0, Gen_data.xml ~seed:53L ~target_bytes:65536 ());
      ( "json lexical error",
        "json",
        0,
        String.sub json 0 30000 ^ "@@ trux" ^ String.sub json 30000 5000 );
      ("json from 1", "json", 1, json);
    ]

let suite =
  [
    Alcotest.test_case "session straddle parity (json, xml, bpe ids)" `Quick
      test_straddle_parity;
    Alcotest.test_case "straddling failure: pending offset and bytes" `Quick
      test_straddle_failure;
    Alcotest.test_case "session allocation per chunk, not per token" `Quick
      test_allocation_per_chunk;
    Alcotest.test_case "reset reuses the tokenizer" `Quick test_reset_reuse;
    Alcotest.test_case "replayed state heat is exact" `Quick
      test_heat_replay_exact;
  ]
