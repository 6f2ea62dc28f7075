open St_streamtok
open St_grammars

type deps = {
  cache : Engine_cache.t;
  resolve : string -> (Grammar.t, string) result;
}

type opened_state = {
  grammar_name : string;
  rule_names : string list;
  ids : bool;  (* token-id serving mode: IDS frames, no lexeme bytes *)
  enc : Outbuf.t;  (* encoded TOKENS/IDS records; shared with the emit closure *)
  ntoks : int ref;
  tok : Stream_tokenizer.t;
  mutable outcome : Engine.outcome option;
      (* set as soon as the current stream fails; FLUSH reports and clears *)
}

type state = Awaiting_open | Opened_ of opened_state

type t = { deps : deps; mutable state : state }

let create deps = { deps; state = Awaiting_open }
let opened t = match t.state with Opened_ _ -> true | Awaiting_open -> false

(* Tokens are encoded straight from the tokenizer's slices into the wire
   format as they are emitted — u32 rule, u32 len, lexeme bytes (or just
   u32 rule in id mode) — into a scratch Outbuf reused across frames. No
   lexeme is materialized; flushing a batch is then a single header poke +
   one blit. *)
let new_tokenizer ~ids engine enc ntoks =
  if ids then
    Stream_tokenizer.create_slices engine ~emit:(fun _ _ _ rule ->
        Outbuf.add_u32 enc rule;
        incr ntoks)
  else
    Stream_tokenizer.create_slices engine ~emit:(fun buf pos len rule ->
        Outbuf.add_token enc ~rule buf pos len;
        incr ntoks)

let batch t =
  match t.state with
  | Awaiting_open -> None
  | Opened_ os -> if !(os.ntoks) = 0 then None else Some (os.enc, !(os.ntoks))

let batch_tag t =
  match t.state with
  | Opened_ os when os.ids -> Wire.tag_ids
  | _ -> Wire.tag_tokens

let batch_clear t =
  match t.state with
  | Awaiting_open -> ()
  | Opened_ os ->
      Outbuf.clear os.enc;
      os.ntoks := 0

let protocol_error message =
  [ Wire.Error { code = Wire.Protocol; retryable = false; message } ]

let bad_grammar message =
  [ Wire.Error { code = Wire.Bad_grammar; retryable = false; message } ]

(* OPEN resolves a spec; OPEN_BPE admits a vocabulary (parse, audit,
   literal rules). Either way the client grammar is a (grammar name, rule
   names, rules) triple for [handle_open]. *)
let grammar_of_spec t spec =
  Result.map
    (fun g -> (g.Grammar.name, List.map fst g.Grammar.rules, Grammar.rules g))
    (t.deps.resolve spec)

let grammar_of_vocab text =
  Result.map
    (fun rules ->
      ("bpe", List.mapi (fun id _ -> St_bpe.Compiler.rule_name id) rules, rules))
    (Result.bind (St_bpe.Vocab.of_string text) St_bpe.Compiler.admit)

(* The one compile path for client grammars: one cache lookup (whose hit
   flag is the OPENED [cached] field) under one subset-construction cap,
   so a grammar whose DFA blows up — bounded max-TND is PSPACE-complete to
   decide and the DFA can be exponential in the grammar — is a
   Bad_grammar reply, not an OOM. The cache key ([Engine_cache.key_of_rules])
   encodes the rules' structure, so sessions of one grammar share one engine. *)
let handle_open t ~ids resolve =
  match t.state with
  | Opened_ _ -> protocol_error "session already OPENed"
  | Awaiting_open -> (
      match resolve () with
      | Error message -> bad_grammar message
      | Ok (grammar_name, rule_names, rules) -> (
          match
            Engine_cache.lookup t.deps.cache
              ~max_states:St_bpe.Compiler.default_max_states rules
          with
          | exception Failure message -> bad_grammar message
          | Error Engine.Unbounded_tnd, _ ->
              bad_grammar
                (Printf.sprintf
                   "grammar %s has unbounded max-TND; no bounded-memory \
                    streaming tokenizer exists"
                   grammar_name)
          | Ok engine, cached ->
              let enc = Outbuf.create () in
              let ntoks = ref 0 in
              t.state <-
                Opened_
                  {
                    grammar_name;
                    rule_names;
                    ids;
                    enc;
                    ntoks;
                    tok = new_tokenizer ~ids engine enc ntoks;
                    outcome = None;
                  };
              [
                Wire.Opened
                  {
                    grammar = grammar_name;
                    k = Engine.k engine;
                    cached;
                    rules = rule_names;
                  };
              ]))

let p_feed = St_trace.Trace.probe ~cat:"session" "session.feed"

(* Shared post-feed failure check: drain now so the failure offset is
   exact; the outcome is replayed by the next FLUSH. *)
let check_failed os =
  if Stream_tokenizer.failed os.tok then begin
    let outcome = Stream_tokenizer.finish os.tok in
    os.outcome <- Some outcome;
    let message =
      match outcome with
      | Engine.Failed { offset; pending } ->
          Printf.sprintf
            "untokenizable input at offset %d (%d pending bytes); \
             FLUSH for the outcome"
            offset (String.length pending)
      | Engine.Finished -> "stream failed"
    in
    [ Wire.Error { code = Wire.Lexical; retryable = false; message } ]
  end
  else []

let feed_views t segs n =
  St_trace.Trace.with_span p_feed @@ fun () ->
  match t.state with
  | Awaiting_open -> protocol_error "FEED before OPEN"
  | Opened_ os -> (
      match os.outcome with
      | Some _ -> []  (* stream already failed; drop by contract *)
      | None ->
          (* one feed per segment; the segment that fails the stream is
             the last one consumed *)
          let j = ref 0 in
          while !j < n && not (Stream_tokenizer.failed os.tok) do
            let s, pos, len = segs.(!j) in
            Stream_tokenizer.feed os.tok s pos len;
            incr j
          done;
          check_failed os)

let handle_flush t =
  match t.state with
  | Awaiting_open -> protocol_error "FLUSH before OPEN"
  | Opened_ os ->
      let outcome =
        match os.outcome with
        | Some o -> o
        | None -> Stream_tokenizer.finish os.tok
      in
      let pending_reply =
        match outcome with
        | Engine.Finished ->
            Wire.Pending
              { ok = true; offset = Stream_tokenizer.bytes_fed os.tok; pending = "" }
        | Engine.Failed { offset; pending } ->
            Wire.Pending { ok = false; offset; pending }
      in
      (* Reset for the next stream on the same engine. *)
      Stream_tokenizer.reset os.tok;
      os.outcome <- None;
      [ pending_reply ]

let p_open = St_trace.Trace.probe ~cat:"session" "session.open"
let p_flush = St_trace.Trace.probe ~cat:"session" "session.flush"

let handle t = function
  | Wire.Open spec ->
      St_trace.Trace.with_span p_open (fun () ->
          handle_open t ~ids:false (fun () -> grammar_of_spec t spec))
  | Wire.Open_bpe { ids; vocab } ->
      St_trace.Trace.with_span p_open (fun () ->
          handle_open t ~ids (fun () -> grammar_of_vocab vocab))
  | Wire.Feed bytes -> feed_views t [| (bytes, 0, String.length bytes) |] 1
  | Wire.Flush -> St_trace.Trace.with_span p_flush (fun () -> handle_flush t)
  | Wire.Close | Wire.Stats _ -> []  (* handled by Server *)
