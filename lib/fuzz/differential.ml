open St_regex
open St_automata
open St_baselines
open St_streamtok

type behaviour = {
  tokens : (string * int) list;
  failure : (int * string) option;
}

let tokens_equal a b =
  List.length a.tokens = List.length b.tokens
  && List.for_all2
       (fun (x, i) (y, j) -> i = j && String.equal x y)
       a.tokens b.tokens

let behaviour_equal a b = a.failure = b.failure && tokens_equal a b

(* Streaming subjects keep O(K) state, so on failure their [pending] holds
   only the bytes retained when the failure was detected — bytes fed after
   a failure are dropped by contract. The streaming-equivalence claim is:
   same tokens, same failure offset, and the retained bytes are a byte-exact
   prefix of the reference's untokenizable suffix. *)
let behaviour_equal_streaming reference b =
  tokens_equal reference b
  &&
  match (reference.failure, b.failure) with
  | None, None -> true
  | Some (o1, p1), Some (o2, p2) ->
      o1 = o2
      && String.length p2 <= String.length p1
      && String.equal p2 (String.sub p1 0 (String.length p2))
  | _ -> false

let of_bt (tokens, o) =
  {
    tokens;
    failure =
      (match o with
      | Backtracking.Finished -> None
      | Backtracking.Failed { offset; pending } -> Some (offset, pending));
  }

let of_engine (tokens, o) =
  {
    tokens;
    failure =
      (match o with
      | Engine.Finished -> None
      | Engine.Failed { offset; pending } -> Some (offset, pending));
  }

let show_behaviour b =
  let buf = Buffer.create 128 in
  let n = List.length b.tokens in
  List.iteri
    (fun i (lex, r) ->
      if i < 12 then Buffer.add_string buf (Printf.sprintf "%S/%d " lex r))
    b.tokens;
  if n > 12 then Buffer.add_string buf (Printf.sprintf "... (%d tokens) " n);
  (match b.failure with
  | None -> Buffer.add_string buf "finished"
  | Some (off, pending) ->
      Buffer.add_string buf
        (Printf.sprintf "failed at %d (%d pending bytes)" off
           (String.length pending)));
  Buffer.contents buf

type mismatch = {
  subject : string;
  expected : behaviour;
  got : behaviour;
}

let show_mismatch m =
  Printf.sprintf "%s:\n  expected: %s\n  got:      %s" m.subject
    (show_behaviour m.expected) (show_behaviour m.got)

type spec = {
  rules : Regex.t list;
  input : string;
  chunkings : (string * Chunking.t) list;
  domain_counts : int list;
  inject_bug : bool;
  bpe : St_bpe.Vocab.t option;
}

type result = {
  mismatches : mismatch list;
  streaming : bool;
  subjects : int;
}

(* The injected bug: the batch engine "forgets" its final token. Any input
   producing at least one token trips it, so the shrinker converges to a
   one-token repro — this is the end-to-end self-test of the pipeline. *)
let inject b =
  match List.rev b.tokens with
  | [] -> b
  | _ :: rest -> { b with tokens = List.rev rest }

let reference_token_ends rules input =
  let d = Dfa.of_rules rules in
  let toks, _ = Backtracking.tokens d input in
  let ends = ref [] in
  let pos = ref 0 in
  List.iter
    (fun (lex, _) ->
      pos := !pos + String.length lex;
      ends := !pos :: !ends)
    toks;
  List.rev !ends

let spec ?rng ?(domain_counts = [ 2; 3 ]) ?(inject_bug = false) ?bpe rules
    input =
  let token_ends = reference_token_ends rules input in
  let delay =
    (* the engine's lookahead window, if the grammar streams; 2 otherwise
       (any small chunk size > 1 still interferes with pending tokens) *)
    match Engine.compile_rules rules with
    | Ok e -> max 1 (Engine.k e)
    | Error Engine.Unbounded_tnd -> 2
  in
  {
    rules;
    input;
    chunkings =
      Chunking.standard ?rng ~token_ends ~delay (String.length input);
    domain_counts;
    inject_bug;
    bpe;
  }

let check ?(on_subject = fun _ -> ()) spec =
  let d = Dfa.of_rules spec.rules in
  let input = spec.input in
  let reference = of_bt (Backtracking.tokens d input) in
  let mismatches = ref [] in
  let subjects = ref 0 in
  let count name =
    incr subjects;
    on_subject name
  in
  let mismatch name got =
    mismatches := { subject = name; expected = reference; got } :: !mismatches
  in
  let expect ?(equal = behaviour_equal) name got =
    count name;
    if not (equal reference got) then mismatch name got
  in
  let fail_subject name msg =
    count name;
    mismatch name { tokens = []; failure = Some (0, msg) }
  in
  expect "ext-oracle" (of_bt (Ext_oracle.tokens d input));
  expect "reps" (of_bt (Reps.tokens d input));
  expect "flex-model" (of_bt (Flex_model.tokens (Flex_model.compile d) input));
  (match spec.rules with
  | [ _ ] ->
      expect "greedy" (of_bt (Greedy.tokens (Greedy.compile spec.rules) input))
  | _ ->
      (* multi-rule greedy legitimately diverges from maximal munch; check
         the invariant it does promise: emitted lexemes reconstruct exactly
         the consumed prefix *)
      count "greedy-invariant";
      let toks, o = Greedy.tokens (Greedy.compile spec.rules) input in
      let consumed = String.concat "" (List.map fst toks) in
      let ok =
        match o with
        | Backtracking.Finished -> String.equal consumed input
        | Backtracking.Failed { offset; pending } ->
            String.length consumed = offset
            && String.equal consumed (String.sub input 0 offset)
            && String.equal pending
                 (String.sub input offset (String.length input - offset))
      in
      if not ok then mismatch "greedy-invariant" (of_bt (toks, o)));
  let streams prefix e =
    List.iter
      (fun (name, ch) ->
        expect ~equal:behaviour_equal_streaming (prefix ^ ":" ^ name)
          (of_engine (Chunking.apply e input ch)))
      spec.chunkings
  in
  let streaming =
    match Engine.compile d with
    | Error Engine.Unbounded_tnd -> false
    | Ok e ->
        let batch = of_engine (Engine.tokens e input) in
        let batch = if spec.inject_bug then inject batch else batch in
        expect "engine" batch;
        (* reference builds of the same rules: the classed, accelerated,
           SWAR hot path the "engine" subject ran must be byte-identical
           to the dense 256-column tables (the alphabet-compression arm),
           to the build without self-loop acceleration, and to the pure
           bitmap skip loops without the SWAR tier — batch, and where a
           stream prefix is given, under every chunking *)
        List.iter
          (fun (name, stream_prefix, build) ->
            match Engine.compile (build spec.rules) with
            | Error Engine.Unbounded_tnd ->
                fail_subject name (name ^ ": compile failed")
            | Ok e' ->
                expect name (of_engine (Engine.tokens e' input));
                Option.iter (fun prefix -> streams prefix e') stream_prefix)
          [
            ("engine-dense", None, fun r -> Dfa.of_rules ~classes:false r);
            ( "engine-noaccel",
              Some "stream-noaccel",
              fun r -> Dfa.of_rules ~accel:Accel.Off r );
            ( "engine-swar-off",
              Some "stream-swar-off",
              fun r -> Dfa.of_rules ~accel:Accel.Bitmap r );
          ];
        streams "stream" e;
        List.iter
          (fun p ->
            let acc = ref [] in
            let o, _ =
              St_parallel.Par_tokenizer.tokenize ~num_domains:p
                ~min_input_bytes:1 e input ~emit:(fun ~pos ~len ~rule ->
                  acc := (String.sub input pos len, rule) :: !acc)
            in
            expect
              (Printf.sprintf "parallel:p%d" p)
              (of_engine (List.rev !acc, o)))
          spec.domain_counts;
        (* The full serving data plane — zero-copy decode, FEED
           coalescing, batched flushes, the daemon's out-queue drain —
           over one loopback server. [serve prefix request collect] opens
           a session with [request] and feeds it every chunking,
           FLUSH-reset in between, then the whole input once more with
           7-byte transfers each way ([prefix:short-writes]), so reads
           straddle frames and every drain is a short write that can stop
           inside a frame header or a token batch; [collect conn replies]
           reads each stream back the way the client does. *)
        let module W = St_serve.Wire in
        let module SV = St_serve.Server in
        let module LB = St_serve.Loopback in
        let lb =
          LB.create
            ~config:
              { SV.default_config with idle_timeout = 0.; clock = (fun () -> 0.) }
            ()
        in
        let serve ?equal prefix request collect =
          try
            let conn = LB.connect lb in
            LB.send conn request;
            LB.run lb;
            match LB.replies conn with
            | [ W.Opened _ ] ->
                (* N FEED frames queued up front land in one on_data and
                   are coalesced; the token stream must still match *)
                List.iter
                  (fun (name, ch, chunk) ->
                    let pos = ref 0 in
                    List.iter
                      (fun n ->
                        if n > 0 then
                          LB.send_feed_sub conn input ~pos:!pos ~len:n;
                        pos := !pos + n)
                      ch;
                    LB.send conn W.Flush;
                    LB.run ?chunk lb;
                    expect ?equal (prefix ^ ":" ^ name)
                      (collect conn (LB.replies conn)))
                  (List.map (fun (name, ch) -> (name, ch, None)) spec.chunkings
                  @ [ ("short-writes", [ String.length input ], Some 7) ])
            | _ -> fail_subject (prefix ^ ":open") "OPEN rejected"
          with exn -> fail_subject prefix (Printexc.to_string exn)
        in
        (* each rule parenthesized so the source parser's line trimming
           cannot eat a literal leading/trailing space in a printed rule *)
        let spec_src =
          String.concat "\n"
            (List.map (fun r -> "(" ^ Regex.to_string r ^ ")") spec.rules)
          ^ "\n"
        in
        serve ~equal:behaviour_equal_streaming "serve-wire" (W.Open spec_src)
          (fun conn replies ->
            {
              tokens = LB.tokens conn;
              failure =
                List.find_map
                  (function
                    | W.Pending { ok = false; offset; pending } ->
                        Some (offset, pending)
                    | _ -> None)
                  replies;
            });
        (* robustness: a poison length prefix and a client dying
           mid-frame must hurt only their own connection *)
        (try
           let victim = LB.connect lb in
           LB.send_raw victim "\xff\xff\xff\xff\x01";
           LB.run lb;
           if
             LB.closed victim
             && List.exists
                  (function
                    | W.Error { code = W.Protocol; _ } -> true | _ -> false)
                  (LB.replies victim)
           then count "serve-wire:poison"
           else fail_subject "serve-wire:poison" "no protocol error";
           let trunc = LB.connect lb in
           let b = Buffer.create 64 in
           W.encode_request b (W.Open spec_src);
           let enc = Buffer.contents b in
           LB.send_raw trunc (String.sub enc 0 (max 1 (String.length enc / 2)));
           LB.run lb;
           LB.hangup trunc;
           LB.run lb;
           let probe = LB.connect lb in
           LB.send probe (W.Open spec_src);
           LB.run lb;
           match LB.replies probe with
           | [ W.Opened _ ] -> count "serve-wire:truncated"
           | _ -> fail_subject "serve-wire:truncated" "server unhealthy"
         with exn -> fail_subject "serve-wire" (Printexc.to_string exn));
        (* BPE arm: when [spec.rules] came from a vocabulary, the reference
           merge-loop encoder is a second executable specification. The
           maximal-munch reference must replay it id-for-id (that is the
           munch-consistency the compiler's audit guarantees), and the
           serving data plane in token-id mode (OPEN_BPE + IDS frames) must
           do the same under every adversarial chunking. *)
        Option.iter
          (fun v ->
            let of_ids ids =
              {
                tokens = List.map (fun id -> (St_bpe.Vocab.token v id, id)) ids;
                failure = None;
              }
            in
            expect "bpe:ref" (of_ids (St_bpe.Encoder.encode v input));
            serve "bpe:serve-ids"
              (W.Open_bpe { ids = true; vocab = St_bpe.Vocab.to_tiktoken v })
              (fun conn _ -> of_ids (LB.ids conn)))
          spec.bpe;
        true
  in
  { mismatches = List.rev !mismatches; streaming; subjects = !subjects }
