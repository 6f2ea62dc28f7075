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
  let record ~equal name got =
    if not (equal reference got) then
      mismatches := { subject = name; expected = reference; got } :: !mismatches
  in
  let expect ?(equal = behaviour_equal) name got =
    incr subjects;
    on_subject name;
    record ~equal name got
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
      incr subjects;
      on_subject "greedy-invariant";
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
      if not ok then
        mismatches :=
          { subject = "greedy-invariant"; expected = reference; got = of_bt (toks, o) }
          :: !mismatches);
  let streaming =
    match Engine.compile d with
    | Error Engine.Unbounded_tnd -> false
    | Ok e ->
        let batch = of_engine (Engine.tokens e input) in
        let batch = if spec.inject_bug then inject batch else batch in
        expect "engine" batch;
        (* the dense 256-column reference build: the classed hot path the
           "engine" subject just ran must be byte-identical to it — the
           alphabet-compression cross-engine arm *)
        (match Engine.compile (Dfa.of_rules ~classes:false spec.rules) with
        | Error Engine.Unbounded_tnd ->
            incr subjects;
            on_subject "engine-dense";
            mismatches :=
              {
                subject = "engine-dense";
                expected = reference;
                got = { tokens = []; failure = Some (0, "dense compile failed") };
              }
              :: !mismatches
        | Ok ed -> expect "engine-dense" (of_engine (Engine.tokens ed input)));
        (* the reference build without self-loop acceleration: the skip
           loops the "engine" subject ran must be behaviour-preserving *)
        (match Engine.compile (Dfa.of_rules ~accel:Accel.Off spec.rules) with
        | Error Engine.Unbounded_tnd ->
            incr subjects;
            on_subject "engine-noaccel";
            mismatches :=
              {
                subject = "engine-noaccel";
                expected = reference;
                got =
                  { tokens = []; failure = Some (0, "noaccel compile failed") };
              }
              :: !mismatches
        | Ok ena ->
            expect "engine-noaccel" (of_engine (Engine.tokens ena input));
            List.iter
              (fun (name, ch) ->
                expect ~equal:behaviour_equal_streaming
                  ("stream-noaccel:" ^ name)
                  (of_engine (Chunking.apply ena input ch)))
              spec.chunkings);
        (* the reference build with acceleration but without the SWAR
           tier: the word-at-a-time scanners the "engine" subject ran
           must agree with the pure bitmap skip loops *)
        (match Engine.compile (Dfa.of_rules ~accel:Accel.Bitmap spec.rules) with
        | Error Engine.Unbounded_tnd ->
            incr subjects;
            on_subject "engine-swar-off";
            mismatches :=
              {
                subject = "engine-swar-off";
                expected = reference;
                got =
                  { tokens = []; failure = Some (0, "swar-off compile failed") };
              }
              :: !mismatches
        | Ok eso ->
            expect "engine-swar-off" (of_engine (Engine.tokens eso input));
            List.iter
              (fun (name, ch) ->
                expect ~equal:behaviour_equal_streaming
                  ("stream-swar-off:" ^ name)
                  (of_engine (Chunking.apply eso input ch)))
              spec.chunkings);
        List.iter
          (fun (name, ch) ->
            expect ~equal:behaviour_equal_streaming ("stream:" ^ name)
              (of_engine (Chunking.apply e input ch)))
          spec.chunkings;
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
        (* serve-wire: the full serving data plane — zero-copy decode,
           FEED coalescing, batched flushes — driven over the loopback
           transport and held to the same streaming-equivalence contract,
           plus robustness subjects (poison length, mid-frame truncation)
           that must hurt only their own connection. *)
        (let module W = St_serve.Wire in
        let module SV = St_serve.Server in
        let module LB = St_serve.Loopback in
        (* each rule parenthesized so the source parser's line trimming
           cannot eat a literal leading/trailing space in a printed rule *)
        let spec_src =
          String.concat "\n"
            (List.map (fun r -> "(" ^ Regex.to_string r ^ ")") spec.rules)
          ^ "\n"
        in
        let lb_config =
          { SV.default_config with idle_timeout = 0.; clock = (fun () -> 0.) }
        in
        let fail_subject name msg =
          incr subjects;
          on_subject name;
          mismatches :=
            {
              subject = name;
              expected = reference;
              got = { tokens = []; failure = Some (0, msg) };
            }
            :: !mismatches
        in
        let pass_subject name =
          incr subjects;
          on_subject name
        in
        try
          let lb = LB.create ~config:lb_config () in
          let conn = LB.connect lb in
          LB.send conn (W.Open spec_src);
          LB.run lb;
          (match LB.replies conn with
          | [ W.Opened _ ] ->
              (* one session, FLUSH-reset between chunkings: N FEED
                 frames queued up front land in one on_data and are
                 coalesced; the token stream must still match. *)
              List.iter
                (fun (name, ch) ->
                  let pos = ref 0 in
                  List.iter
                    (fun n ->
                      if n > 0 then
                        LB.send_feed_sub conn input ~pos:!pos ~len:n;
                      pos := !pos + n)
                    ch;
                  LB.send conn W.Flush;
                  LB.run lb;
                  let replies = LB.replies conn in
                  let tokens =
                    List.concat_map
                      (function W.Tokens ts -> ts | _ -> [])
                      replies
                  in
                  let failure =
                    List.find_map
                      (function
                        | W.Pending { ok = false; offset; pending } ->
                            Some (offset, pending)
                        | _ -> None)
                      replies
                  in
                  expect ~equal:behaviour_equal_streaming
                    ("serve-wire:" ^ name)
                    { tokens; failure })
                spec.chunkings
          | _ -> fail_subject "serve-wire:open" "OPEN rejected");
          (* a poison length prefix closes only its own connection, with
             a protocol error *)
          let victim = LB.connect lb in
          LB.send_raw victim "\xff\xff\xff\xff\x01";
          LB.run lb;
          let poison_ok =
            LB.closed victim
            && List.exists
                 (function
                   | W.Error { code = W.Protocol; _ } -> true | _ -> false)
                 (LB.replies victim)
          in
          if poison_ok then pass_subject "serve-wire:poison"
          else fail_subject "serve-wire:poison" "no protocol error";
          (* a client dying mid-frame must not poison the server *)
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
          let healthy =
            match LB.replies probe with [ W.Opened _ ] -> true | _ -> false
          in
          if healthy then pass_subject "serve-wire:truncated"
          else fail_subject "serve-wire:truncated" "server unhealthy"
        with exn -> fail_subject "serve-wire" (Printexc.to_string exn));
        (* BPE arm: when [spec.rules] came from a vocabulary, the reference
           merge-loop encoder is a second executable specification. The
           maximal-munch reference must replay it id-for-id (that is the
           munch-consistency the compiler's audit guarantees), and the
           serving data plane in token-id mode (OPEN_BPE + IDS frames) must
           do the same under every adversarial chunking. *)
        (match spec.bpe with
        | None -> ()
        | Some v ->
            let enc_ids = St_bpe.Encoder.encode v input in
            let of_ids ids =
              {
                tokens = List.map (fun id -> (St_bpe.Vocab.token v id, id)) ids;
                failure = None;
              }
            in
            let merge_loop = of_ids enc_ids in
            expect "bpe:ref" merge_loop;
            (let module W = St_serve.Wire in
            let module SV = St_serve.Server in
            let module LB = St_serve.Loopback in
            let lb_config =
              {
                SV.default_config with
                idle_timeout = 0.;
                clock = (fun () -> 0.);
              }
            in
            let fail_subject name msg =
              incr subjects;
              on_subject name;
              mismatches :=
                {
                  subject = name;
                  expected = merge_loop;
                  got = { tokens = []; failure = Some (0, msg) };
                }
                :: !mismatches
            in
            try
              let lb = LB.create ~config:lb_config () in
              let conn = LB.connect lb in
              LB.send conn
                (W.Open_bpe { ids = true; vocab = St_bpe.Vocab.to_tiktoken v });
              LB.run lb;
              match LB.replies conn with
              | [ W.Opened _ ] ->
                  List.iter
                    (fun (name, ch) ->
                      let pos = ref 0 in
                      List.iter
                        (fun n ->
                          if n > 0 then
                            LB.send_feed_sub conn input ~pos:!pos ~len:n;
                          pos := !pos + n)
                        ch;
                      LB.send conn W.Flush;
                      LB.run lb;
                      let ids =
                        List.concat_map
                          (function W.Ids ids -> ids | _ -> [])
                          (LB.replies conn)
                      in
                      expect ("bpe:serve-ids:" ^ name) (of_ids ids))
                    spec.chunkings
              | _ -> fail_subject "bpe:serve-ids:open" "OPEN_BPE rejected"
            with exn -> fail_subject "bpe:serve-ids" (Printexc.to_string exn)));
        true
  in
  { mismatches = List.rev !mismatches; streaming; subjects = !subjects }
