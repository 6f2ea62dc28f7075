(* Domain sharding: the engine cache under real multi-domain compile
   storms (exactly-one-compile, LRU integrity, cached failures), the
   worker-domain pool end-to-end — socketpair handoff, token parity on
   every connection, pool-wide stats merging, and drain liveness — one
   STATS shape for every daemon, and the daemon's accept-side fd bounds
   driven in-process through [Shard.serve]. *)

open Streamtok
module W = Serve.Wire

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Spawn [n] domains, hold them at a barrier so the racy section really
   races, run [f], join. *)
let run_domains n f =
  let started = Atomic.make 0 in
  let doms =
    List.init n (fun i ->
        Domain.spawn (fun () ->
            Atomic.incr started;
            while Atomic.get started < n do
              Domain.cpu_relax ()
            done;
            f i))
  in
  List.iter Domain.join doms

(* ---- engine cache storms ---- *)

let test_storm_one_compile () =
  (* 4 domains resolve the same keys at once: one key in a default cache,
     then 4 distinct keys (built-in grammars) in a 16-entry cache. Each
     key costs exactly one compile pool-wide, nothing is evicted, and
     every domain gets the same engine per key. *)
  let storm ?max_entries grammars =
    let keys = Array.of_list (List.map Grammar.rules grammars) in
    let k = Array.length keys in
    let cache = Engine_cache.create ?max_entries () in
    let iters = 8 in
    let engines = Array.init 4 (fun _ -> Array.make k []) in
    run_domains 4 (fun i ->
        for _ = 1 to iters do
          Array.iteri
            (fun j rules ->
              match Engine_cache.find_or_compile cache rules with
              | Ok e -> engines.(i).(j) <- e :: engines.(i).(j)
              | Error _ -> assert false)
            keys
        done);
    check_int
      (Printf.sprintf "exactly %d compile(s) under a 4-domain storm" k)
      k
      (Engine_cache.compiles cache);
    check_int "every other lookup hit" ((4 * iters * k) - k)
      (Engine_cache.hits cache);
    check_int "no evictions" 0 (Engine_cache.evictions cache);
    for j = 0 to k - 1 do
      let e0 = List.hd engines.(0).(j) in
      Array.iter
        (fun per_key ->
          List.iter
            (fun e -> check "all domains share one engine" true (e == e0))
            per_key.(j))
        engines
    done
  in
  storm [ Formats.json ];
  storm ~max_entries:16 [ Formats.json; Formats.csv; Formats.tsv; Formats.xml ]

let test_eviction_storm () =
  (* 4 distinct keys (built-in grammars) hammering a 2-entry cache from 4
     domains: evictions race with lookups, and the accounting identities
     prove no lookup was lost or double-counted (no torn LRU state). *)
  let cache = Engine_cache.create ~max_entries:2 () in
  let grammars =
    Array.map Grammar.rules [| Formats.json; Formats.csv; Formats.tsv; Formats.xml |]
  in
  let rounds = 8 in
  run_domains 4 (fun i ->
      for r = 0 to rounds - 1 do
        match Engine_cache.find_or_compile cache grammars.((i + r) mod 4) with
        | Ok _ -> ()
        | Error _ -> assert false
      done);
  check "resident entries bounded" true (Engine_cache.size cache <= 2);
  check_int "every lookup was a hit or a compile" (4 * rounds)
    (Engine_cache.compiles cache + Engine_cache.hits cache);
  check_int "evictions = compiles - resident"
    (Engine_cache.compiles cache - Engine_cache.size cache)
    (Engine_cache.evictions cache)

let test_cached_failure_storm () =
  (* A non-streamable grammar: the unbounded-TND analysis runs once,
     every domain gets the cached failure. *)
  let g =
    match Grammar.of_source ~name:"tnd-unbounded" "a\nb\n(a|b)*c" with
    | Ok g -> g
    | Error msg -> Alcotest.fail msg
  in
  let rules = Grammar.rules g in
  let cache = Engine_cache.create () in
  run_domains 4 (fun _ ->
      for _ = 1 to 4 do
        match Engine_cache.find_or_compile cache rules with
        | Error Engine.Unbounded_tnd -> ()
        | Ok _ -> assert false
      done);
  check_int "failure analyzed exactly once" 1 (Engine_cache.compiles cache)

(* ---- pool end-to-end over socketpairs ---- *)

let encode_reqs reqs =
  let b = Buffer.create 4096 in
  List.iter (fun r -> W.encode_request b r) reqs;
  Buffer.to_bytes b

let write_all fd b =
  let n = Bytes.length b in
  let pos = ref 0 in
  while !pos < n do
    match Unix.write fd b !pos (n - !pos) with
    | w -> pos := !pos + w
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let read_all fd =
  let buf = Bytes.create 4096 in
  let out = Buffer.create 4096 in
  let rec loop () =
    match Unix.read fd buf 0 4096 with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes out buf 0 n;
        loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    (* a worker closing with unread request bytes resets the socket —
       for the shutdown race that is as final as a clean EOF *)
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
  in
  loop ();
  Buffer.contents out

let tokens_of_stream = Test_serve.tokens_of_stream

let has_error_frame s =
  match W.decode_all s with
  | Error _ -> true
  | Ok frames -> List.exists (fun f -> f.W.tag = W.tag_error) frames

let pool_counter reg name =
  let metrics = Obs.Metrics.Registry.metrics reg in
  match List.find_opt (fun m -> m.Obs.Metrics.name = name) metrics with
  | Some { Obs.Metrics.kind = Obs.Metrics.Counter c; _ } ->
      Obs.Metrics.Counter.value c
  | _ -> Alcotest.fail (Printf.sprintf "no counter %s" name)

let test_pool_parity_and_stats () =
  let input = Gen_data.json ~seed:0x5EEDL ~target_bytes:2048 () in
  let engine =
    match Engine.compile (Grammar.dfa Formats.json) with
    | Ok e -> e
    | Error _ -> assert false
  in
  let expect = ref [] in
  let tok =
    Stream_tokenizer.create engine ~emit:(fun lex rule ->
        expect := (lex, rule) :: !expect)
  in
  Stream_tokenizer.feed_string tok input;
  (match Stream_tokenizer.finish tok with
  | Engine.Finished -> ()
  | Engine.Failed _ -> assert false);
  let expect = List.rev !expect in
  let pool = Serve.Shard.create_pool ~domains:2 () in
  let reqs = encode_reqs [ W.Open "json"; W.Feed input; W.Flush; W.Close ] in
  let clients =
    List.init 4 (fun _ ->
        let cl, sv = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Serve.Shard.inject pool sv;
        cl)
  in
  (* the workload is small enough that kernel socket buffers absorb the
     replies, so plain sequential write-then-read cannot deadlock *)
  List.iter (fun cl -> write_all cl reqs) clients;
  let streams = List.map read_all clients in
  List.iter Unix.close clients;
  Serve.Shard.stop pool;
  Serve.Shard.join pool;
  List.iter
    (fun s ->
      check "no error reply" false (has_error_frame s);
      let got = tokens_of_stream s in
      check_int "token count parity" (List.length expect) (List.length got);
      check "token parity with direct engine" true (got = expect))
    streams;
  match Serve.Shard.stats pool with
  | None -> Alcotest.fail "pool published no stats"
  | Some reg ->
      (* cross-domain aggregation: 4 sessions round-robined over 2
         workers sum back to 4; the shared cache compiled json once *)
      check_int "sessions aggregated across workers" 4
        (pool_counter reg "sessions_opened");
      check_int "one compile pool-wide (shared cache)" 1
        (pool_counter reg "engine_cache_compiles")

let test_stop_with_inflight_handoff () =
  (* stop racing a just-injected connection: whichever side wins, the
     client must see EOF (tokens or a Shutting_down error, never a
     wedge) and join must return. *)
  let pool = Serve.Shard.create_pool ~domains:2 () in
  let reqs = encode_reqs [ W.Open "json"; W.Feed "[1, 2]"; W.Flush; W.Close ] in
  let cl, sv = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  write_all cl reqs;
  Serve.Shard.inject pool sv;
  Serve.Shard.stop pool;
  let s = read_all cl in
  Unix.close cl;
  Serve.Shard.join pool;
  (* liveness is the assertion: read_all and join returned. The reply
     depends on who won the race — tokens, a Shutting_down error, or a
     reset before any reply. *)
  check "connection resolved without wedging" true
    (s = "" || tokens_of_stream s <> [] || has_error_frame s)

(* ---- one STATS document for every daemon shape ---- *)

(* Every name, kind and position of the STATS document. It includes every
   name the layered benchmark reads (bytes_in, feed_batches, writevs,
   decoder_copies, feed_latency_ns, engine_cache_compiles / hits /
   evictions) except batch_bytes_direct / batch_bytes_copied, which no
   longer exist and read as 0 there. *)
let pinned_stats =
  [
    ("sessions", "gauge");
    ("sessions_peak", "gauge");
    ("sessions_opened", "counter");
    ("sessions_closed", "counter");
    ("sessions_rejected", "counter");
    ("sessions_evicted_idle", "counter");
    ("bytes_in", "counter");
    ("bytes_out", "counter");
    ("tokens", "counter");
    ("feeds", "counter");
    ("feed_batches", "counter");
    ("flushes", "counter");
    ("writevs", "counter");
    ("decoder_copies", "counter");
    ("protocol_errors", "counter");
    ("lexical_errors", "counter");
    ("feed_latency_ns", "histogram");
    ("engine_cache_compiles", "counter");
    ("engine_cache_hits", "counter");
    ("engine_cache_evictions", "counter");
    ("engine_cache_entries", "gauge");
    ("uptime_seconds", "gauge");
  ]

let names_and_kinds body =
  let field k j =
    match Option.bind (Obs.Json.member k j) Obs.Json.to_string_opt with
    | Some v -> v
    | None -> Alcotest.fail ("STATS metric without " ^ k)
  in
  match Obs.Json.of_string body with
  | Error msg -> Alcotest.fail ("STATS body is not JSON: " ^ msg)
  | Ok doc -> (
      match
        Option.bind (Obs.Json.member "metrics" doc) Obs.Json.to_list_opt
      with
      | Some ms -> List.map (fun m -> (field "name" m, field "type" m)) ms
      | None -> Alcotest.fail "STATS body has no metrics list")

let stats_body_of_replies replies =
  match
    List.find_map
      (function W.Metrics { body; _ } -> Some body | _ -> None)
      replies
  with
  | Some body -> body
  | None -> Alcotest.fail "no METRICS reply"

let pool_stats_body ~domains =
  let pool = Serve.Shard.create_pool ~domains () in
  let cl, sv = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Serve.Shard.inject pool sv;
  write_all cl (encode_reqs [ W.Stats W.Json; W.Close ]);
  let s = read_all cl in
  Unix.close cl;
  Serve.Shard.stop pool;
  Serve.Shard.join pool;
  match W.decode_all s with
  | Error msg -> Alcotest.fail msg
  | Ok frames ->
      stats_body_of_replies
        (List.filter_map
           (fun f -> Result.to_option (W.reply_of_frame f))
           frames)

let test_stats_shape () =
  let lb = Serve.Loopback.create () in
  let c = Serve.Loopback.connect lb in
  Serve.Loopback.send c (W.Stats W.Json);
  Serve.Loopback.run lb;
  let docs =
    [
      ("loopback server", stats_body_of_replies (Serve.Loopback.replies c));
      ("domains:1 pool", pool_stats_body ~domains:1);
      ("domains:2 pool", pool_stats_body ~domains:2);
    ]
  in
  List.iter
    (fun (label, body) ->
      check (label ^ ": pinned names, kinds and order") true
        (names_and_kinds body = pinned_stats))
    docs

let pool_histogram reg name =
  match
    List.find_opt
      (fun m -> m.Obs.Metrics.name = name)
      (Obs.Metrics.Registry.metrics reg)
  with
  | Some { Obs.Metrics.kind = Obs.Metrics.Histogram h; _ } -> h
  | _ -> Alcotest.fail (Printf.sprintf "no histogram %s" name)

let test_pool_counters_sum () =
  (* Four clients of different sizes and FEED counts over two workers:
     every pool counter is the sum of what the clients sent and got. *)
  let inputs =
    List.init 4 (fun i ->
        let doc =
          Gen_data.json ~seed:(Int64.of_int (7 + i))
            ~target_bytes:(600 * (i + 1)) ()
        in
        (* i + 1 FEED frames per client *)
        let n = String.length doc and k = i + 1 in
        List.init k (fun j ->
            let lo = j * n / k and hi = (j + 1) * n / k in
            String.sub doc lo (hi - lo)))
  in
  let pool = Serve.Shard.create_pool ~domains:2 () in
  let clients =
    List.map
      (fun feeds ->
        let cl, sv = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Serve.Shard.inject pool sv;
        write_all cl
          (encode_reqs
             ((W.Open "json" :: List.map (fun f -> W.Feed f) feeds)
             @ [ W.Flush; W.Close ]));
        cl)
      inputs
  in
  let streams = List.map read_all clients in
  List.iter Unix.close clients;
  Serve.Shard.stop pool;
  Serve.Shard.join pool;
  let sum f =
    List.fold_left ( + ) 0 (List.map f (List.combine inputs streams))
  in
  let reg =
    match Serve.Shard.stats pool with
    | Some r -> r
    | None -> Alcotest.fail "pool published no stats"
  in
  let expect name v = check_int name v (pool_counter reg name) in
  expect "sessions_opened" 4;
  expect "sessions_closed" 4;
  expect "flushes" 4;
  expect "feeds" (sum (fun (feeds, _) -> List.length feeds));
  expect "bytes_in"
    (sum (fun (feeds, _) -> String.length (String.concat "" feeds)));
  expect "bytes_out" (sum (fun (_, s) -> String.length s));
  expect "tokens" (sum (fun (_, s) -> List.length (tokens_of_stream s)));
  expect "engine_cache_compiles" 1;
  check_int "one latency sample per feed batch"
    (pool_counter reg "feed_batches")
    (Obs.Metrics.Histogram.count (pool_histogram reg "feed_latency_ns"))

(* ---- the daemon's accept-side fd bounds ---- *)

(* A file descriptor is its int on Unix. *)
let fd_number (fd : Unix.file_descr) : int = Obj.magic fd
let fd_setsize = Serve.Io_loop.fd_setsize

(* Run [Shard.serve ~domains:1] in a domain of this process for [f]. *)
let with_daemon f =
  let sock = Filename.temp_file "streamtok_test" ".sock" in
  Sys.remove sock;
  let stopf = Atomic.make false and ready = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Serve.Shard.serve
          ~on_listening:(fun () -> Atomic.set ready true)
          ~should_stop:(fun () -> Atomic.get stopf)
          ~domains:1 ~socket:sock ())
  in
  while not (Atomic.get ready) do
    Unix.sleepf 0.001
  done;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stopf true;
      Domain.join d)
    (fun () -> f sock)

(* A blocking client whose reads give up (EAGAIN) instead of hanging if
   the daemon never answers. *)
let connect sock =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  fd

let test_fd_over_setsize () =
  let input = Gen_data.json ~seed:0x5EEDL ~target_bytes:2048 () in
  let expect =
    let cl = Serve.Loopback.create () in
    let c = Serve.Loopback.connect cl in
    List.iter (Serve.Loopback.send c) [ W.Open "json"; W.Feed input; W.Flush ];
    Serve.Loopback.run cl;
    Serve.Loopback.tokens c
  in
  with_daemon (fun sock ->
      (* occupy every fd below FD_SETSIZE, so the daemon's next accept
         returns one [select] cannot watch *)
      let devnull =
        Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0
      in
      let dups = ref [ devnull ] in
      let reply =
        Fun.protect
          ~finally:(fun () -> List.iter Unix.close !dups)
          (fun () ->
            while fd_number (List.hd !dups) < fd_setsize + 8 do
              dups := Unix.dup ~cloexec:true devnull :: !dups
            done;
            let cl = connect sock in
            check "client fd past FD_SETSIZE" true (fd_number cl >= fd_setsize);
            Fun.protect
              ~finally:(fun () -> Unix.close cl)
              (fun () -> read_all cl))
      in
      (match W.decode_all reply with
      | Ok [ f ] -> (
          match W.reply_of_frame f with
          | Ok (W.Error { code = W.Capacity; retryable = true; _ }) -> ()
          | _ -> Alcotest.fail "expected a retryable Capacity error")
      | _ -> Alcotest.fail "expected exactly one reply frame");
      (* the fds are back under the bound: an honest client is served *)
      let cl = connect sock in
      write_all cl
        (encode_reqs [ W.Open "json"; W.Feed input; W.Flush; W.Close ]);
      let s = read_all cl in
      Unix.close cl;
      check "no error reply" false (has_error_frame s);
      check "token parity after the refusal" true (tokens_of_stream s = expect))

(* A read errno other than a retry drops that one connection, as a write
   errno does: a directory fd is selected as readable and its read fails
   with EISDIR. The select round must return, and a live session on the
   same loop must keep tokenizing. *)
let test_bad_read_drops_conn () =
  let input = Gen_data.json ~seed:0x5EEDL ~target_bytes:2048 () in
  let expect =
    let lb = Serve.Loopback.create () in
    let c = Serve.Loopback.connect lb in
    List.iter (Serve.Loopback.send c) [ W.Open "json"; W.Feed input; W.Flush ];
    Serve.Loopback.run lb;
    Serve.Loopback.tokens c
  in
  let srv = Serve.Server.create () in
  let core = Serve.Io_loop.Core.create srv in
  let cl, sv = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let dir =
    Unix.openfile Filename.current_dir_name [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0
  in
  Serve.Io_loop.Core.register core sv;
  Serve.Io_loop.Core.register core dir;
  let iterate () =
    match Serve.Io_loop.Core.iterate core ~extra:[] ~max_timeout:0.05 with
    | _ -> ()
    | exception Unix.Unix_error (e, fn, _) ->
        Alcotest.fail
          (Printf.sprintf "select round raised %s in %s" (Unix.error_message e)
             fn)
  in
  iterate ();
  check_int "the unreadable connection is dropped" 1
    (Serve.Server.live_conns srv);
  write_all cl
    (encode_reqs [ W.Open "json"; W.Feed input; W.Flush; W.Close ]);
  let rounds = ref 0 in
  while Serve.Server.live_conns srv > 0 && !rounds < 200 do
    iterate ();
    incr rounds
  done;
  check_int "the live session drained and closed" 0
    (Serve.Server.live_conns srv);
  let s = read_all cl in
  Unix.close cl;
  check "no error reply" false (has_error_frame s);
  check "the live session still tokenizes" true (tokens_of_stream s = expect)

(* An unwritable [--stats=FILE] path is reported as [tokenize] reports
   it: an error line and exit code 1, never an uncaught [Sys_error]. *)
let test_client_stats_unwritable () =
  with_daemon (fun sock ->
      let err_file = Filename.temp_file "streamtok_test" ".err" in
      let outcome =
        Out_channel.with_open_bin Filename.null (fun out ->
            Out_channel.with_open_bin err_file (fun err ->
                Serve.Client.run ~socket:sock ~grammar:"json"
                  ~input:(`String "[1, 2]") ~out ~err ~stats:W.Json
                  ~stats_dest:"/nonexistent/streamtok/stats.json" ()))
      in
      let msg = In_channel.with_open_bin err_file In_channel.input_all in
      Sys.remove err_file;
      check_int "exit code" 1 outcome.Serve.Client.exit_code;
      check "tokens still served" true (outcome.Serve.Client.tokens > 0);
      check ("reported: " ^ msg) true
        (String.starts_with ~prefix:"error: cannot write stats: " msg))

let test_serve_rejects_fd_budget () =
  let sock = Filename.temp_file "streamtok_test" ".sock" in
  Sys.remove sock;
  let config = { Serve.Server.default_config with max_sessions = 512 } in
  check "max-sessions x domains >= FD_SETSIZE refused" true
    (match
       Serve.Shard.serve ~config ~should_stop:(fun () -> true) ~domains:2
         ~socket:sock ()
     with
    | () -> false
    | exception Invalid_argument _ -> true);
  check "refused before binding" false (Sys.file_exists sock)

(* One cold token-extension DFA warmed by four domains at once: each
   tokenizes its own 16 KiB corpus text through one shared mini-vocabulary
   engine, so lazy materialization (and every doubling of the tables from
   one row to 8 192) races with the other domains' lock-free reads. Each
   domain's ids must equal a single-domain run on a fresh engine and the
   reference merge loop. *)
let test_cold_te_four_domains () =
  let v =
    match Bpe.Vocab.load_file "vocab/mini.tiktoken" with
    | Ok v -> v
    | Error e -> Alcotest.failf "mini vocabulary: %s" e
  in
  let compile () =
    match Bpe.Compiler.dfa ~audit:false v with
    | Error e -> Alcotest.failf "dfa: %s" e
    | Ok d -> (
        match Engine.compile d with
        | Ok e -> e
        | Error Engine.Unbounded_tnd -> Alcotest.fail "unbounded")
  in
  let ids e text =
    let l = ref [] in
    match
      Engine.run_string e text ~emit:(fun ~pos:_ ~len:_ ~rule -> l := rule :: !l)
    with
    | Engine.Finished -> List.rev !l
    | Engine.Failed { offset; _ } -> Alcotest.failf "failed at %d" offset
  in
  let texts =
    Array.init 4 (fun i ->
        Bpe.Trainer.gen_corpus (Prng.create (Int64.of_int (0x7e5 + i))) 16384)
  in
  let shared = compile () in
  let got = Array.make 4 [] in
  run_domains 4 (fun i -> got.(i) <- ids shared texts.(i));
  check "the shared table outgrew 4 096 rows" true
    (Engine.te_states shared > 4096);
  Array.iteri
    (fun i text ->
      check (Printf.sprintf "domain %d ids = one domain, fresh engine" i) true
        (got.(i) = ids (compile ()) text);
      check (Printf.sprintf "domain %d ids = merge loop" i) true
        (got.(i) = Bpe.Encoder.encode v text))
    texts

let suite =
  [
    Alcotest.test_case "cache storm: exactly one compile" `Quick
      test_storm_one_compile;
    Alcotest.test_case "cache storm: eviction integrity" `Quick
      test_eviction_storm;
    Alcotest.test_case "cache storm: cached failure" `Quick
      test_cached_failure_storm;
    Alcotest.test_case "pool parity + aggregated stats" `Quick
      test_pool_parity_and_stats;
    Alcotest.test_case "stop with in-flight handoff" `Quick
      test_stop_with_inflight_handoff;
    Alcotest.test_case "STATS shape, every daemon" `Quick
      test_stats_shape;
    Alcotest.test_case "pool counters = worker sum" `Quick
      test_pool_counters_sum;
    Alcotest.test_case "fd over FD_SETSIZE refused" `Quick
      test_fd_over_setsize;
    Alcotest.test_case "bad read drops one connection" `Quick
      test_bad_read_drops_conn;
    Alcotest.test_case "fd budget checked at start" `Quick
      test_serve_rejects_fd_budget;
    Alcotest.test_case "client stats to an unwritable file" `Quick
      test_client_stats_unwritable;
    Alcotest.test_case "cold TE shared by four domains" `Quick
      test_cold_te_four_domains;
  ]
