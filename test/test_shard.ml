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
let json_rules = Grammar.rules Formats.json

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
  let cache = Engine_cache.create () in
  let iters = 8 in
  let engines = Array.make 4 [] in
  run_domains 4 (fun i ->
      for _ = 1 to iters do
        match Engine_cache.find_or_compile cache json_rules with
        | Ok e -> engines.(i) <- e :: engines.(i)
        | Error _ -> assert false
      done);
  check_int "exactly one compile under a 4-domain storm" 1
    (Engine_cache.compiles cache);
  check_int "every other lookup hit" ((4 * iters) - 1)
    (Engine_cache.hits cache);
  let e0 = List.hd engines.(0) in
  Array.iter
    (List.iter (fun e -> check "all domains share one engine" true (e == e0)))
    engines

let test_eviction_storm () =
  (* 4 distinct keys (flag variants) hammering a 2-entry cache from 4
     domains: evictions race with lookups, and the accounting identities
     prove no lookup was lost or double-counted (no torn LRU state). *)
  let cache = Engine_cache.create ~max_entries:2 () in
  let variants = [| (true, true); (true, false); (false, true); (false, false) |] in
  let rounds = 8 in
  run_domains 4 (fun i ->
      for r = 0 to rounds - 1 do
        let classes, accel = variants.((i + r) mod 4) in
        match Engine_cache.find_or_compile cache ~classes ~accel json_rules with
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

let tokens_of_stream s =
  match W.decode_all s with
  | Error msg -> Alcotest.fail ("corrupt reply stream: " ^ msg)
  | Ok frames ->
      List.concat_map
        (fun f ->
          if f.W.tag = W.tag_tokens then
            match W.reply_of_frame f with
            | Ok (W.Tokens toks) -> toks
            | _ -> Alcotest.fail "bad TOKENS frame"
          else [])
        frames

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
   batch_bytes_direct, batch_bytes_copied, decoder_copies,
   feed_latency_ns, engine_cache_compiles / hits / evictions). *)
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
    ("batch_bytes_direct", "counter");
    ("batch_bytes_copied", "counter");
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
    List.concat_map
      (function W.Tokens toks -> toks | _ -> [])
      (Serve.Loopback.replies c)
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
    Alcotest.test_case "fd budget checked at start" `Quick
      test_serve_rejects_fd_budget;
  ]
