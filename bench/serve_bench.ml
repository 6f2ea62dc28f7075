(* Serving-layer throughput: the same document pushed through (a) a bare
   Stream_tokenizer and (b) the full serve stack over the loopback
   transport — FEED frame encode, server event loop, session dispatch,
   TOKENS frame encode, client-side decode. The gap between the two is
   the whole per-byte cost of daemon mode; the engine work is identical,
   so the ratio is a stable regression signal (recorded via
   STREAMTOK_BENCH_STATS into BENCH_serve.json). *)

open Streamtok
module W = Serve.Wire
module LB = Serve.Loopback

let chunk = 65536

(* Ratcheted from 550% after the data-plane rewrite (zero-copy decoder
   views, FEED coalescing, batched TOKENS flushes): the measured overhead
   dropped well under this gate, which leaves slack so only a real
   regression in the wire/session/flush path — not scheduler noise — can
   trip it. Measured 55-64% across runs after the sharding PR (gathered
   feed_batch, deferred writev batches) — still not stably under 50%, so
   the planned 150 -> 100 ratchet stays parked until it is
   (ROADMAP stretch: <50%). *)
let overhead_gate_pct = 150.0

let direct engine input =
  let count = ref 0 in
  let tok = Stream_tokenizer.create engine ~emit:(fun _ _ -> incr count) in
  let t0 = Unix.gettimeofday () in
  let pos = ref 0 in
  let n = String.length input in
  while !pos < n do
    let len = min chunk (n - !pos) in
    Stream_tokenizer.feed tok input !pos len;
    pos := !pos + len
  done;
  (match Stream_tokenizer.finish tok with
  | Engine.Finished -> ()
  | Engine.Failed _ -> failwith "serve bench: workload must tokenize");
  (Unix.gettimeofday () -. t0, !count)

(* Queue a few FEED frames per scheduling round (as a socket transport
   delivers them: several frames per read) so the server's coalescing
   path is what gets measured, and drain replies as zero-copy views. *)
let feeds_per_round = 4

let loopback input =
  let lb = LB.create () in
  let c = LB.connect lb in
  let count = ref 0 in
  let on_view v =
    if v.W.Decoder.vtag = W.tag_tokens then
      match W.iter_tokens_view v (fun ~rule:_ ~buf:_ ~pos:_ ~len:_ -> ()) with
      | Ok n -> count := !count + n
      | Error msg -> failwith ("serve bench: " ^ msg)
    else if v.W.Decoder.vtag = W.tag_error then
      failwith "serve bench: server error reply"
  in
  let t0 = Unix.gettimeofday () in
  LB.send c (W.Open "json");
  let pos = ref 0 in
  let n = String.length input in
  while !pos < n do
    let stop = min n (!pos + (feeds_per_round * chunk)) in
    while !pos < stop do
      let len = min chunk (stop - !pos) in
      LB.send_feed_sub c input ~pos:!pos ~len;
      pos := !pos + len
    done;
    LB.run lb;
    LB.drain_views c on_view
  done;
  LB.send c W.Flush;
  LB.send c W.Close;
  LB.run lb;
  LB.drain_views c on_view;
  (Unix.gettimeofday () -. t0, !count)

let best_of rounds f x =
  let best_dt = ref infinity and result = ref 0 in
  for _ = 1 to rounds do
    let dt, r = f x in
    if dt < !best_dt then begin
      best_dt := dt;
      result := r
    end
  done;
  (!best_dt, !result)

(* ---------------------------------------------------------------- *)
(* Sharded scaling: M concurrent clients against (a) the daemon      *)
(* ([Shard.serve ~domains:1]) over a real listening socket and (b)   *)
(* the Shard pool at N=1,2,4 over socketpairs. Parity is checked per *)
(* connection with a rolling hash over every (rule, lexeme) pair,    *)
(* against a direct Stream_tokenizer run — the sharded path must be  *)
(* token-exact, not just count-exact.                                *)
(* ---------------------------------------------------------------- *)

let fnv_basis = 0x1545_28DC_4F88_ECD1 (* FNV-1a offset, truncated to 62b *)
let fnv_prime = 0x100000001b3
let hash_byte h b = (h lxor b) * fnv_prime

let hash_rule h rule =
  hash_byte (hash_byte h (rule land 0xff)) ((rule lsr 8) land 0xff)

(* Direct engine run producing the parity reference: (tokens, hash). *)
let reference engine input =
  let count = ref 0 and h = ref fnv_basis in
  let tok =
    Stream_tokenizer.create engine ~emit:(fun lexeme rule ->
        incr count;
        let acc = ref (hash_rule !h rule) in
        String.iter (fun c -> acc := hash_byte !acc (Char.code c)) lexeme;
        h := hash_byte !acc 0x17)
  in
  let pos = ref 0 in
  let n = String.length input in
  while !pos < n do
    let len = min chunk (n - !pos) in
    Stream_tokenizer.feed tok input !pos len;
    pos := !pos + len
  done;
  (match Stream_tokenizer.finish tok with
  | Engine.Finished -> ()
  | Engine.Failed _ -> failwith "serve bench: workload must tokenize");
  (!count, !h)

let rec select_eintr r w e timeout =
  try Unix.select r w e timeout
  with Unix.Unix_error (Unix.EINTR, _, _) -> select_eintr r w e timeout

(* One multiplexed client connection: pending request bytes, reply
   decoder, and the running parity accumulator. *)
type cconn = {
  fd : Unix.file_descr;
  pend : Serve.Outbuf.t;
  dec : W.Decoder.t;
  mutable inpos : int;
  mutable tail_sent : bool;
  mutable tokens : int;
  mutable hash : int;
  mutable closed : bool;
}

let mk_conn fd =
  Unix.set_nonblock fd;
  let pend = Serve.Outbuf.create ~capacity:(2 * chunk) () in
  let scratch = Buffer.create 64 in
  W.encode_request scratch (W.Open "json");
  Serve.Outbuf.add_buffer pend scratch;
  {
    fd;
    pend;
    dec = W.Decoder.create ();
    inpos = 0;
    tail_sent = false;
    tokens = 0;
    hash = fnv_basis;
    closed = false;
  }

(* Drive every connection to completion from one select loop: stream
   the whole document as FEEDs, then FLUSH+CLOSE, hashing each TOKENS
   reply in place; a connection is done when the server closes it. *)
let drive conns input =
  let n = String.length input in
  let budget = 2 * chunk in
  let scratch = Buffer.create 64 in
  let refill c =
    while (not c.tail_sent) && Serve.Outbuf.length c.pend < budget do
      if c.inpos >= n then begin
        Buffer.clear scratch;
        W.encode_request scratch W.Flush;
        W.encode_request scratch W.Close;
        Serve.Outbuf.add_buffer c.pend scratch;
        c.tail_sent <- true
      end
      else begin
        let len = min chunk (n - c.inpos) in
        Serve.Outbuf.add_frame_substring c.pend ~tag:W.tag_feed input c.inpos
          len;
        c.inpos <- c.inpos + len
      end
    done
  in
  let rbuf = Bytes.create chunk in
  let on_token c ~rule ~buf ~pos ~len =
    c.tokens <- c.tokens + 1;
    let h = ref (hash_rule c.hash rule) in
    for i = pos to pos + len - 1 do
      h := hash_byte !h (Char.code (Bytes.unsafe_get buf i))
    done;
    c.hash <- hash_byte !h 0x17
  in
  let drain c =
    let continue = ref true in
    while !continue do
      match W.Decoder.next_view c.dec with
      | W.Decoder.View_need_more -> continue := false
      | W.Decoder.View_corrupt msg ->
          failwith ("serve bench: corrupt reply stream: " ^ msg)
      | W.Decoder.View v ->
          if v.W.Decoder.vtag = W.tag_tokens then begin
            match W.iter_tokens_view v (on_token c) with
            | Ok _ -> ()
            | Error msg -> failwith ("serve bench: " ^ msg)
          end
          else if v.W.Decoder.vtag = W.tag_error then
            failwith "serve bench: server error reply"
    done
  in
  let finished = ref false in
  while not !finished do
    let cs = List.filter (fun c -> not c.closed) conns in
    if cs = [] then finished := true
    else begin
      List.iter refill cs;
      let rds = List.map (fun c -> c.fd) cs in
      let wrs =
        List.filter_map
          (fun c -> if Serve.Outbuf.length c.pend > 0 then Some c.fd else None)
          cs
      in
      let readable, writable, _ = select_eintr rds wrs [] 1.0 in
      List.iter
        (fun c ->
          (if (not c.closed) && List.memq c.fd readable then
             match Unix.read c.fd rbuf 0 chunk with
             | 0 ->
                 drain c;
                 c.closed <- true
             | len ->
                 W.Decoder.feed_bytes c.dec rbuf ~pos:0 ~len;
                 drain c
             | exception
                 Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                 ());
          if
            (not c.closed)
            && List.memq c.fd writable
            && Serve.Outbuf.length c.pend > 0
          then begin
            let buf, pos, len = Serve.Outbuf.view c.pend in
            match Unix.write c.fd buf pos len with
            | w -> Serve.Outbuf.consume c.pend w
            | exception
                Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                ()
          end)
        cs
    end
  done

let close_conns conns =
  List.iter
    (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
    conns

let results_of conns = List.map (fun c -> (c.tokens, c.hash)) conns

(* The daemon as the CLI runs it by default: [Shard.serve ~domains:1]
   (worker 0 with the listener, no worker domain) in a spawned domain,
   clients over a real AF_UNIX socket. *)
let bench_socket ~clients input =
  let sock = Filename.temp_file "streamtok_bench" ".sock" in
  Sys.remove sock;
  let stopf = Atomic.make false in
  let ready = Atomic.make false in
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
  let conns =
    List.init clients (fun _ ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX sock);
        mk_conn fd)
  in
  let t0 = Unix.gettimeofday () in
  drive conns input;
  let dt = Unix.gettimeofday () -. t0 in
  close_conns conns;
  Atomic.set stopf true;
  Domain.join d;
  (try Sys.remove sock with Sys_error _ -> ());
  (dt, results_of conns)

(* The sharded pool: no listener needed — each client side of a
   socketpair is driven here, the server side handed to a worker via
   the same [inject] path the acceptor uses. *)
let bench_pool ~domains ~clients input =
  let pool = Serve.Shard.create_pool ~domains () in
  let conns =
    List.init clients (fun _ ->
        let cl, sv = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Serve.Shard.inject pool sv;
        mk_conn cl)
  in
  let t0 = Unix.gettimeofday () in
  drive conns input;
  let dt = Unix.gettimeofday () -. t0 in
  close_conns conns;
  Serve.Shard.stop pool;
  Serve.Shard.join pool;
  (dt, results_of conns)

let best_of_runs rounds f =
  let best_dt = ref infinity and res = ref [] in
  for _ = 1 to rounds do
    let dt, r = f () in
    if dt < !best_dt then begin
      best_dt := dt;
      res := r
    end
  done;
  (!best_dt, !res)

(* ---------------------------------------------------------------- *)
(* The pool's one shared engine cache under a compile storm:         *)
(* [domains] domains each resolving the same 4 flag-variants of the  *)
(* json grammar (distinct cache keys) concurrently must cost exactly *)
(* 4 compiles pool-wide.                                             *)
(* ---------------------------------------------------------------- *)

let cache_storm ~domains:n =
  let rules = Grammar.rules Formats.json in
  let variants = [ (true, true); (true, false); (false, true); (false, false) ] in
  let cache = Engine_cache.create ~max_entries:16 () in
  let started = Atomic.make 0 in
  let t0 = Unix.gettimeofday () in
  let doms =
    List.init n (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr started;
            while Atomic.get started < n do
              Domain.cpu_relax ()
            done;
            List.iter
              (fun (classes, accel) ->
                match
                  Engine_cache.find_or_compile cache ~classes ~accel rules
                with
                | Ok _ -> ()
                | Error _ -> failwith "serve bench: storm compile failed")
              variants))
  in
  List.iter Domain.join doms;
  (Unix.gettimeofday () -. t0, Engine_cache.compiles cache)

let run ?(size_mb = 8) () =
  Bench_common.pp_header
    (Printf.sprintf
       "Serve: loopback daemon stack vs direct Stream_tokenizer (json, %d MB)"
       size_mb);
  let input =
    Gen_data.json ~seed:Bench_common.seed_data
      ~target_bytes:(size_mb * 1024 * 1024) ()
  in
  let engine =
    match Engine.compile (Grammar.dfa Formats.json) with
    | Ok e -> e
    | Error _ -> assert false
  in
  let mb = float_of_int (String.length input) /. (1024. *. 1024.) in
  let direct_dt, direct_tokens = best_of 3 (direct engine) input in
  let loop_dt, loop_tokens = best_of 3 loopback input in
  if direct_tokens <> loop_tokens then begin
    Printf.eprintf "serve bench: token counts differ (direct %d, loopback %d)\n"
      direct_tokens loop_tokens;
    exit 1
  end;
  let direct_mbps = mb /. direct_dt in
  let loop_mbps = mb /. loop_dt in
  let overhead = (direct_mbps /. loop_mbps -. 1.) *. 100. in
  Printf.printf "  direct   %8.1f MB/s  (%d tokens)\n" direct_mbps
    direct_tokens;
  Printf.printf "  loopback %8.1f MB/s  (wire + event loop + session)\n"
    loop_mbps;
  Printf.printf "  serving overhead: %.1f%%\n" overhead;
  let record name v =
    Bench_common.record_result ~experiment:"serve" ~name
      ~labels:[ ("grammar", "json") ]
      v
  in
  record "direct_mb_s" direct_mbps;
  record "loopback_mb_s" loop_mbps;
  record "overhead_pct" overhead;
  record "overhead_gate_pct" overhead_gate_pct;
  record "tokens" (float_of_int direct_tokens);
  if overhead > overhead_gate_pct then begin
    Printf.eprintf
      "serve bench: serving overhead %.1f%% exceeds the %.0f%% gate\n"
      overhead overhead_gate_pct;
    exit 1
  end;

  (* -------- sharded scaling curve (real sockets, M clients) -------- *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let clients = 4 in
  let cores = Domain.recommended_domain_count () in
  Bench_common.pp_header
    (Printf.sprintf
       "Serve: sharded scaling, %d clients x %d MB (this machine: %d core%s)"
       clients size_mb cores
       (if cores = 1 then "" else "s"));
  let ref_tokens, ref_hash = reference engine input in
  let check label results =
    if List.length results <> clients then begin
      Printf.eprintf "serve bench: %s finished %d/%d connections\n" label
        (List.length results) clients;
      exit 1
    end;
    List.iteri
      (fun i (tk, h) ->
        if tk <> ref_tokens || h <> ref_hash then begin
          Printf.eprintf
            "serve bench: %s conn %d parity mismatch (%d tokens, want %d)\n"
            label i tk ref_tokens;
          exit 1
        end)
      results
  in
  let agg dt = float_of_int clients *. mb /. dt in
  let socket_dt, socket_res =
    best_of_runs 2 (fun () -> bench_socket ~clients input)
  in
  check "socket" socket_res;
  let socket_mbps = agg socket_dt in
  Printf.printf "  socket   %8.1f MB/s  (daemon, --domains 1, real listener)\n"
    socket_mbps;
  let shard_mbps =
    List.map
      (fun n ->
        let dt, res =
          best_of_runs 2 (fun () -> bench_pool ~domains:n ~clients input)
        in
        check (Printf.sprintf "shard%d" n) res;
        let mbps = agg dt in
        Printf.printf "  shard %d  %8.1f MB/s\n" n mbps;
        (n, mbps))
      [ 1; 2; 4 ]
  in
  let mbps_at n = List.assoc n shard_mbps in
  let s1 = mbps_at 1 in
  let speedup n = mbps_at n /. s1 in
  List.iter
    (fun (n, mbps) ->
      record (Printf.sprintf "shard%d_mb_s" n) mbps;
      if n > 1 then record (Printf.sprintf "shard_speedup_%d" n) (speedup n))
    shard_mbps;
  record "socket_mb_s" socket_mbps;
  record "cores" (float_of_int cores);
  Printf.printf "  speedups: x%.2f @2 domains, x%.2f @4 domains\n" (speedup 2)
    (speedup 4);
  (* Gates. Parity is absolute (checked above); the scaling floors only
     bind when the machine has the cores — on fewer cores the domains
     timeshare one CPU and the honest expectation is parity, not speedup
     (recorded regardless). *)
  let floor_gate n floor =
    if cores >= n && speedup n < floor then begin
      Printf.eprintf
        "serve bench: %d-domain speedup x%.2f under the x%.1f floor (%d \
         cores available)\n"
        n (speedup n) floor cores;
      exit 1
    end
    else if cores < n then
      Printf.printf
        "  (x%.1f floor at N=%d not binding: only %d core%s — parity gate \
         applies)\n"
        floor n cores
        (if cores = 1 then "" else "s")
  in
  floor_gate 2 1.6;
  floor_gate 4 2.8;

  (* -------- the shared engine cache under a 4-domain compile storm -- *)
  Bench_common.pp_header
    "Serve: engine cache under a 4-domain compile storm (4 grammar variants)";
  let storm_dt, storm_compiles = cache_storm ~domains:4 in
  Printf.printf "  shared     %6.1f ms  %2d compiles\n" (storm_dt *. 1000.)
    storm_compiles;
  record "cache_storm_shared_ms" (storm_dt *. 1000.);
  record "cache_storm_shared_compiles" (float_of_int storm_compiles);
  if storm_compiles <> 4 then begin
    Printf.eprintf
      "serve bench: shared cache storm did %d compiles, want exactly 4\n"
      storm_compiles;
    exit 1
  end
