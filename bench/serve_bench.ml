(* The sharded pool's scaling sweep: M concurrent clients against the
   [Shard] worker pool at N=1,2,4 domains over socketpairs. Parity is
   checked per connection with a rolling hash over every (rule, lexeme)
   pair, against the batch engine's run — the sharded path must be
   token-exact, not just count-exact. The ×1.6 @2 / ×2.8 @4 speedup floors
   bind only when the machine has that many cores. Single-domain serving
   throughput, loopback and real-socket, is measured by perfbench. *)

open Streamtok
module W = Serve.Wire

let chunk = 65536

let fnv_basis = 0x1545_28DC_4F88_ECD1 (* FNV-1a offset, truncated to 62b *)
let fnv_prime = 0x100000001b3
let hash_byte h b = (h lxor b) * fnv_prime

(* Fold one token — its rule and lexeme bytes — into a rolling hash. *)
let hash_token h ~rule buf pos len =
  let h = hash_byte (hash_byte h (rule land 0xff)) ((rule lsr 8) land 0xff) in
  let h = ref h in
  for i = pos to pos + len - 1 do
    h := hash_byte !h (Char.code (Bytes.unsafe_get buf i))
  done;
  hash_byte !h 0x17

(* The parity reference from the batch engine: (tokens, hash). *)
let reference engine input =
  let count = ref 0 and h = ref fnv_basis in
  let buf = Bytes.unsafe_of_string input in
  (match
     Engine.run_string engine input ~emit:(fun ~pos ~len ~rule ->
         incr count;
         h := hash_token !h ~rule buf pos len)
   with
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
    c.hash <- hash_token c.hash ~rule buf pos len
  in
  let drain c =
    match
      W.read_replies c.dec ~tokens:(on_token c)
        ~ids:(fun _ -> failwith "serve bench: unexpected IDS reply")
        ~reply:(function
          | W.Error { message; _ } ->
              failwith ("serve bench: server error reply: " ^ message)
          | _ -> ())
    with
    | Ok () -> ()
    | Error msg -> failwith ("serve bench: bad reply stream: " ^ msg)
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
  List.iter
    (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
    conns;
  Serve.Shard.stop pool;
  Serve.Shard.join pool;
  (dt, List.map (fun c -> (c.tokens, c.hash)) conns)

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

let size_mb = 8

let run () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let clients = 4 in
  let cores = Domain.recommended_domain_count () in
  Bench_common.pp_header
    (Printf.sprintf
       "Serve: sharded scaling, %d clients x %d MB json (this machine: %d \
        core%s)"
       clients size_mb cores
       (if cores = 1 then "" else "s"));
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
  Printf.printf "  speedups: x%.2f @2 domains, x%.2f @4 domains\n" (speedup 2)
    (speedup 4);
  (* Gates. Parity is absolute (checked above); the scaling floors only
     bind when the machine has the cores — on fewer cores the domains
     timeshare one CPU and the honest expectation is parity, not speedup
     (printed regardless). *)
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
  floor_gate 4 2.8

