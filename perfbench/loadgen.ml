(* The load generator: a single-threaded, closed-loop client of the real
   daemon. At most two connections are multiplexed through one
   [Unix.select] loop; frames are encoded and decoded with [Serve.Wire]
   exactly as a client does, and every reply stream is hashed in place
   and compared with its reference. *)

open Streamtok
open Common
module W = Serve.Wire
module Outbuf = Serve.Outbuf
module Trace = Streamtok.Trace

let p_write = Trace.probe ~cat:"client" "client.write"
let p_wait = Trace.probe ~cat:"client" "client.wait"
let p_decode = Trace.probe ~cat:"client" "client.decode"

(* Client-side accounting, for the [client.*] layer metrics. *)
type acct = {
  mutable wait_ns : int;  (** blocked in select *)
  mutable decode_ns : int;  (** inside reply decode + parity hashing *)
  mutable tokens : int;  (** token records decoded *)
}

let acct = { wait_ns = 0; decode_ns = 0; tokens = 0 }

let reset_acct () =
  acct.wait_ns <- 0;
  acct.decode_ns <- 0;
  acct.tokens <- 0

type conn = {
  fd : Unix.file_descr;
  pend : Outbuf.t;  (** request bytes not yet written *)
  dec : W.Decoder.t;
  mutable eof : bool;
  mutable on_frame : W.Decoder.view -> unit;
}

let connect socket =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  Unix.set_nonblock fd;
  {
    fd;
    pend = Outbuf.create ~capacity:(1 lsl 17) ();
    dec = W.Decoder.create ();
    eof = false;
    on_frame = (fun _ -> ());
  }

let close c =
  c.eof <- true;
  try Unix.close c.fd with Unix.Unix_error _ -> ()

let scratch = Buffer.create 256

let send c req =
  Buffer.clear scratch;
  W.encode_request scratch req;
  Outbuf.add_buffer c.pend scratch

(* A document as FEED frames of [feed_bytes], then FLUSH. *)
let send_doc c text =
  let feed_bytes = Workload.feed_bytes in
  let n = String.length text in
  let pos = ref 0 in
  while !pos < n do
    let len = min feed_bytes (n - !pos) in
    Outbuf.add_frame_substring c.pend ~tag:W.tag_feed text !pos len;
    pos := !pos + len
  done;
  send c W.Flush

(* Cold-path decode of a non-token frame. *)
let reply_of_view v =
  match
    W.reply_of_frame { W.tag = v.W.Decoder.vtag; payload = W.Decoder.view_string v }
  with
  | Ok r -> r
  | Error msg -> failwith ("perfbench: undecodable reply: " ^ msg)

let rbuf = Bytes.create 65536

let dispatch c =
  let t0 = now_ns () in
  Trace.begin_span p_decode;
  let rec loop () =
    match W.Decoder.next_view c.dec with
    | W.Decoder.View_need_more -> ()
    | W.Decoder.View_corrupt msg ->
        close c;
        log "perfbench: corrupt reply stream: %s" msg
    | W.Decoder.View v ->
        c.on_frame v;
        loop ()
  in
  loop ();
  Trace.end_span p_decode;
  acct.decode_ns <- acct.decode_ns + (now_ns () - t0)

let rec select_eintr r w timeout =
  try Unix.select r w [] timeout
  with Unix.Unix_error (Unix.EINTR, _, _) -> select_eintr r w timeout

(* One select round over the live connections: write what is pending,
   read and dispatch what arrived. *)
let round conns =
  let live = List.filter (fun c -> not c.eof) conns in
  let rds = List.map (fun c -> c.fd) live in
  let wrs =
    List.filter_map
      (fun c -> if Outbuf.length c.pend > 0 then Some c.fd else None)
      live
  in
  let t0 = now_ns () in
  Trace.begin_span p_wait;
  let readable, writable, _ = select_eintr rds wrs 1.0 in
  Trace.end_span p_wait;
  acct.wait_ns <- acct.wait_ns + (now_ns () - t0);
  List.iter
    (fun c ->
      if (not c.eof) && List.memq c.fd writable then begin
        Trace.begin_span p_write;
        let buf, pos, len = Outbuf.view c.pend in
        (match Unix.write c.fd buf pos len with
        | w -> Outbuf.consume c.pend w
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
        | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
            close c);
        Trace.end_span p_write
      end;
      if (not c.eof) && List.memq c.fd readable then
        match Unix.read c.fd rbuf 0 (Bytes.length rbuf) with
        | 0 -> close c
        | len ->
            W.Decoder.feed_bytes c.dec rbuf ~pos:0 ~len;
            dispatch c
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> close c)
    live

(* Run rounds until [until ()] holds. [false] if every connection closed
   first or nothing arrived for [stall_s] seconds. *)
let pump ?(stall_s = 60.) conns ~until =
  let deadline = ref (Unix.gettimeofday () +. stall_s) in
  let rec go () =
    if until () then true
    else if List.for_all (fun c -> c.eof) conns then false
    else if Unix.gettimeofday () > !deadline then false
    else begin
      let before = acct.decode_ns in
      round conns;
      if acct.decode_ns <> before then deadline := Unix.gettimeofday () +. stall_s;
      go ()
    end
  in
  go ()

(* ---- OPEN ---- *)

type verdict = Opened | Rejected of W.error_code | No_reply

(* Send the grammar's OPEN/OPEN_BPE and wait for OPENED or ERROR. Returns
   the round trip and the verdict. *)
let open_session c (g : Workload.grammar) =
  let verdict = ref None in
  c.on_frame <-
    (fun v ->
      match reply_of_view v with
      | W.Opened _ -> verdict := Some Opened
      | W.Error { code; _ } -> verdict := Some (Rejected code)
      | _ -> verdict := Some No_reply);
  let t0 = now_ns () in
  send c g.request;
  let got = pump [ c ] ~until:(fun () -> !verdict <> None) in
  let dt = now_ns () - t0 in
  (dt, if got then Option.value !verdict ~default:No_reply else No_reply)

let verdict_ok (g : Workload.grammar) = function
  | Opened -> g.bounded
  | Rejected W.Bad_grammar -> not g.bounded
  | Rejected _ | No_reply -> false

(* ---- Documents, closed loop ---- *)

(* Per-connection document in flight. *)
type slot = {
  conn : conn;
  mutable busy : bool;
  mutable doc : Workload.doc;
  mutable t0 : int;
  mutable n : int;
  mutable h : int;
}

type docs_result = {
  latencies_ms : float list;
  bytes : int;
  docs : int;
  elapsed_ns : int;
}

let slot_frame tally s v =
  let tag = v.W.Decoder.vtag in
  if tag = W.tag_tokens then begin
    match
      W.iter_tokens_view v (fun ~rule ~buf ~pos ~len ->
          s.n <- s.n + 1;
          s.h <- hash_token_bytes s.h ~rule buf pos len)
    with
    | Ok k -> acct.tokens <- acct.tokens + k
    | Error msg -> check tally false ("TOKENS payload: " ^ msg)
  end
  else if tag = W.tag_ids then begin
    match
      W.iter_ids_view v (fun id ->
          s.n <- s.n + 1;
          s.h <- hash_id s.h id)
    with
    | Ok k -> acct.tokens <- acct.tokens + k
    | Error msg -> check tally false ("IDS payload: " ^ msg)
  end
  else
    match reply_of_view v with
    | W.Pending { ok; offset; _ } ->
        let got = { count = s.n; hash = s.h; ok; offset } in
        check tally (digest_equal got s.doc.expect) "document parity mismatch";
        s.busy <- false
    | W.Error { code = W.Lexical; _ } -> ()  (* the PENDING that follows decides *)
    | W.Error { message; _ } ->
        check tally false ("unexpected ERROR: " ^ message);
        close s.conn
    | _ -> check tally false "unexpected reply frame"

(* Drive [conns] (sessions already OPENed on [g]) through documents:
   [`Docs n] sends exactly n documents in order, spread over the
   connections; [`Until t] keeps every connection busy until monotonic
   time [t], then lets the documents in flight finish. Documents are taken
   in order from [cursor], which a caller can share between calls so that
   consecutive calls continue the cycle. *)
let run_docs ~tally ~conns ?(cursor = ref 0) (g : Workload.grammar) budget =
  let ndocs = Array.length g.docs in
  let sent = ref 0 in
  let lat = ref [] and bytes = ref 0 and done_ = ref 0 in
  let slots =
    List.map
      (fun conn ->
        { conn; busy = false; doc = g.docs.(0); t0 = 0; n = 0; h = hash_basis })
      conns
  in
  List.iter
    (fun s ->
      s.conn.on_frame <-
        (fun v ->
          let was = s.busy in
          slot_frame tally s v;
          if was && not s.busy then begin
            lat := ms_of_ns (now_ns () - s.t0) :: !lat;
            bytes := !bytes + String.length s.doc.text;
            incr done_
          end))
    slots;
  let more () =
    match budget with
    | `Docs n -> !sent < n
    | `Until t -> now_ns () < t
  in
  let start s =
    s.doc <- g.docs.(!cursor mod ndocs);
    incr cursor;
    incr sent;
    s.busy <- true;
    s.n <- 0;
    s.h <- hash_basis;
    s.t0 <- now_ns ();
    send_doc s.conn s.doc.text
  in
  let t0 = now_ns () in
  let fill () =
    List.iter (fun s -> if (not s.busy) && (not s.conn.eof) && more () then start s) slots
  in
  fill ();
  let finished () =
    fill ();
    List.for_all (fun s -> not s.busy || s.conn.eof) slots
  in
  let ok = pump conns ~until:finished in
  List.iter
    (fun s ->
      if s.busy then begin
        check tally false "missing reply or dropped connection";
        s.busy <- false
      end)
    slots;
  if not ok then log "perfbench: document loop ended early";
  { latencies_ms = !lat; bytes = !bytes; docs = !done_; elapsed_ns = now_ns () - t0 }

(* ---- grammar-churn: one op per fresh connection ---- *)

type op_result = {
  open_ns : int;
  doc_ms : float list;
  doc_bytes : int;
  doc_ns : int;  (** time spent on the documents *)
}

(* Connect, OPEN a cache-miss grammar, and — when it opens — tokenize its
   document (FEED + FLUSH), then CLOSE; the op ends when the daemon hangs
   up. *)
let churn_op ~tally ~socket (g : Workload.grammar) =
  let c = connect socket in
  let open_ns, verdict = open_session c g in
  check tally (verdict_ok g verdict)
    (Printf.sprintf "%s grammar: unexpected OPEN verdict" g.kind);
  let doc_ms, doc_bytes, doc_ns =
    match verdict with
    | Opened when Array.length g.docs > 0 ->
        let r = run_docs ~tally ~conns:[ c ] g (`Docs (Array.length g.docs)) in
        (r.latencies_ms, r.bytes, r.elapsed_ns)
    | _ -> ([], 0, 0)
  in
  if verdict = Opened then send c W.Close;
  c.on_frame <- (fun _ -> ());
  if not (pump ~stall_s:10. [ c ] ~until:(fun () -> c.eof)) then
    check tally false "daemon did not hang up after CLOSE";
  close c;
  { open_ns; doc_ms; doc_bytes; doc_ns }

(* ---- STATS ---- *)

(* The daemon's STATS registry as (name, value) pairs; histograms
   contribute name.p50 / name.p99. *)
let stats socket =
  let c = connect socket in
  let body = ref None in
  c.on_frame <-
    (fun v ->
      match reply_of_view v with
      | W.Metrics { body = b; _ } -> body := Some b
      | _ -> ());
  send c (W.Stats W.Json);
  ignore (pump ~stall_s:10. [ c ] ~until:(fun () -> !body <> None));
  close c;
  let module J = Obs.Json in
  match Option.map J.of_string !body with
  | Some (Ok j) ->
      let ms = Option.bind (J.member "metrics" j) J.to_list_opt in
      List.concat_map
        (fun m ->
          let name = Option.bind (J.member "name" m) J.to_string_opt in
          let num k = Option.bind (J.member k m) J.to_float_opt in
          match name with
          | None -> []
          | Some name ->
              List.filter_map
                (fun (suffix, k) ->
                  Option.map (fun v -> (name ^ suffix, v)) (num k))
                [ ("", "value"); (".p50", "p50"); (".p99", "p99") ])
        (Option.value ms ~default:[])
  | _ -> []
