open St_obs
open St_streamtok

type config = {
  max_sessions : int;
  idle_timeout : float;
  max_out_bytes : int;
  cache_entries : int;
  clock : unit -> float;
}

let default_config =
  {
    max_sessions = 64;
    idle_timeout = 300.0;
    max_out_bytes = 1 lsl 20;
    cache_entries = 64;
    clock = Unix.gettimeofday;
  }

type phase = Active | Draining

type conn = {
  id : int;
  session : Session.t;
  dec : Wire.Decoder.t;
  out : Outbuf.t;  (* the only place reply bytes wait to be written *)
  mutable last_activity : float;
  mutable phase : phase;
}

type conn_id = int

type t = {
  cfg : config;
  cache : Engine_cache.t;
  conns : (int, conn) Hashtbl.t;
  scratch : Buffer.t;
  seg : (string * int * int) array;  (* one-slot FEED view scratch *)
  started : float;
  mutable next_id : int;
  mutable is_draining : bool;
  mutable stats_hook : (unit -> Metrics.Registry.t) option;
  (* this server's own metrics, in STATS order; the hot path bumps the
     handles below and {!snapshot} copies the registry *)
  metrics : Metrics.Registry.t;
  sessions_g : Metrics.Gauge.t;  (* set from the session table on snapshot *)
  peak : Metrics.Gauge.t;
  opened : Metrics.Counter.t;
  closed : Metrics.Counter.t;
  rejected : Metrics.Counter.t;
  evicted_idle : Metrics.Counter.t;
  bytes_in : Metrics.Counter.t;
  bytes_out : Metrics.Counter.t;
  tokens : Metrics.Counter.t;
  feeds : Metrics.Counter.t;
  feed_batches : Metrics.Counter.t;
  flushes : Metrics.Counter.t;
  writevs : Metrics.Counter.t;
  decoder_copies : Metrics.Counter.t;
  proto_errors : Metrics.Counter.t;
  lexical_errors : Metrics.Counter.t;
  feed_ns : Metrics.Histogram.t;
}

let create ?cache ?(config = default_config) () =
  let r = Metrics.Registry.create () in
  let gauge name help = Metrics.Registry.gauge r ~help name in
  let counter name help = Metrics.Registry.counter r ~help name in
  let sessions_g = gauge "sessions" "active sessions" in
  let peak = gauge "sessions_peak" "peak concurrent sessions" in
  let opened = counter "sessions_opened" "connections accepted as sessions" in
  let closed = counter "sessions_closed" "sessions ended (any reason)" in
  let rejected =
    counter "sessions_rejected" "connections rejected at capacity or drain"
  in
  let evicted_idle =
    counter "sessions_evicted_idle" "sessions evicted by the idle timeout"
  in
  let bytes_in = counter "bytes_in" "FEED payload bytes" in
  let bytes_out = counter "bytes_out" "reply frame bytes enqueued" in
  let tokens = counter "tokens" "tokens emitted" in
  let feeds = counter "feeds" "FEED frames processed" in
  let feed_batches = counter "feed_batches" "coalesced FEED batches flushed" in
  let flushes = counter "flushes" "FLUSH frames processed" in
  let writevs =
    counter "writevs" "out-queue writes consumed (socket or loopback drain)"
  in
  let decoder_copies =
    counter "decoder_copies"
      "receive-buffer compaction copies (frames straddling a read)"
  in
  let proto_errors = counter "protocol_errors" "fatal protocol errors" in
  let lexical_errors =
    counter "lexical_errors" "streams that stopped tokenizing"
  in
  let feed_ns =
    Metrics.Registry.histogram r
      ~help:"per-FEED-batch handling latency, nanoseconds (log2 buckets)"
      "feed_latency_ns"
  in
  {
    cfg = config;
    cache =
      (match cache with
      | Some c -> c
      | None -> Engine_cache.create ~max_entries:config.cache_entries ());
    conns = Hashtbl.create 32;
    scratch = Buffer.create 4096;
    seg = [| ("", 0, 0) |];
    started = config.clock ();
    next_id = 0;
    is_draining = false;
    stats_hook = None;
    metrics = r;
    sessions_g;
    peak;
    opened;
    closed;
    rejected;
    evicted_idle;
    bytes_in;
    bytes_out;
    tokens;
    feeds;
    feed_batches;
    flushes;
    writevs;
    decoder_copies;
    proto_errors;
    lexical_errors;
    feed_ns;
  }

let config t = t.cfg
let cache t = t.cache
let set_stats_hook t f = t.stats_hook <- Some f

let conn t id =
  match Hashtbl.find_opt t.conns id with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Server: unknown conn %d" id)

let sessions t =
  Hashtbl.fold (fun _ c n -> if c.phase = Active then n + 1 else n) t.conns 0

let decoder_copies t = Metrics.Counter.value t.decoder_copies

let p_enqueue = St_trace.Trace.probe ~cat:"flush" "serve.enqueue"
let p_on_data = St_trace.Trace.probe ~cat:"decode" "serve.on_data"

(* The batched flush: the session's scratch encoder already holds
   ready-to-send TOKENS/IDS records, so framing the batch is one header
   poke plus one blit into the connection's out queue. Unspanned:
   [flush_tokens] and [enqueue] call it inside their own span. *)
let append_batch t c =
  match Session.batch c.session with
  | None -> ()
  | Some (enc, n) ->
      Metrics.Counter.add t.tokens n;
      Metrics.Counter.add t.bytes_out (5 + Outbuf.length enc);
      Outbuf.add_frame c.out ~tag:(Session.batch_tag c.session) enc;
      Session.batch_clear c.session

let flush_tokens t c =
  St_trace.Trace.with_span p_enqueue (fun () -> append_batch t c)

(* Reply encode + out-queue append — the cold reply path. Token batches
   do not come through here (see [flush_tokens]). *)
let enqueue t c reply =
  St_trace.Trace.with_span p_enqueue @@ fun () ->
  (* frame order: a pending token batch precedes any later reply *)
  append_batch t c;
  Buffer.clear t.scratch;
  Wire.encode_reply t.scratch reply;
  Metrics.Counter.add t.bytes_out (Buffer.length t.scratch);
  Outbuf.add_buffer c.out t.scratch

let resolve_spec spec = St_grammars.Registry.resolve spec

(* ---- events ---- *)

let on_connect t =
  let id = t.next_id in
  t.next_id <- id + 1;
  let c =
    {
      id;
      session = Session.create { cache = t.cache; resolve = resolve_spec };
      dec = Wire.Decoder.create ();
      out = Outbuf.create ();
      last_activity = t.cfg.clock ();
      phase = Active;
    }
  in
  Hashtbl.replace t.conns id c;
  if t.is_draining then begin
    c.phase <- Draining;
    Metrics.Counter.incr t.rejected;
    enqueue t c
      (Wire.Error
         {
           code = Wire.Shutting_down;
           retryable = true;
           message = "server is draining; retry elsewhere";
         })
  end
  else if sessions t > t.cfg.max_sessions then begin
    c.phase <- Draining;
    Metrics.Counter.incr t.rejected;
    enqueue t c
      (Wire.Error
         {
           code = Wire.Capacity;
           retryable = true;
           message =
             Printf.sprintf "session table full (%d); retry later"
               t.cfg.max_sessions;
         })
  end
  else begin
    Metrics.Counter.incr t.opened;
    Metrics.Gauge.set_max t.peak (float_of_int (sessions t))
  end;
  id

let fatal_reply = function
  | Wire.Error { code = Wire.Protocol | Wire.Bad_grammar; _ } -> true
  | _ -> false

let count_replies t replies =
  List.iter
    (fun r ->
      match r with
      | Wire.Error { code = Wire.Lexical; _ } ->
          Metrics.Counter.incr t.lexical_errors
      | Wire.Error { code = Wire.Protocol; _ } ->
          Metrics.Counter.incr t.proto_errors
      | _ -> ())
    replies

(* ---- stats ---- *)

let snapshot t =
  Metrics.Gauge.set_int t.sessions_g (sessions t);
  Metrics.Registry.copy t.metrics

let add_pool_metrics r ~cache ~uptime =
  let counter name help v =
    Metrics.Counter.add (Metrics.Registry.counter r ~help name) v
  in
  let gauge name help v =
    Metrics.Gauge.set (Metrics.Registry.gauge r ~help name) v
  in
  counter "engine_cache_compiles" "grammar compiles (cache misses)"
    (Engine_cache.compiles cache);
  counter "engine_cache_hits" "engine cache hits" (Engine_cache.hits cache);
  counter "engine_cache_evictions" "engines evicted from the cache"
    (Engine_cache.evictions cache);
  gauge "engine_cache_entries" "resident compiled engines"
    (float_of_int (Engine_cache.size cache));
  gauge "uptime_seconds" "seconds since server start" uptime

let stats_registry t =
  let r = snapshot t in
  add_pool_metrics r ~cache:t.cache ~uptime:(t.cfg.clock () -. t.started);
  r

let refusal t ~message =
  Metrics.Counter.incr t.rejected;
  Buffer.clear t.scratch;
  Wire.encode_reply t.scratch
    (Wire.Error { code = Wire.Capacity; retryable = true; message });
  Buffer.contents t.scratch

(* Non-FEED requests (FEED has its own view path in [on_data]). *)
let dispatch t c (req : Wire.request) =
  match req with
  | Wire.Stats fmt ->
      let registry =
        match t.stats_hook with
        | Some f -> f ()
        | None -> stats_registry t
      in
      let body =
        match fmt with
        | Wire.Json -> Export.to_json_string registry
        | Wire.Prom -> Export.to_prometheus registry
      in
      enqueue t c (Wire.Metrics { format = fmt; body })
  | Wire.Close -> c.phase <- Draining
  | Wire.Open _ | Wire.Open_bpe _ | Wire.Flush | Wire.Feed _ ->
      (match req with
      | Wire.Flush -> Metrics.Counter.incr t.flushes
      | _ -> ());
      let replies = Session.handle c.session req in
      flush_tokens t c;
      count_replies t replies;
      List.iter (enqueue t c) replies;
      if List.exists fatal_reply replies then c.phase <- Draining

let protocol_failure t c msg =
  Metrics.Counter.incr t.proto_errors;
  enqueue t c
    (Wire.Error { code = Wire.Protocol; retryable = false; message = msg });
  c.phase <- Draining

(* The decode loop. Each FEED frame's payload view is fed to the
   tokenizer as soon as it is decoded — zero-copy, one feed per frame.
   Consecutive FEEDs form one batch: their tokens accumulate in the
   session encoder and are framed into the out queue as one TOKENS frame
   when the batch ends — at a non-FEED frame, a session error, or when
   buffered input runs out — and early whenever the pending frame reaches
   [max_out_bytes]. The batch is also the latency unit: two clock reads
   per batch, not per frame.

   The [serve.on_data] span is the root of the server-side data plane:
   everything from raw input bytes to enqueued reply bytes happens inside
   one on_data call, so this span (with wire.decode / session.* /
   serve.enqueue nested in it) carries the full decode-to-flush
   attribution for a byte. *)
let on_data t id b ~pos ~len =
  St_trace.Trace.with_span p_on_data @@ fun () ->
  let c = conn t id in
  if c.phase = Active then begin
    c.last_activity <- t.cfg.clock ();
    let copies = Wire.Decoder.copies c.dec in
    Wire.Decoder.feed_bytes c.dec b ~pos ~len;
    Metrics.Counter.add t.decoder_copies (Wire.Decoder.copies c.dec - copies);
    let batch_t0 = ref 0.0 in
    let in_batch = ref false in
    let end_batch () =
      if !in_batch then begin
        in_batch := false;
        flush_tokens t c;
        Metrics.Counter.incr t.feed_batches;
        Metrics.Histogram.observe_seconds t.feed_ns
          (t.cfg.clock () -. !batch_t0)
      end
    in
    let continue = ref true in
    while !continue && c.phase = Active do
      match Wire.Decoder.next_view c.dec with
      | Wire.Decoder.View_need_more -> continue := false
      | Wire.Decoder.View_corrupt msg ->
          end_batch ();
          protocol_failure t c msg
      | Wire.Decoder.View v when v.Wire.Decoder.vtag = Wire.tag_feed -> (
          if not !in_batch then begin
            in_batch := true;
            batch_t0 := t.cfg.clock ()
          end;
          Metrics.Counter.incr t.feeds;
          Metrics.Counter.add t.bytes_in v.Wire.Decoder.vlen;
          (* the tokenizer copies what it keeps, so handing it the
             decoder's buffer as an immutable string is safe *)
          t.seg.(0) <-
            ( Bytes.unsafe_to_string v.Wire.Decoder.vbuf,
              v.Wire.Decoder.voff,
              v.Wire.Decoder.vlen );
          match Session.feed_views c.session t.seg 1 with
          | [] -> (
              match Session.batch c.session with
              | Some (enc, _) when Outbuf.length enc >= t.cfg.max_out_bytes ->
                  (* cap the frame size; the latency batch stays open *)
                  flush_tokens t c
              | _ -> ())
          | replies ->
              end_batch ();
              count_replies t replies;
              List.iter (enqueue t c) replies;
              if List.exists fatal_reply replies then c.phase <- Draining)
      | Wire.Decoder.View v -> (
          end_batch ();
          let f =
            {
              Wire.tag = v.Wire.Decoder.vtag;
              payload = Wire.Decoder.view_string v;
            }
          in
          match Wire.request_of_frame f with
          | Error msg -> protocol_failure t c msg
          | Ok req -> dispatch t c req)
    done;
    end_batch ()
  end

let remove t id =
  if Hashtbl.mem t.conns id then begin
    Hashtbl.remove t.conns id;
    Metrics.Counter.incr t.closed
  end

let on_eof t id = remove t id
let on_closed t id = remove t id

let evict t c ~message =
  Metrics.Counter.incr t.evicted_idle;
  enqueue t c
    (Wire.Error { code = Wire.Shutting_down; retryable = true; message });
  c.phase <- Draining

let on_tick t =
  if t.cfg.idle_timeout > 0.0 then begin
    let now = t.cfg.clock () in
    Hashtbl.iter
      (fun _ c ->
        if c.phase = Active && now -. c.last_activity > t.cfg.idle_timeout
        then
          evict t c
            ~message:
              (Printf.sprintf "idle for more than %gs; session evicted"
                 t.cfg.idle_timeout))
      t.conns
  end

(* ---- queries ---- *)

let wants_read t id =
  let c = conn t id in
  c.phase = Active && Outbuf.length c.out <= t.cfg.max_out_bytes

let out_pending t id = Outbuf.length (conn t id).out
let out_view t id = Outbuf.view (conn t id).out

let out_consume t id n =
  Metrics.Counter.incr t.writevs;
  Outbuf.consume (conn t id).out n

let should_close t id =
  let c = conn t id in
  c.phase = Draining && Outbuf.length c.out = 0

let conn_ids t = Hashtbl.fold (fun id _ acc -> id :: acc) t.conns []

let next_deadline t =
  if t.cfg.idle_timeout <= 0.0 then None
  else
    Hashtbl.fold
      (fun _ c acc ->
        if c.phase <> Active then acc
        else
          let dl = c.last_activity +. t.cfg.idle_timeout in
          match acc with Some d when d <= dl -> acc | _ -> Some dl)
      t.conns None

let drain t =
  if not t.is_draining then begin
    t.is_draining <- true;
    Hashtbl.iter
      (fun _ c ->
        if c.phase = Active then begin
          enqueue t c
            (Wire.Error
               {
                 code = Wire.Shutting_down;
                 retryable = true;
                 message = "server shutting down";
               });
          c.phase <- Draining
        end)
      t.conns
  end

let draining t = t.is_draining
let live_conns t = Hashtbl.length t.conns
