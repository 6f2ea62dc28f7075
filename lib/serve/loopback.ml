type conn = {
  lb : t;
  id : Server.conn_id;
  to_server : Outbuf.t;
  scratch : Buffer.t;  (* request encoding only; FEEDs skip it *)
  dec : Wire.Decoder.t;  (* client-side reply decoder *)
  (* decoded replies, newest first: TOKENS and IDS records apart *)
  mutable replies : Wire.reply list;
  mutable tokens : (string * int) list;
  mutable ids : int list;
  mutable closed : bool;
  mutable hung_up : bool;
}

and t = { srv : Server.t; mutable conns : conn list }

let create ?config () =
  let srv =
    match config with
    | None -> Server.create ()
    | Some config -> Server.create ~config ()
  in
  { srv; conns = [] }

let server t = t.srv

let connect t =
  let id = Server.on_connect t.srv in
  let c =
    {
      lb = t;
      id;
      to_server = Outbuf.create ~capacity:256 ();
      scratch = Buffer.create 256;
      dec = Wire.Decoder.create ();
      replies = [];
      tokens = [];
      ids = [];
      closed = false;
      hung_up = false;
    }
  in
  t.conns <- t.conns @ [ c ];
  c

let conn_id c = c.id

let send c req =
  if c.hung_up then invalid_arg "Loopback.send: connection hung up";
  Buffer.clear c.scratch;
  Wire.encode_request c.scratch req;
  Outbuf.add_buffer c.to_server c.scratch

let send_raw c s =
  if c.hung_up then invalid_arg "Loopback.send_raw: connection hung up";
  Outbuf.add_string c.to_server s

(* The hot path for benchmarks: frame a FEED straight from the caller's
   string — header poke + one payload blit, no intermediate encode. *)
let send_feed_sub c s ~pos ~len =
  if c.hung_up then invalid_arg "Loopback.send_feed_sub: connection hung up";
  Outbuf.add_frame_substring c.to_server ~tag:Wire.tag_feed s pos len

let unsent c = Outbuf.length c.to_server

let hangup c =
  if not (c.closed || c.hung_up) then begin
    c.hung_up <- true;
    Server.on_eof c.lb.srv c.id;
    c.closed <- true
  end

(* The server->client copy half of a loopback step; the client->server
   half is already rooted at the Server.on_data span. *)
let p_copy = St_trace.Trace.probe ~cat:"io" "loopback.copy"

let step_conn ~chunk t c =
  if c.closed then false
  else begin
    let moved = ref false in
    (* client -> server, gated by backpressure: hand the server a view
       straight into the client queue (on_data copies into its decoder) *)
    let buf, pos, avail = Outbuf.view c.to_server in
    if avail > 0 && Server.wants_read t.srv c.id then begin
      let n = min chunk avail in
      Server.on_data t.srv c.id buf ~pos ~len:n;
      Outbuf.consume c.to_server n;
      moved := true
    end;
    (* server -> client, through the daemon's drain path: copy at most
       [chunk] bytes of the out queue into the client decoder, then
       consume what was "written" *)
    let buf, pos, len = Server.out_view t.srv c.id in
    if len > 0 then begin
      St_trace.Trace.begin_span p_copy;
      let n = min chunk len in
      Wire.Decoder.feed_bytes c.dec buf ~pos ~len:n;
      Server.out_consume t.srv c.id n;
      St_trace.Trace.end_span p_copy;
      moved := true
    end;
    if Server.should_close t.srv c.id then begin
      Server.on_closed t.srv c.id;
      c.closed <- true;
      moved := true
    end;
    !moved
  end

let step ?(chunk = max_int) t =
  List.fold_left (fun acc c -> step_conn ~chunk t c || acc) false t.conns

let run ?chunk t =
  while step ?chunk t do
    ()
  done

let tick t = Server.on_tick t.srv

let drain_views c f =
  let continue = ref true in
  while !continue do
    match Wire.Decoder.next_view c.dec with
    | Wire.Decoder.View_need_more -> continue := false
    | Wire.Decoder.View_corrupt msg ->
        failwith ("Loopback: corrupt reply stream: " ^ msg)
    | Wire.Decoder.View v -> f v
  done

let decoder c = c.dec

(* Sort every decoded frame into the connection's logs. *)
let decode c =
  match
    Wire.read_replies c.dec
      ~tokens:(fun ~rule ~buf ~pos ~len ->
        c.tokens <- (Bytes.sub_string buf pos len, rule) :: c.tokens)
      ~ids:(fun id -> c.ids <- id :: c.ids)
      ~reply:(fun r -> c.replies <- r :: c.replies)
  with
  | Ok () -> ()
  | Error msg -> failwith ("Loopback: bad reply stream: " ^ msg)

let replies c =
  decode c;
  let r = List.rev c.replies in
  c.replies <- [];
  r

let tokens c =
  decode c;
  let r = List.rev c.tokens in
  c.tokens <- [];
  r

let ids c =
  decode c;
  let r = List.rev c.ids in
  c.ids <- [];
  r

let closed c = c.closed
