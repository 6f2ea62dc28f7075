type outcome = { exit_code : int; tokens : int }

(* Append the [Printf "%S"] rendering of bytes [pos, pos+len) — quotes,
   then [String.escaped]'s exact escaping: the six named escapes,
   printable ASCII verbatim, everything else [\DDD] decimal — straight
   into [b], no intermediate lexeme string. Byte-parity with the printf
   path is what lets check.sh [cmp] client output against [tokenize]. *)
let append_escaped b buf pos len =
  Buffer.add_char b '"';
  for i = pos to pos + len - 1 do
    match Bytes.unsafe_get buf i with
    | '"' -> Buffer.add_string b "\\\""
    | '\\' -> Buffer.add_string b "\\\\"
    | '\n' -> Buffer.add_string b "\\n"
    | '\t' -> Buffer.add_string b "\\t"
    | '\r' -> Buffer.add_string b "\\r"
    | '\b' -> Buffer.add_string b "\\b"
    | ' ' .. '~' as c -> Buffer.add_char b c
    | c ->
        let n = Char.code c in
        Buffer.add_char b '\\';
        Buffer.add_char b (Char.unsafe_chr (48 + (n / 100)));
        Buffer.add_char b (Char.unsafe_chr (48 + (n / 10 mod 10)));
        Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))
  done;
  Buffer.add_char b '"'

(* ["%-12s "]: the name, right-padded with spaces to at least 12. *)
let append_padded b name =
  Buffer.add_string b name;
  for _ = String.length name to 11 do
    Buffer.add_char b ' '
  done;
  Buffer.add_char b ' '

let chunk_size = 65536

(* Keep roughly this much encoded output in flight; more input is pulled
   only when the queue drops below it, so `Fd input streams in O(1)
   memory. *)
let out_budget = 2 * chunk_size

let rec select_eintr r w e timeout =
  try Unix.select r w e timeout
  with Unix.Unix_error (Unix.EINTR, _, _) -> select_eintr r w e timeout

let rec read_eintr fd buf pos len =
  try Unix.read fd buf pos len
  with Unix.Unix_error (Unix.EINTR, _, _) -> read_eintr fd buf pos len

(* Pull one chunk of input and frame it as a FEED straight into [pend] —
   header poke + one payload blit, no intermediate string. Returns [false]
   once the input is exhausted. *)
let make_feeder input pend =
  match input with
  | `String s ->
      let pos = ref 0 in
      fun () ->
        if !pos >= String.length s then false
        else begin
          let n = min chunk_size (String.length s - !pos) in
          Outbuf.add_frame_substring pend ~tag:Wire.tag_feed s !pos n;
          pos := !pos + n;
          true
        end
  | `Fd ifd ->
      let buf = Bytes.create chunk_size in
      fun () ->
        (match read_eintr ifd buf 0 chunk_size with
        | 0 -> false
        | n ->
            Outbuf.add_frame_subbytes pend ~tag:Wire.tag_feed buf 0 n;
            true)

let run ~socket ~grammar ~input ?open_request ?(out = stdout) ?(err = stderr)
    ?stats ?stats_dest () =
  (* A daemon that refuses the connection closes it: the next write must
     fail with EPIPE, not kill the process before the refusal is shown. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Printf.fprintf err "error: cannot connect to %s: %s\n" socket
        (Unix.error_message e);
      { exit_code = 2; tokens = 0 }
  | () ->
      Unix.set_nonblock fd;
      let pend = Outbuf.create ~capacity:(2 * chunk_size) () in
      let scratch = Buffer.create 256 in
      let enqueue req =
        Buffer.clear scratch;
        Wire.encode_request scratch req;
        Outbuf.add_buffer pend scratch
      in
      let next_feed = make_feeder input pend in
      let input_done = ref false in
      enqueue
        (match open_request with
        | Some req -> req
        | None -> Wire.Open grammar);
      let wants_input () =
        (not !input_done) && Outbuf.length pend < out_budget
      in
      let pull () =
        if not (next_feed ()) then begin
          input_done := true;
          enqueue Wire.Flush;
          (match stats with
          | Some fmt -> enqueue (Wire.Stats fmt)
          | None -> ());
          enqueue Wire.Close
        end
      in
      let dec = Wire.Decoder.create () in
      let rbuf = Bytes.create chunk_size in
      (* per-rule "%-12s " prefixes, rendered once at OPENED *)
      let rule_prefixes = ref [||] in
      let pbuf = Buffer.create 65536 in
      let rule_prefix r =
        if r >= 0 && r < Array.length !rule_prefixes then
          Buffer.add_string pbuf !rule_prefixes.(r)
        else append_padded pbuf (Printf.sprintf "rule%d" r)
      in
      let code = ref 0 in
      let tokens = ref 0 in
      let finished = ref false in
      let fail c = if !code = 0 then code := c in
      let write_stats_body body =
        match stats_dest with
        | None -> output_string err body
        | Some path -> (
            match open_out path with
            | oc ->
                output_string oc body;
                close_out oc
            | exception Sys_error msg ->
                Printf.fprintf err "error: cannot write stats: %s\n" msg;
                fail 1)
      in
      let handle_reply = function
        | Wire.Opened { rules; _ } ->
            rule_prefixes :=
              Array.of_list
                (List.map
                   (fun name ->
                     let b = Buffer.create 16 in
                     append_padded b name;
                     Buffer.contents b)
                   rules)
        | Wire.Pending { ok = true; _ } -> ()
        | Wire.Pending { ok = false; offset; pending } ->
            if !code = 0 then begin
              Printf.fprintf err
                "error: untokenizable input at offset %d\npending (%d \
                 bytes): %S\n"
                offset (String.length pending)
                (if String.length pending <= 32 then pending
                 else String.sub pending 0 32);
              code := 1
            end
        | Wire.Error { code = _; retryable; message } ->
            Printf.fprintf err "error: %s%s\n" message
              (if retryable then " (retryable)" else "");
            fail 1
        | Wire.Metrics { body; _ } -> write_stats_body body
      in
      (* The hot print path: each record renders into the reused [pbuf]
         — padded rule prefix, escaped lexeme straight from the decoder
         buffer — and each read's replies leave in one write. *)
      let print_token ~rule ~buf ~pos ~len =
        incr tokens;
        rule_prefix rule;
        append_escaped pbuf buf pos len;
        Buffer.add_char pbuf '\n'
      in
      let print_id id =
        incr tokens;
        Buffer.add_string pbuf (string_of_int id);
        Buffer.add_char pbuf '\n'
      in
      let flush_pbuf () =
        if Buffer.length pbuf > 0 then begin
          Buffer.output_buffer out pbuf;
          Buffer.clear pbuf
        end
      in
      let read_replies () =
        let r =
          Wire.read_replies dec ~tokens:print_token ~ids:print_id
            ~reply:(fun r ->
              flush_pbuf ();
              handle_reply r)
        in
        flush_pbuf ();
        flush out;
        match r with
        | Ok () -> ()
        | Error msg ->
            Printf.fprintf err "error: bad reply stream: %s\n" msg;
            fail 2;
            finished := true
      in
      (* An input fd joins the select read set while the out queue has
         room and is read once per wakeup, so a pipe that delivers a line
         now and the rest later has that line tokenized and printed now. *)
      while not !finished do
        let input_fds =
          match input with
          | `Fd ifd when wants_input () -> [ ifd ]
          | `Fd _ -> []
          | `String _ ->
              while wants_input () do
                pull ()
              done;
              []
        in
        let want_write = Outbuf.length pend > 0 in
        let readable, writable, _ =
          select_eintr (fd :: input_fds)
            (if want_write then [ fd ] else [])
            [] 1.0
        in
        if List.mem fd readable then begin
          match Unix.read fd rbuf 0 (Bytes.length rbuf) with
          | 0 ->
              read_replies ();
              finished := true
          | n ->
              Wire.Decoder.feed_bytes dec rbuf ~pos:0 ~len:n;
              read_replies ()
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            ->
              ()
          | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _)
            ->
              fail 2;
              finished := true
        end;
        if
          (not !finished)
          && List.exists (fun i -> List.mem i readable) input_fds
        then pull ();
        if (not !finished) && writable <> [] then begin
          let buf, pos, len = Outbuf.view pend in
          match Writev.write fd buf pos len with
          | Writev.Written n -> Outbuf.consume pend n
          | Writev.Retry -> ()
          | Writev.Closed ->
              if !code = 0 then begin
                Printf.fprintf err "error: connection reset by server\n";
                code := 2
              end;
              finished := true
          | Writev.Error e ->
              Printf.fprintf err "error: write failed (errno %d)\n" e;
              fail 2;
              finished := true
        end
      done;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      flush out;
      flush err;
      { exit_code = !code; tokens = !tokens }
