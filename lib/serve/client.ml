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
   only when the queue drops below it, so `Fd input streams in O(1). *)
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
      let refill () =
        while (not !input_done) && Outbuf.length pend < out_budget do
          if not (next_feed ()) then begin
            input_done := true;
            enqueue Wire.Flush;
            (match stats with
            | Some fmt -> enqueue (Wire.Stats fmt)
            | None -> ());
            enqueue Wire.Close
          end
        done
      in
      let dec = Wire.Decoder.create () in
      let rbuf = Bytes.create chunk_size in
      let rule_names = ref [||] in
      (* per-rule "%-12s " prefixes, rendered once at OPENED *)
      let rule_prefixes = ref [||] in
      let rule_name r =
        if r >= 0 && r < Array.length !rule_names then !rule_names.(r)
        else Printf.sprintf "rule%d" r
      in
      let pbuf = Buffer.create 65536 in
      let rule_prefix r =
        if r >= 0 && r < Array.length !rule_prefixes then
          Buffer.add_string pbuf !rule_prefixes.(r)
        else append_padded pbuf (rule_name r)
      in
      let code = ref 0 in
      let tokens = ref 0 in
      let finished = ref false in
      let fail c = if !code = 0 then code := c in
      let write_stats_body body =
        match stats_dest with
        | None -> output_string err body
        | Some path ->
            let oc = open_out path in
            output_string oc body;
            close_out oc
      in
      let handle_reply = function
        | Wire.Opened { rules; _ } ->
            rule_names := Array.of_list rules;
            rule_prefixes :=
              Array.map
                (fun name ->
                  let b = Buffer.create 16 in
                  append_padded b name;
                  Buffer.contents b)
                !rule_names
        | Wire.Tokens toks ->
            (* only reached via reply_of_frame on non-hot paths; the live
               TOKENS stream is printed straight from decoder views *)
            List.iter
              (fun (lexeme, rule) ->
                incr tokens;
                Printf.fprintf out "%-12s %S\n" (rule_name rule) lexeme)
              toks
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
        | Wire.Ids ids ->
            List.iter
              (fun id ->
                incr tokens;
                Printf.fprintf out "%d\n" id)
              ids
      in
      let bad_stream what msg =
        Printf.fprintf err "error: %s: %s\n" what msg;
        fail 2;
        finished := true
      in
      (* The hot print path: each record renders into the reused [pbuf]
         — padded rule prefix, escaped lexeme straight from the decoder
         buffer — and the whole reply batch leaves in one write. *)
      let print_token ~rule ~buf ~pos ~len =
        incr tokens;
        rule_prefix rule;
        append_escaped pbuf buf pos len;
        Buffer.add_char pbuf '\n'
      in
      let flush_pbuf () =
        if Buffer.length pbuf > 0 then begin
          Buffer.output_buffer out pbuf;
          Buffer.clear pbuf
        end
      in
      let drain_decoder () =
        let continue = ref true in
        while !continue do
          match Wire.Decoder.next_view dec with
          | Wire.Decoder.View_need_more -> continue := false
          | Wire.Decoder.View_corrupt msg ->
              bad_stream "corrupt reply stream" msg;
              continue := false
          | Wire.Decoder.View v ->
              if v.Wire.Decoder.vtag = Wire.tag_tokens then begin
                (* token batches: walk the records in place; lexeme bytes
                   are escaped straight from the decoder buffer *)
                (match Wire.iter_tokens_view v print_token with
                | Ok _ -> ()
                | Error msg ->
                    bad_stream "bad reply frame" msg;
                    continue := false);
                flush_pbuf ()
              end
              else if v.Wire.Decoder.vtag = Wire.tag_ids then begin
                (match
                   Wire.iter_ids_view v (fun id ->
                       incr tokens;
                       Buffer.add_string pbuf (string_of_int id);
                       Buffer.add_char pbuf '\n')
                 with
                | Ok _ -> ()
                | Error msg ->
                    bad_stream "bad reply frame" msg;
                    continue := false);
                flush_pbuf ()
              end
              else begin
                let f =
                  {
                    Wire.tag = v.Wire.Decoder.vtag;
                    payload = Wire.Decoder.view_string v;
                  }
                in
                match Wire.reply_of_frame f with
                | Ok r -> handle_reply r
                | Error msg ->
                    bad_stream "bad reply frame" msg;
                    continue := false
              end
        done
      in
      while not !finished do
        refill ();
        let want_write = Outbuf.length pend > 0 in
        let readable, writable, _ =
          select_eintr [ fd ] (if want_write then [ fd ] else []) [] 1.0
        in
        if readable <> [] then begin
          match Unix.read fd rbuf 0 (Bytes.length rbuf) with
          | 0 ->
              drain_decoder ();
              finished := true
          | n ->
              Wire.Decoder.feed_bytes dec rbuf ~pos:0 ~len:n;
              drain_decoder ()
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            ->
              ()
          | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _)
            ->
              fail 2;
              finished := true
        end;
        if (not !finished) && writable <> [] then begin
          let buf, pos, len = Outbuf.view pend in
          match Unix.write fd buf pos len with
          | n -> Outbuf.consume pend n
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            ->
              ()
          | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _)
            ->
              if !code = 0 then begin
                Printf.fprintf err "error: connection reset by server\n";
                code := 2
              end;
              finished := true
        end
      done;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      flush out;
      flush err;
      { exit_code = !code; tokens = !tokens }
