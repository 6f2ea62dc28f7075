let max_payload = 16 * 1024 * 1024

type format = Json | Prom

type error_code = Protocol | Bad_grammar | Capacity | Lexical | Shutting_down

let error_code_to_int = function
  | Protocol -> 1
  | Bad_grammar -> 2
  | Capacity -> 3
  | Lexical -> 4
  | Shutting_down -> 5

let error_code_of_int = function
  | 1 -> Some Protocol
  | 2 -> Some Bad_grammar
  | 3 -> Some Capacity
  | 4 -> Some Lexical
  | 5 -> Some Shutting_down
  | _ -> None

type request =
  | Open of string
  | Feed of string
  | Flush
  | Close
  | Stats of format
  | Open_bpe of { ids : bool; vocab : string }

type reply =
  | Opened of { grammar : string; k : int; cached : bool; rules : string list }
  | Pending of { ok : bool; offset : int; pending : string }
  | Error of { code : error_code; retryable : bool; message : string }
  | Metrics of { format : format; body : string }

(* ---- tags ---- *)

let tag_open = 0x01
let tag_feed = 0x02
let tag_flush = 0x03
let tag_close = 0x04
let tag_stats = 0x05
let tag_open_bpe = 0x06
let tag_opened = 0x81
let tag_tokens = 0x82
let tag_pending = 0x83
let tag_error = 0x84
let tag_metrics = 0x85
let tag_ids = 0x86

(* ---- primitive encoders ---- *)

type frame = { tag : int; payload : string }

(* Unsigned 32-bit big-endian read: lengths and rule ids are never
   negative, whatever their top bit. *)
let[@inline] u32_at b pos =
  Int32.to_int (Bytes.get_int32_be b pos) land 0xffff_ffff

let encode_frame b { tag; payload } =
  Buffer.add_int32_be b (Int32.of_int (String.length payload));
  Buffer.add_char b (Char.chr (tag land 0xff));
  Buffer.add_string b payload

let format_byte = function Json -> '\x00' | Prom -> '\x01'

let format_of_byte = function
  | '\x00' -> Some Json
  | '\x01' -> Some Prom
  | _ -> None

let request_to_frame = function
  | Open spec -> { tag = tag_open; payload = spec }
  | Feed bytes -> { tag = tag_feed; payload = bytes }
  | Flush -> { tag = tag_flush; payload = "" }
  | Close -> { tag = tag_close; payload = "" }
  | Stats fmt -> { tag = tag_stats; payload = String.make 1 (format_byte fmt) }
  | Open_bpe { ids; vocab } ->
      {
        tag = tag_open_bpe;
        payload = (if ids then "\x01" else "\x00") ^ vocab;
      }

let reply_to_frame = function
  | Opened { grammar; k; cached; rules } ->
      let b = Buffer.create 64 in
      Buffer.add_string b (Printf.sprintf "grammar %s\n" grammar);
      Buffer.add_string b (Printf.sprintf "k %d\n" k);
      Buffer.add_string b (Printf.sprintf "cached %d\n" (Bool.to_int cached));
      List.iter (fun r -> Buffer.add_string b (Printf.sprintf "rule %s\n" r)) rules;
      { tag = tag_opened; payload = Buffer.contents b }
  | Pending { ok; offset; pending } ->
      let b = Buffer.create (9 + String.length pending) in
      Buffer.add_char b (if ok then '\x01' else '\x00');
      Buffer.add_int64_be b (Int64.of_int offset);
      Buffer.add_string b pending;
      { tag = tag_pending; payload = Buffer.contents b }
  | Error { code; retryable; message } ->
      let b = Buffer.create (2 + String.length message) in
      Buffer.add_char b (Char.chr (error_code_to_int code));
      Buffer.add_char b (if retryable then '\x01' else '\x00');
      Buffer.add_string b message;
      { tag = tag_error; payload = Buffer.contents b }
  | Metrics { format; body } ->
      { tag = tag_metrics; payload = String.make 1 (format_byte format) ^ body }

(* Client-side encode: one span per request frame. *)
let p_encode = St_trace.Trace.probe ~cat:"flush" "wire.encode"

let encode_request b r =
  if not !St_trace.Trace.on then encode_frame b (request_to_frame r)
  else begin
    St_trace.Trace.begin_span p_encode;
    encode_frame b (request_to_frame r);
    St_trace.Trace.end_span p_encode
  end

let encode_reply b r = encode_frame b (reply_to_frame r)

(* ---- typed decoding ---- *)

let request_of_frame { tag; payload } =
  if tag = tag_open then Ok (Open payload)
  else if tag = tag_feed then Ok (Feed payload)
  else if tag = tag_flush then
    if payload = "" then Ok Flush else Result.Error "FLUSH payload not empty"
  else if tag = tag_close then
    if payload = "" then Ok Close else Result.Error "CLOSE payload not empty"
  else if tag = tag_stats then
    if String.length payload <> 1 then Result.Error "STATS payload not 1 byte"
    else
      match format_of_byte payload.[0] with
      | Some fmt -> Ok (Stats fmt)
      | None -> Result.Error "STATS: unknown format byte"
  else if tag = tag_open_bpe then
    if String.length payload < 1 then
      Result.Error "OPEN_BPE payload missing ids byte"
    else
      match payload.[0] with
      | '\x00' | '\x01' ->
          Ok
            (Open_bpe
               {
                 ids = payload.[0] = '\x01';
                 vocab = String.sub payload 1 (String.length payload - 1);
               })
      | _ -> Result.Error "OPEN_BPE: unknown ids byte"
  else Result.Error (Printf.sprintf "unknown request tag 0x%02x" tag)

(* Client-side payload parse of the cold replies; token batches never
   come through here (see [iter_tokens_view]). *)
let p_parse_reply = St_trace.Trace.probe ~cat:"decode" "wire.parse_reply"

let reply_of_frame { tag; payload } =
  St_trace.Trace.with_span p_parse_reply @@ fun () ->
  let len = String.length payload in
  if tag = tag_opened then begin
    let grammar = ref "" and k = ref (-1) and cached = ref false in
    let rules = ref [] in
    let ok = ref true in
    String.split_on_char '\n' payload
    |> List.iter (fun line ->
           if line <> "" then
             match String.index_opt line ' ' with
             | None -> ok := false
             | Some i -> (
                 let key = String.sub line 0 i in
                 let value = String.sub line (i + 1) (String.length line - i - 1) in
                 match key with
                 | "grammar" -> grammar := value
                 | "k" -> ( match int_of_string_opt value with Some n -> k := n | None -> ok := false)
                 | "cached" -> cached := value = "1"
                 | "rule" -> rules := value :: !rules
                 | _ -> ok := false));
    if !ok && !k >= 0 then
      Ok (Opened { grammar = !grammar; k = !k; cached = !cached; rules = List.rev !rules })
    else Result.Error "malformed OPENED payload"
  end
  else if tag = tag_pending then begin
    if len < 9 then Result.Error "malformed PENDING payload"
    else
      Ok
        (Pending
           {
             ok = payload.[0] = '\x01';
             offset = Int64.to_int (String.get_int64_be payload 1);
             pending = String.sub payload 9 (len - 9);
           })
  end
  else if tag = tag_error then begin
    if len < 2 then Result.Error "malformed ERROR payload"
    else
      match error_code_of_int (Char.code payload.[0]) with
      | None -> Result.Error "ERROR: unknown code"
      | Some code ->
          Ok
            (Error
               {
                 code;
                 retryable = payload.[1] = '\x01';
                 message = String.sub payload 2 (len - 2);
               })
  end
  else if tag = tag_metrics then begin
    if len < 1 then Result.Error "malformed METRICS payload"
    else
      match format_of_byte payload.[0] with
      | None -> Result.Error "METRICS: unknown format byte"
      | Some format ->
          Ok (Metrics { format; body = String.sub payload 1 (len - 1) })
  end
  else Result.Error (Printf.sprintf "unknown reply tag 0x%02x" tag)

(* ---- incremental decoder ---- *)

module Decoder = struct
  (* The pending bytes live in an [Outbuf]: the decoder hands out
     *views* into its storage — no per-frame copy. Bytes move only when
     a partial frame straddles a feed boundary and the tail runs out of
     room; [Outbuf.moves] counts those events, and a straddle-free run
     performs exactly zero. *)
  type t = { q : Outbuf.t; mutable corrupt : string option }

  let create () = { q = Outbuf.create (); corrupt = None }
  let buffered t = Outbuf.length t.q
  let copies t = Outbuf.moves t.q
  let feed t s ~pos ~len = Outbuf.add_substring t.q s pos len
  let feed_bytes t b ~pos ~len = Outbuf.add_subbytes t.q b pos len
  let feed_string t s = Outbuf.add_string t.q s

  type view = { vtag : int; vbuf : Bytes.t; voff : int; vlen : int }

  type view_result = View of view | View_need_more | View_corrupt of string

  let p_decode = St_trace.Trace.probe ~cat:"decode" "wire.decode"

  (* Span around one frame-extraction attempt: one per decoded frame in
     steady state (View_need_more outcomes only occur on partial reads). *)
  let next_view t =
    St_trace.Trace.with_span p_decode @@ fun () ->
    match t.corrupt with
    | Some msg -> View_corrupt msg
    | None ->
        let live = Outbuf.length t.q in
        if live < 5 then View_need_more
        else begin
          let b = Outbuf.storage t.q and p = Outbuf.head t.q in
          let plen = u32_at b p in
          if plen > max_payload then begin
            let msg =
              Printf.sprintf "frame payload %d exceeds limit %d" plen
                max_payload
            in
            t.corrupt <- Some msg;
            View_corrupt msg
          end
          else if live < 5 + plen then View_need_more
          else begin
            (* emptying the queue resets offsets only: views stay valid *)
            Outbuf.consume t.q (5 + plen);
            View
              {
                vtag = Char.code (Bytes.get b (p + 4));
                vbuf = b;
                voff = p + 5;
                vlen = plen;
              }
          end
        end

  let view_string v = Bytes.sub_string v.vbuf v.voff v.vlen
end

(* Walk the TOKENS records of a decoded frame view without materializing
   a list or copying lexemes: [f] sees (rule, buffer, offset, length) per
   record, valid only during the call. Returns the record count. *)
let iter_tokens_view (v : Decoder.view) f =
  let b = v.Decoder.vbuf in
  let stop = v.Decoder.voff + v.Decoder.vlen in
  let pos = ref v.Decoder.voff in
  let count = ref 0 in
  let ok = ref true in
  while !ok && !pos < stop do
    if stop - !pos < 8 then ok := false
    else begin
      let rule = u32_at b !pos in
      let n = u32_at b (!pos + 4) in
      if stop - !pos - 8 < n then ok := false
      else begin
        f ~rule ~buf:b ~pos:(!pos + 8) ~len:n;
        incr count;
        pos := !pos + 8 + n
      end
    end
  done;
  if !ok then Ok !count else Result.Error "malformed TOKENS payload"

(* Same idea for IDS frames (token-id serving mode): one u32 per token,
   no lexemes. *)
let iter_ids_view (v : Decoder.view) f =
  if v.Decoder.vlen mod 4 <> 0 then Result.Error "malformed IDS payload"
  else begin
    let b = v.Decoder.vbuf in
    let stop = v.Decoder.voff + v.Decoder.vlen in
    let pos = ref v.Decoder.voff in
    while !pos < stop do
      f (u32_at b !pos);
      pos := !pos + 4
    done;
    Ok (v.Decoder.vlen / 4)
  end

(* The one reply reader: every complete frame, in order. Token records
   are walked in place; the cold replies are copied out and parsed. *)
let rec read_replies dec ~tokens ~ids ~reply =
  match Decoder.next_view dec with
  | Decoder.View_need_more -> Ok ()
  | Decoder.View_corrupt msg -> Result.Error msg
  | Decoder.View v -> (
      let tag = v.Decoder.vtag in
      let walked =
        if tag = tag_tokens then iter_tokens_view v tokens
        else if tag = tag_ids then iter_ids_view v ids
        else
          match reply_of_frame { tag; payload = Decoder.view_string v } with
          | Ok r ->
              reply r;
              Ok 1
          | Result.Error msg -> Result.Error msg
      in
      match walked with
      | Ok _ -> read_replies dec ~tokens ~ids ~reply
      | Result.Error msg -> Result.Error msg)

let decode_all s =
  let d = Decoder.create () in
  Decoder.feed_string d s;
  let rec go acc =
    match Decoder.next_view d with
    | Decoder.View v ->
        go ({ tag = v.Decoder.vtag; payload = Decoder.view_string v } :: acc)
    | Decoder.View_need_more ->
        if Decoder.buffered d = 0 then Ok (List.rev acc)
        else Result.Error "trailing bytes: truncated frame"
    | Decoder.View_corrupt msg -> Result.Error msg
  in
  go []
