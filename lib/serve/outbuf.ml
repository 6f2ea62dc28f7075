type t = {
  mutable buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
  mutable moves : int;  (* compactions/reallocs that carried live bytes *)
}

let create ?(capacity = 4096) () =
  { buf = Bytes.create (max 16 capacity); pos = 0; len = 0; moves = 0 }

let length t = t.len - t.pos
let moves t = t.moves

let clear t =
  t.pos <- 0;
  t.len <- 0

let ensure_room t extra =
  if t.len + extra > Bytes.length t.buf then begin
    let live = length t in
    if live + extra <= Bytes.length t.buf / 2 then begin
      (* compact in place: the dead prefix dominates *)
      Bytes.blit t.buf t.pos t.buf 0 live;
      if live > 0 then t.moves <- t.moves + 1;
      t.pos <- 0;
      t.len <- live
    end
    else begin
      let cap = ref (max 4096 (2 * Bytes.length t.buf)) in
      while live + extra > !cap do
        cap := !cap * 2
      done;
      let nb = Bytes.create !cap in
      Bytes.blit t.buf t.pos nb 0 live;
      if live > 0 then t.moves <- t.moves + 1;
      t.buf <- nb;
      t.pos <- 0;
      t.len <- live
    end
  end

let add_char t c =
  ensure_room t 1;
  Bytes.unsafe_set t.buf t.len c;
  t.len <- t.len + 1

let add_substring t s pos len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Outbuf.add_substring";
  ensure_room t len;
  Bytes.blit_string s pos t.buf t.len len;
  t.len <- t.len + len

let add_string t s = add_substring t s 0 (String.length s)

let add_subbytes t b pos len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Outbuf.add_subbytes";
  ensure_room t len;
  Bytes.blit b pos t.buf t.len len;
  t.len <- t.len + len

let add_buffer t (b : Buffer.t) =
  let n = Buffer.length b in
  ensure_room t n;
  Buffer.blit b 0 t.buf t.len n;
  t.len <- t.len + n

let add_u32 t v =
  ensure_room t 4;
  Bytes.set_int32_be t.buf t.len (Int32.of_int v);
  t.len <- t.len + 4

let add_token t ~rule s pos len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Outbuf.add_token";
  ensure_room t (8 + len);
  Bytes.set_int32_be t.buf t.len (Int32.of_int rule);
  Bytes.set_int32_be t.buf (t.len + 4) (Int32.of_int len);
  Bytes.unsafe_blit_string s pos t.buf (t.len + 8) len;
  t.len <- t.len + 8 + len

(* Frame header: u32 payload length, then the tag. Reserves room for the
   payload too, so the caller's blit needs no second check. *)
let add_header t ~tag plen =
  ensure_room t (5 + plen);
  Bytes.set_int32_be t.buf t.len (Int32.of_int plen);
  Bytes.unsafe_set t.buf (t.len + 4) (Char.unsafe_chr (tag land 0xff));
  t.len <- t.len + 5

let add_frame t ~tag src =
  let plen = length src in
  add_header t ~tag plen;
  Bytes.blit src.buf src.pos t.buf t.len plen;
  t.len <- t.len + plen

let add_frame_substring t ~tag s pos len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Outbuf.add_frame_substring";
  add_header t ~tag len;
  Bytes.blit_string s pos t.buf t.len len;
  t.len <- t.len + len

let add_frame_subbytes t ~tag b pos len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Outbuf.add_frame_subbytes";
  add_header t ~tag len;
  Bytes.blit b pos t.buf t.len len;
  t.len <- t.len + len

let view t = (t.buf, t.pos, length t)
let storage t = t.buf
let head t = t.pos

let consume t n =
  if n < 0 || n > length t then invalid_arg "Outbuf.consume";
  t.pos <- t.pos + n;
  if t.pos = t.len then begin
    t.pos <- 0;
    t.len <- 0
  end
