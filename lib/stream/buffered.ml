type t = { buf : Bytes.t; source : Source.t }

let create ~capacity source =
  { buf = Bytes.create (max capacity 1); source }

let iter t f =
  let eof = ref false in
  while not !eof do
    let n = Source.read t.source t.buf ~pos:0 ~len:(Bytes.length t.buf) in
    if n = 0 then eof := true else f t.buf 0 n
  done

let run_streamtok engine ~capacity source ~emit =
  let t = create ~capacity source in
  let st = St_streamtok.Stream_tokenizer.create engine ~emit in
  (* The tokenizer keeps no reference to a chunk past [feed] (it copies
     what it carries), so the read buffer is fed in place. *)
  iter t (fun buf pos len ->
      St_streamtok.Stream_tokenizer.feed st (Bytes.unsafe_to_string buf) pos len);
  St_streamtok.Stream_tokenizer.finish st
