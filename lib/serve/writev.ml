external write_stub : Unix.file_descr -> Bytes.t -> int -> int -> int
  = "st_serve_write"
[@@noalloc]

external errno_const : int -> int = "st_serve_errno_const" [@@noalloc]

let eagain = errno_const 0
let ewouldblock = errno_const 1
let eintr = errno_const 2
let epipe = errno_const 3
let econnreset = errno_const 4

type result = Written of int | Retry | Closed | Error of int

let classify r =
  if r >= 0 then Written r
  else
    let e = -r in
    if e = eagain || e = ewouldblock || e = eintr then Retry
    else if e = epipe || e = econnreset then Closed
    else Error e

let write fd buf pos len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg "Writev.write";
  classify (write_stub fd buf pos len)
