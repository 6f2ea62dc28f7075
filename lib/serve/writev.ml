external writev_stub :
  Unix.file_descr -> (Bytes.t * int * int) array -> int -> int
  = "st_serve_writev"
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

let write fd iovs n = classify (writev_stub fd iovs n)
