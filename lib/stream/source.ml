type t = {
  read_raw : bytes -> pos:int -> len:int -> int;
  mutable reads : int;
  mutable bytes_read : int;
}

let read t buf ~pos ~len =
  let n = t.read_raw buf ~pos ~len in
  t.reads <- t.reads + 1;
  t.bytes_read <- t.bytes_read + n;
  n

let of_fun f = { read_raw = f; reads = 0; bytes_read = 0 }

let of_string ?max_per_read s =
  let offset = ref 0 in
  let cap = match max_per_read with Some c -> max 1 c | None -> max_int in
  of_fun (fun buf ~pos ~len ->
      let n = min (min len cap) (String.length s - !offset) in
      if n <= 0 then 0
      else begin
        Bytes.blit_string s !offset buf pos n;
        offset := !offset + n;
        n
      end)

let rec wait_readable fd =
  match Unix.select [ fd ] [] [] (-1.0) with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_readable fd

let of_fd fd =
  of_fun (fun buf ~pos ~len ->
      let rec go () =
        match Unix.read fd buf pos len with
        | n -> n
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            wait_readable fd;
            go ()
      in
      go ())
let reads t = t.reads
let bytes_read t = t.bytes_read
