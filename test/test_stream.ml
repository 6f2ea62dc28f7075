open Streamtok

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_source_of_string () =
  let s = Source.of_string "hello world" in
  let buf = Bytes.create 4 in
  check_int "first read" 4 (Source.read s buf ~pos:0 ~len:4);
  check "content" true (Bytes.to_string buf = "hell");
  check_int "reads counted" 1 (Source.reads s);
  let rest = Buffer.create 16 in
  let rec drain () =
    let n = Source.read s buf ~pos:0 ~len:4 in
    if n > 0 then begin
      Buffer.add_subbytes rest buf 0 n;
      drain ()
    end
  in
  drain ();
  check "rest" true (Buffer.contents rest = "o world");
  check_int "total bytes" 11 (Source.bytes_read s)

let test_source_max_per_read () =
  let s = Source.of_string ~max_per_read:3 "abcdefgh" in
  let buf = Bytes.create 100 in
  check_int "capped" 3 (Source.read s buf ~pos:0 ~len:100);
  check_int "capped again" 3 (Source.read s buf ~pos:0 ~len:100);
  check_int "tail" 2 (Source.read s buf ~pos:0 ~len:100);
  check_int "eof" 0 (Source.read s buf ~pos:0 ~len:100)

let test_buffered_iter () =
  let s = Source.of_string (String.make 1000 'x') in
  let b = Buffered.create ~capacity:64 s in
  let seen = ref 0 in
  Buffered.iter b (fun _buf _pos len -> seen := !seen + len);
  check_int "all bytes seen" 1000 !seen;
  check "multiple reads" true (Source.reads s > 10)

let test_buffered_streamtok () =
  let e =
    match Engine.compile (Grammar.dfa Formats.csv) with
    | Ok e -> e
    | Error _ -> assert false
  in
  let input = Gen_data.csv ~target_bytes:20_000 () in
  let reference, _ = Engine.tokens e input in
  List.iter
    (fun capacity ->
      let acc = ref [] in
      let outcome =
        Buffered.run_streamtok e ~capacity
          (Source.of_string input)
          ~emit:(fun lex r -> acc := (lex, r) :: !acc)
      in
      check
        (Printf.sprintf "capacity %d" capacity)
        true
        (outcome = Engine.Finished
        && Gen.same_tokens reference (List.rev !acc)))
    [ 13; 256; 65536 ]

(* ---- fd source/sink: EINTR/EAGAIN tolerance on non-blocking fds ----

   The peer runs in a thread (Unix.fork is unavailable once the parallel
   tests have spawned domains); sleeps on the peer side make the main
   side actually hit EAGAIN on its non-blocking fd. *)

let fd_payload = String.init 100_000 (fun i -> Char.chr (i land 0xff))

let drain_source s =
  let buf = Bytes.create 4096 in
  let acc = Buffer.create (String.length fd_payload) in
  let rec go () =
    let n = Source.read s buf ~pos:0 ~len:4096 in
    if n > 0 then begin
      Buffer.add_subbytes acc buf 0 n;
      go ()
    end
  in
  go ();
  Buffer.contents acc

let spawn_writer ?(delay = 0.) w =
  Thread.create
    (fun () ->
      let pos = ref 0 in
      while !pos < String.length fd_payload do
        let n = min 16384 (String.length fd_payload - !pos) in
        pos := !pos + Unix.write_substring w fd_payload !pos n;
        if delay > 0. then Thread.delay delay
      done;
      Unix.close w)
    ()

let test_source_of_fd_pipe () =
  (* Blocking pipe: plain correctness. *)
  let r, w = Unix.pipe () in
  let writer = spawn_writer w in
  let got = drain_source (Source.of_fd r) in
  Unix.close r;
  Thread.join writer;
  check "pipe content intact" true (got = fd_payload)

let test_source_of_fd_nonblocking () =
  (* Slow writer + non-blocking reader: of_fd must absorb EAGAIN instead
     of returning a spurious 0 (= EOF). *)
  let r, w = Unix.pipe () in
  let writer = spawn_writer ~delay:0.002 w in
  Unix.set_nonblock r;
  let got = drain_source (Source.of_fd r) in
  Unix.close r;
  Thread.join writer;
  check "nonblocking content intact" true (got = fd_payload)

let suite =
  [
    Alcotest.test_case "source of string" `Quick test_source_of_string;
    Alcotest.test_case "source max_per_read" `Quick test_source_max_per_read;
    Alcotest.test_case "buffered iter" `Quick test_buffered_iter;
    Alcotest.test_case "buffered streamtok" `Quick test_buffered_streamtok;
    Alcotest.test_case "source of_fd pipe" `Quick test_source_of_fd_pipe;
    Alcotest.test_case "source of_fd nonblocking" `Quick
      test_source_of_fd_nonblocking;
  ]
