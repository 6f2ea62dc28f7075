(* The system under test: [streamtok serve] in its default configuration,
   a separate process reached over an AF_UNIX socket. *)

open Common

type t = {
  pid : int;
  socket : string;
  out : Unix.file_descr;  (* the daemon's stdout *)
  spawned_ns : int;
}

let live : t list ref = ref []

(* [stop t] asks the daemon to drain (SIGTERM), waits for it to exit
   (SIGKILL after 5 s) and removes its socket. *)
let stop t =
  if List.memq t !live then begin
    live := List.filter (fun d -> d != t) !live;
    (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
    (* the daemon notices SIGTERM when its select loop wakes; a connection
       wakes it now instead of at the next 1 s timeout *)
    (try
       let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
       Fun.protect
         ~finally:(fun () -> Unix.close fd)
         (fun () -> Unix.connect fd (Unix.ADDR_UNIX t.socket))
     with Unix.Unix_error _ -> ());
    let deadline = Unix.gettimeofday () +. 5. in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] t.pid with
      | 0, _ when Unix.gettimeofday () < deadline ->
          Unix.sleepf 0.005;
          wait ()
      | 0, _ ->
          (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] t.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    wait ();
    (try Unix.close t.out with Unix.Unix_error _ -> ());
    try Sys.remove t.socket with Sys_error _ -> ()
  end

let () = at_exit (fun () -> List.iter stop !live)

let counter = ref 0

(* Spawn the daemon and wait until it prints its listening line. *)
let spawn ~exe ~dir =
  incr counter;
  let socket =
    Filename.concat dir (Printf.sprintf "d%d-%d.sock" (Unix.getpid ()) !counter)
  in
  (try Sys.remove socket with Sys_error _ -> ());
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let spawned_ns = now_ns () in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--socket"; socket |]
      null out_w Unix.stderr
  in
  Unix.close null;
  Unix.close out_w;
  let t = { pid; socket; out = out_r; spawned_ns } in
  live := t :: !live;
  (* "listening on PATH\n" *)
  let buf = Bytes.create 256 in
  let seen = Buffer.create 64 in
  let deadline = Unix.gettimeofday () +. 30. in
  let rec await () =
    if String.contains (Buffer.contents seen) '\n' then ()
    else if Unix.gettimeofday () > deadline then begin
      stop t;
      failwith "perfbench: daemon did not start listening within 30 s"
    end
    else
      match Unix.select [ out_r ] [] [] 0.5 with
      | [], _, _ -> await ()
      | _ -> (
          match Unix.read out_r buf 0 (Bytes.length buf) with
          | 0 ->
              stop t;
              failwith "perfbench: daemon exited before listening"
          | n ->
              Buffer.add_subbytes seen buf 0 n;
              await ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> await ()
  in
  await ();
  t

let peak_rss_mb t = Common.peak_rss_mb (string_of_int t.pid)
