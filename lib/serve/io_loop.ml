(* io.read wraps the syscall plus the decode/session/flush work done in
   Server.on_data, which nests its own spans inside; io.write is the
   flush syscall side. Both are per-select-readiness, not per-byte. *)
let p_read = St_trace.Trace.probe ~cat:"io" "io.read"
let p_write = St_trace.Trace.probe ~cat:"flush" "io.write"

(* glibc's fd_set size: [Unix.select] raises EINVAL on any fd at or
   above it, so such an fd must never reach [select]. *)
let fd_setsize = 1024

(* A file descriptor is its int on Unix. *)
let fd_number (fd : Unix.file_descr) : int = Obj.magic fd

let rec select_eintr r w e timeout =
  try Unix.select r w e timeout
  with Unix.Unix_error (Unix.EINTR, _, _) -> select_eintr r w e timeout

let bind ~socket =
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.bind listen_fd (Unix.ADDR_UNIX socket)
   with Unix.Unix_error (Unix.EADDRINUSE, _, _) ->
     (* A previous daemon's socket file. Refuse to steal a live one. *)
     let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
     let live =
       try
         Unix.connect probe (Unix.ADDR_UNIX socket);
         Unix.close probe;
         true
       with Unix.Unix_error _ ->
         Unix.close probe;
         false
     in
     if live then begin
       Unix.close listen_fd;
       raise (Unix.Unix_error (Unix.EADDRINUSE, "bind", socket))
     end
     else begin
       Unix.unlink socket;
       Unix.bind listen_fd (Unix.ADDR_UNIX socket)
     end);
  Unix.listen listen_fd 64;
  Unix.set_nonblock listen_fd;
  listen_fd

(* The reserve fd is held so that, at EMFILE/ENFILE, one fd can be
   freed to accept a pending connection and answer it, instead of
   leaving it in the backlog with the listener readable forever. *)
let open_reserve () =
  try Some (Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0)
  with Unix.Unix_error _ -> None

type listener = {
  lfd : Unix.file_descr;
  socket : string;
  mutable reserve : Unix.file_descr option;
  mutable paused_until : float;  (* accept gave up; retry after this *)
  mutable closed : bool;
}

let listen ~socket =
  let lfd = bind ~socket in
  { lfd; socket; reserve = open_reserve (); paused_until = 0.0; closed = false }

let close_listener l =
  if not l.closed then begin
    l.closed <- true;
    (try Unix.close l.lfd with Unix.Unix_error _ -> ());
    (try Unix.unlink l.socket with Unix.Unix_error _ | Sys_error _ -> ());
    Option.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      l.reserve;
    l.reserve <- None
  end

let watch l ~now = if l.closed || now < l.paused_until then [] else [ l.lfd ]

module Core = struct
  type t = {
    srv : Server.t;
    fd_of_id : (Server.conn_id, Unix.file_descr) Hashtbl.t;
    id_of_fd : (Unix.file_descr, Server.conn_id) Hashtbl.t;
    rbuf : Bytes.t;
    vecs : (Bytes.t * int * int) array;  (* writev gather scratch *)
  }

  let create srv =
    {
      srv;
      fd_of_id = Hashtbl.create 32;
      id_of_fd = Hashtbl.create 32;
      rbuf = Bytes.create 65536;
      vecs = Array.make 3 (Bytes.empty, 0, 0);
    }

  (* Best effort: a fresh socket's send buffer takes the small frame
     whole; a client that already hung up just misses it. *)
  let refuse t fd message =
    let frame = Server.refusal t.srv ~message in
    (try
       Unix.set_nonblock fd;
       ignore (Unix.write_substring fd frame 0 (String.length frame))
     with Unix.Unix_error _ -> ());
    try Unix.close fd with Unix.Unix_error _ -> ()

  let register t fd =
    if fd_number fd >= fd_setsize then
      refuse t fd
        (Printf.sprintf "fd %d is over the select limit %d; retry later"
           (fd_number fd) fd_setsize)
    else begin
      Unix.set_nonblock fd;
      let id = Server.on_connect t.srv in
      Hashtbl.replace t.fd_of_id id fd;
      Hashtbl.replace t.id_of_fd fd id
    end

  let drop_conn t ~eof id =
    match Hashtbl.find_opt t.fd_of_id id with
    | None -> ()
    | Some fd ->
        Hashtbl.remove t.fd_of_id id;
        Hashtbl.remove t.id_of_fd fd;
        (try Unix.close fd with Unix.Unix_error _ -> ());
        if eof then Server.on_eof t.srv id else Server.on_closed t.srv id

  let read_conn t fd id =
    St_trace.Trace.begin_span p_read;
    (match Unix.read fd t.rbuf 0 (Bytes.length t.rbuf) with
    | 0 -> drop_conn t ~eof:true id
    | n -> Server.on_data t.srv id t.rbuf ~pos:0 ~len:n
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        drop_conn t ~eof:true id);
    St_trace.Trace.end_span p_read

  (* The gathered flush: out queue + deferred batch frame in one
     writev; a long-running daemon should never die on a write errno, so
     unknown errors also just drop the connection. *)
  let write_conn t fd id =
    St_trace.Trace.begin_span p_write;
    (let k = Server.out_vectors t.srv id t.vecs in
     if k > 0 then
       match Writev.write fd t.vecs k with
       | Writev.Written n -> Server.out_vec_consume t.srv id n
       | Writev.Retry -> ()
       | Writev.Closed | Writev.Error _ -> drop_conn t ~eof:true id);
    St_trace.Trace.end_span p_write

  (* One select round: build the fd sets from the server's backpressure
     and pending-output queries (plus [extra] — a listener or a wakeup
     pipe, whose readiness is returned to the caller), dispatch reads
     and writes, complete drain-closes, tick. *)
  let iterate t ~extra ~max_timeout =
    let reads = ref extra in
    let writes = ref [] in
    List.iter
      (fun id ->
        match Hashtbl.find_opt t.fd_of_id id with
        | None -> ()
        | Some fd ->
            if Server.wants_read t.srv id then reads := fd :: !reads;
            if Server.out_pending t.srv id > 0 then writes := fd :: !writes)
      (Server.conn_ids t.srv);
    let timeout =
      let cfg = Server.config t.srv in
      let now = cfg.Server.clock () in
      match Server.next_deadline t.srv with
      | Some dl -> Float.max 0.01 (Float.min max_timeout (dl -. now))
      | None -> max_timeout
    in
    let readable, writable, _ = select_eintr !reads !writes [] timeout in
    List.iter
      (fun fd ->
        if not (List.memq fd extra) then
          match Hashtbl.find_opt t.id_of_fd fd with
          | Some id -> read_conn t fd id
          | None -> ())
      readable;
    List.iter
      (fun fd ->
        match Hashtbl.find_opt t.id_of_fd fd with
        | Some id -> if Hashtbl.mem t.fd_of_id id then write_conn t fd id
        | None -> ())
      writable;
    (* complete drain-closes whose output queues emptied *)
    List.iter
      (fun id ->
        if Hashtbl.mem t.fd_of_id id && Server.should_close t.srv id then
          drop_conn t ~eof:false id)
      (Server.conn_ids t.srv);
    Server.on_tick t.srv;
    List.filter (fun fd -> List.memq fd readable) extra

  (* Drain the listener's backlog, handing each connection to [handoff].
     Out of fds, the reserve is spent on accepting one pending
     connection just to refuse it, then reopened; if even that fails the
     listener is left out of [select] for a moment rather than spun on. *)
  let accept t l ~handoff =
    let pause () =
      l.paused_until <- (Server.config t.srv).Server.clock () +. 0.1
    in
    let continue = ref true in
    while !continue do
      match Unix.accept ~cloexec:true l.lfd with
      | fd, _ -> handoff fd
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          continue := false
      | exception
          Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED | Unix.EPERM), _, _)
        ->
          ()
      | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE) as e, _, _) -> (
          match l.reserve with
          | None ->
              pause ();
              continue := false
          | Some r ->
              Unix.close r;
              l.reserve <- None;
              (match Unix.accept ~cloexec:true l.lfd with
              | fd, _ ->
                  refuse t fd
                    (Printf.sprintf "daemon out of fds (%s); retry later"
                       (Unix.error_message e))
              | exception Unix.Unix_error _ ->
                  pause ();
                  continue := false);
              l.reserve <- open_reserve ())
    done
end
