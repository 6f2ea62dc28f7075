open St_obs
open St_streamtok

type worker = {
  idx : int;
  queue : Unix.file_descr Queue.t;  (* handoff queue, filled by [inject] *)
  mu : Mutex.t;  (* guards [queue] *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable published : Metrics.Registry.t option;  (* guarded by pool.pub_mu *)
  mutable domain : unit Domain.t option;
}

type t = {
  cfg : Server.config;
  cache : Engine_cache.t;  (* one locked cache for every worker *)
  started : float;
  workers : worker array;
  stop_flag : bool Atomic.t;
  pub_mu : Mutex.t;
  mutable rr : int;  (* round-robin handoff cursor *)
}

let wake_byte = Bytes.make 1 '!'

(* A full pipe means a wakeup is already pending — dropping the byte is
   exactly as good as writing it. *)
let wake w =
  try ignore (Unix.write w.wake_w wake_byte 0 1)
  with
  | Unix.Unix_error
      ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.EPIPE), _, _)
  ->
    ()

(* One STATS document from worker snapshots: fold them with one merge,
   then append the pool-level values, read once here. *)
let render pool = function
  | [] -> None
  | first :: rest ->
      let r = Metrics.Registry.copy first in
      List.iter (Metrics.Registry.merge r) rest;
      Server.add_pool_metrics r ~cache:pool.cache
        ~uptime:(pool.cfg.Server.clock () -. pool.started);
      Some r

(* The calling worker's live snapshot plus every other worker's last
   published one (at most ~50 ms + one select round stale). *)
let snapshots pool ?self () =
  Mutex.lock pool.pub_mu;
  let snaps =
    Array.to_list pool.workers
    |> List.filter_map (fun w ->
           match self with
           | Some (idx, own) when idx = w.idx -> Some own
           | _ -> w.published)
  in
  Mutex.unlock pool.pub_mu;
  snaps

let stats pool = render pool (snapshots pool ())

(* Worker 0 of a daemon also owns the listener and hands accepted fds
   off round-robin. A [should_stop] predicate is polled every round,
   which is then capped at 50 ms; without one, signals call [stop]. *)
type listening = {
  l : Io_loop.listener;
  should_stop : (unit -> bool) option;
}

let inject pool fd =
  let w = pool.workers.(pool.rr mod Array.length pool.workers) in
  pool.rr <- pool.rr + 1;
  Mutex.lock w.mu;
  Queue.push fd w.queue;
  Mutex.unlock w.mu;
  wake w

let stop pool =
  Atomic.set pool.stop_flag true;
  Array.iter wake pool.workers

let worker_loop ?listening pool w =
  let srv = Server.create ~cache:pool.cache ~config:pool.cfg () in
  Server.set_stats_hook srv (fun () ->
      Option.get
        (render pool (snapshots pool ~self:(w.idx, Server.snapshot srv) ())));
  let core = Io_loop.Core.create srv in
  let clock = pool.cfg.Server.clock in
  let max_timeout =
    match listening with
    | Some { should_stop = Some _; _ } -> 0.05
    | _ -> 0.25
  in
  let wbuf = Bytes.create 64 in
  let last_pub = ref neg_infinity in
  let publish ~force =
    let now = clock () in
    if force || now -. !last_pub >= 0.05 then begin
      last_pub := now;
      let snap = Server.snapshot srv in
      Mutex.lock pool.pub_mu;
      w.published <- Some snap;
      Mutex.unlock pool.pub_mu
    end
  in
  let drain_queue () =
    Mutex.lock w.mu;
    let fds = ref [] in
    while not (Queue.is_empty w.queue) do
      fds := Queue.pop w.queue :: !fds
    done;
    Mutex.unlock w.mu;
    List.iter (Io_loop.Core.register core) (List.rev !fds)
  in
  let drain_wakeup () =
    let continue = ref true in
    while !continue do
      match Unix.read w.wake_r wbuf 0 (Bytes.length wbuf) with
      | n -> if n < Bytes.length wbuf then continue := false
      | exception
          Unix.Unix_error
            ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
          continue := false
    done
  in
  (* the accepting worker keeps its own share of connections directly *)
  let handoff fd =
    let n = Array.length pool.workers in
    if pool.rr mod n = w.idx then begin
      pool.rr <- pool.rr + 1;
      Io_loop.Core.register core fd
    end
    else inject pool fd
  in
  publish ~force:true;
  let finished = ref false in
  while not !finished do
    (match listening with
    | Some { should_stop = Some f; _ } when f () -> stop pool
    | _ -> ());
    if Atomic.get pool.stop_flag && not (Server.draining srv) then begin
      Option.iter (fun { l; _ } -> Io_loop.close_listener l) listening;
      (* adopt handoffs still queued so they get the drain reply too *)
      drain_queue ();
      Server.drain srv
    end;
    if Server.draining srv && Server.live_conns srv = 0 then finished := true
    else begin
      let lfds =
        match listening with
        | Some { l; _ } -> Io_loop.watch l ~now:(clock ())
        | None -> []
      in
      let ready =
        Io_loop.Core.iterate core ~extra:(w.wake_r :: lfds) ~max_timeout
      in
      if List.memq w.wake_r ready then begin
        drain_wakeup ();
        drain_queue ()
      end;
      (match listening with
      | Some { l; _ } when List.exists (fun fd -> List.memq fd ready) lfds ->
          Io_loop.Core.accept core l ~handoff
      | _ -> ());
      publish ~force:false
    end
  done;
  publish ~force:true

(* The pool without its domains: callers decide which workers get one. *)
let make_pool ~config ~domains =
  (* a worker writing to a freshly-dead client must not kill the process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workers =
    Array.init (max 1 domains) (fun idx ->
        let wake_r, wake_w = Unix.pipe ~cloexec:true () in
        Unix.set_nonblock wake_r;
        Unix.set_nonblock wake_w;
        {
          idx;
          queue = Queue.create ();
          mu = Mutex.create ();
          wake_r;
          wake_w;
          published = None;
          domain = None;
        })
  in
  {
    cfg = config;
    cache = Engine_cache.create ~max_entries:config.Server.cache_entries ();
    started = config.Server.clock ();
    workers;
    stop_flag = Atomic.make false;
    pub_mu = Mutex.create ();
    rr = 0;
  }

let spawn pool w =
  w.domain <- Some (Domain.spawn (fun () -> worker_loop pool w))

let create_pool ?(config = Server.default_config) ~domains () =
  let pool = make_pool ~config ~domains in
  Array.iter (spawn pool) pool.workers;
  pool

let domains pool = Array.length pool.workers

let join pool =
  Array.iter
    (fun w ->
      (match w.domain with
      | Some d ->
          Domain.join d;
          w.domain <- None
      | None -> ());
      (try Unix.close w.wake_r with Unix.Unix_error _ -> ());
      try Unix.close w.wake_w with Unix.Unix_error _ -> ())
    pool.workers

let serve ?(config = Server.default_config) ?(on_listening = fun () -> ())
    ?should_stop ~domains ~socket () =
  let domains = max 1 domains in
  if config.Server.max_sessions * domains >= Io_loop.fd_setsize then
    invalid_arg
      (Printf.sprintf
         "max-sessions %d x %d domains must stay below FD_SETSIZE (%d)"
         config.Server.max_sessions domains Io_loop.fd_setsize);
  let l = Io_loop.listen ~socket in
  let pool = make_pool ~config ~domains in
  if should_stop = None then begin
    let handler = Sys.Signal_handle (fun _ -> stop pool) in
    Sys.set_signal Sys.sigterm handler;
    Sys.set_signal Sys.sigint handler
  end;
  Array.iteri (fun i w -> if i > 0 then spawn pool w) pool.workers;
  on_listening ();
  Fun.protect
    ~finally:(fun () ->
      Io_loop.close_listener l;
      stop pool;
      join pool)
    (fun () -> worker_loop ~listening:{ l; should_stop } pool pool.workers.(0))
