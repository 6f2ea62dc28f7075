(* perfbench: one seeded benchmark through the real daemon.

   perfbench.exe --workload W --seed N --seconds S --trace 0|1
                 --daemon PATH --out DIR [--corrupt-reference] [--digest]

   --trace 0 measures the end-to-end metrics: the daemon ([streamtok
   serve], default configuration) is spawned and set up several times
   (setup_s is the median), then driven closed-loop for S seconds.
   --trace 1 measures the per-layer metrics (see layers.ml). The last
   line on stdout is the result object. *)

open Streamtok
open Common

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload W --seed N --seconds S --trace 0|1 \
     --daemon PATH --out DIR [--corrupt-reference] [--digest]";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  daemon : string;
  out : string;
  corrupt : bool;
  digest : bool;
}

let parse_args () =
  let a =
    ref
      {
        workload = "";
        seed = 1;
        seconds = 10.;
        trace = false;
        daemon = "";
        out = ".";
        corrupt = false;
        digest = false;
      }
  in
  let rec go = function
    | "--workload" :: v :: r -> a := { !a with workload = v }; go r
    | "--seed" :: v :: r -> a := { !a with seed = int_of_string v }; go r
    | "--seconds" :: v :: r -> a := { !a with seconds = float_of_string v }; go r
    | "--trace" :: v :: r -> a := { !a with trace = v = "1" }; go r
    | "--daemon" :: v :: r -> a := { !a with daemon = v }; go r
    | "--out" :: v :: r -> a := { !a with out = v }; go r
    | "--corrupt-reference" :: r -> a := { !a with corrupt = true }; go r
    | "--digest" :: r -> a := { !a with digest = true }; go r
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !a.workload = "" then usage ();
  !a

(* ---- set-up ---- *)

type running = {
  daemon : Daemon.t;
  conns : Loadgen.conn list;  (* streaming sessions, OPENed and warm *)
  setup_ns : int;
}

(* Spawn, listen, first OPEN, one warm-up pass over the documents (for
   grammar-churn: one op on the set-up grammar). *)
let setup ~tally ~exe ~dir (w : Workload.t) =
  let d = Daemon.spawn ~exe ~dir in
  let conns =
    match w.warm with
    | Some g ->
        ignore (Loadgen.churn_op ~tally ~socket:d.socket g);
        []
    | None ->
        let g = w.grammars.(0) in
        let conns = List.init Workload.connections (fun _ -> Loadgen.connect d.socket) in
        List.iter
          (fun c ->
            let _, v = Loadgen.open_session c g in
            check tally (Loadgen.verdict_ok g v) "OPEN of the workload grammar")
          conns;
        ignore (Loadgen.run_docs ~tally ~conns g (`Docs (Array.length g.docs)));
        conns
  in
  { daemon = d; conns; setup_ns = now_ns () - d.spawned_ns }

let teardown r =
  List.iter Loadgen.close r.conns;
  Daemon.stop r.daemon

(* ---- slices ---- *)

(* What one slice of the timed window did, and the time it took. *)
type slice = {
  mutable opens : float list;  (** OPEN round trips, ms *)
  mutable open_ns : int;
  mutable docs : float list;  (** document latencies, ms *)
  mutable doc_rates : float list;  (** grammar-churn: each document's MB/s *)
  mutable doc_bytes : int;
  mutable doc_ns : int;
}

let slice () =
  { opens = []; open_ns = 0; docs = []; doc_rates = []; doc_bytes = 0; doc_ns = 0 }

let add_open s ns =
  s.opens <- ms_of_ns ns :: s.opens;
  s.open_ns <- s.open_ns + ns

let add_docs s (r : Loadgen.docs_result) =
  s.docs <- List.rev_append r.latencies_ms s.docs;
  s.doc_bytes <- s.doc_bytes + r.bytes;
  s.doc_ns <- s.doc_ns + r.elapsed_ns

(* ---- churn op stream ---- *)

type churn = { mutable next : int }

(* One mix cycle of the op stream into [s]: [w.cycle] ops, each a
   cache-miss OPEN, and the tiny-vocabulary ops' documents. The stream is sized for the run; should a run outlast
   it, it starts over (a repeat is a cache miss again on a daemon that has
   not seen it). *)
let churn_cycle ~tally ~(w : Workload.t) ~socket churn s =
  for _ = 1 to w.cycle do
    if churn.next >= Array.length w.grammars then begin
      log "perfbench: grammar-churn op stream exhausted; starting over";
      churn.next <- 0
    end;
    let g = w.grammars.(churn.next) in
    churn.next <- churn.next + 1;
    let r = Loadgen.churn_op ~tally ~socket g in
    add_open s r.open_ns;
    if g.kind = "bpe-tiny" && r.doc_ns > 0 then begin
      s.docs <- List.rev_append r.doc_ms s.docs;
      s.doc_rates <- (float_of_int r.doc_bytes /. s_of_ns r.doc_ns /. 1e6) :: s.doc_rates;
      s.doc_bytes <- s.doc_bytes + r.doc_bytes;
      s.doc_ns <- s.doc_ns + r.doc_ns
    end
  done

(* ---- --trace 0 ----

   This benchmark runs on shared hosts, where a vCPU's speed moves by up
   to 1.6x with a neighbour's load, in episodes of seconds to minutes. A
   median or mean over a run lands between the two speeds and moves with
   the mix of episodes the run happened to catch, and so does the best
   moment of a run; the slow tail sits inside the contended speed, which
   every run meets, and stays put. So the window is cut into slices of
   under a second, each pinned (generator and daemons together, so a
   reply never crosses CPUs) to the next of the CPUs the run may use, and
   every timing reads the slow tail: the rates are the 10th percentile of
   the slices' rates — what the daemon sustains in the slowest tenth of
   the run — and the latencies are 90th percentiles pooled over every
   slice.

   On grammar-churn the document figures read the documents of the
   tiny-vocabulary ops. A cycle holds only milliseconds of documents, so
   each document is its own throughput sample; and as renamings of one
   vocabulary and one text they do the same work in every op and every
   seed, while a corpus grammar's document costs what the draw made it
   (one seed's draw moved doc_p90 by 1.6x). The corpus documents are
   still checked for parity.

   The window is also split into segments, each served by a daemon of its
   own that is set up, serves and is stopped, so a run spans several
   daemon processes (heap layouts, lazily built tables). A streaming
   workload has [streaming_setups] segments of [slices_per_setup] slices;
   a slice is a stretch of documents followed by its share of cache-miss
   OPENs, renamings of the workload grammar sent to a separate daemon
   that serves nothing else. On grammar-churn every segment is one mix
   cycle, one slice, so every daemon does the same work. *)

let streaming_setups = 5
let slices_per_setup = 5
let slow_pct = 10.

let end_to_end ~tally ~(args : args) (w : Workload.t) =
  let cpus = Array.of_list (affinity_cpus ()) in
  let ncpus = max 1 (Array.length cpus) in
  let window_ns = int_of_float (args.seconds *. 1e9) in
  let nslices = streaming_setups * slices_per_setup in
  let slice_ns = window_ns / nslices in
  let churn = { next = 0 } in
  let slices = ref [] and setups = ref [] and peaks = ref [] in
  let opener =
    if w.variants = [||] then None
    else Some (Daemon.spawn ~exe:args.daemon ~dir:args.out)
  in
  let k = ref 0 and cursor = ref 0 in
  (* slice [!k] runs on the k-th CPU, round robin *)
  let pin_slice pids =
    if Array.length cpus > 0 then
      List.iter (fun pid -> ignore (pin pid cpus.(!k mod ncpus))) (0 :: pids)
  in
  let open_variant d i =
    let g = w.variants.(i) in
    let c = Loadgen.connect d.Daemon.socket in
    let dt, v = Loadgen.open_session c g in
    check tally (Loadgen.verdict_ok g v) "OPEN of a renamed grammar";
    Loadgen.close c;
    dt
  in
  (* one segment: set up a daemon, run [body] on it, stop it *)
  let segment body =
    pin_slice [];
    let r = setup ~tally ~exe:args.daemon ~dir:args.out w in
    setups := s_of_ns r.setup_ns :: !setups;
    body r;
    peaks := Daemon.peak_rss_mb r.daemon :: !peaks;
    teardown r
  in
  (match opener with
  | Some d ->
      for _ = 1 to streaming_setups do
        segment (fun r ->
            for _ = 1 to slices_per_setup do
              pin_slice [ r.daemon.pid; d.Daemon.pid ];
              let s = slice () in
              add_docs s
                (Loadgen.run_docs ~tally ~conns:r.conns ~cursor w.grammars.(0)
                   (`Until (now_ns () + slice_ns)));
              let n = Array.length w.variants in
              for v = !k * n / nslices to ((!k + 1) * n / nslices) - 1 do
                add_open s (open_variant d v)
              done;
              slices := s :: !slices;
              incr k
            done)
      done
  | None ->
      let spent = ref 0 in
      while !k = 0 || !spent < window_ns do
        segment (fun r ->
            let s = slice () and t0 = now_ns () in
            churn_cycle ~tally ~w ~socket:r.daemon.socket churn s;
            spent := !spent + (now_ns () - t0);
            slices := s :: !slices;
            incr k)
      done);
  Option.iter Daemon.stop opener;
  let docs = List.concat_map (fun s -> s.docs) !slices in
  let opens = List.concat_map (fun s -> s.opens) !slices in
  log "perfbench: %s seed %d: %d documents, %d opens, %d slices on %d CPUs, %d set-ups"
    w.name w.seed (List.length docs) (List.length opens) (List.length !slices) ncpus
    (List.length !setups);
  let slow_rate count ns =
    percentile slow_pct
      (List.filter_map
         (fun s ->
           if ns s > 0 then Some (float_of_int (count s) /. s_of_ns (ns s)) else None)
         !slices)
  in
  let throughput =
    match opener with
    | Some _ -> slow_rate (fun s -> s.doc_bytes) (fun s -> s.doc_ns) /. 1e6
    | None -> percentile slow_pct (List.concat_map (fun s -> s.doc_rates) !slices)
  in
  [
    metric "throughput_mb_s" "MB/s" throughput;
    metric "doc_p90_ms" "ms" (percentile 90. docs);
    metric "opens_per_s" "1/s"
      (slow_rate (fun s -> List.length s.opens) (fun s -> s.open_ns));
    metric "open_p90_ms" "ms" (percentile 90. opens);
    metric "setup_s" "s" (median !setups);
    metric "peak_rss_mb" "MB" (median !peaks);
  ]

(* ---- --trace 1 ---- *)

(* The traced run stays on one CPU (the last the run may use), so the
   in-process layers and the daemon passes it compares them with share
   one CPU's speed. *)
let traced ~tally ~(args : args) (w : Workload.t) =
  (match List.rev (affinity_cpus ()) with
  | cpu :: _ -> ignore (pin 0 cpu)
  | [] -> ());
  Trace.configure ~capacity_events:65536;
  Trace.reset ();
  let cache = Engine_cache.create () in
  let item (g : Workload.grammar) =
    let rules, max_states =
      match g.source with
      | Workload.Spec s -> (Workload.resolve_rules s, None)
      | Workload.Vocab v ->
          (Bpe.Compiler.rules_of_vocab v, Some Bpe.Compiler.default_max_states)
    in
    match Engine_cache.find_or_compile cache ?max_states rules with
    | Error _ -> failwith "perfbench: bounded grammar failed to compile"
    | Ok engine ->
        let lb = Serve.Loopback.create () in
        let lbc = Serve.Loopback.connect lb in
        Serve.Loopback.send lbc g.request;
        Serve.Loopback.run lb;
        ignore (Serve.Loopback.replies lbc);
        { Layers.g; engine; lb; lbc }
  in
  let r = setup ~tally ~exe:args.daemon ~dir:args.out w in
  let churn = { next = 0 } in
  let compile_set, items, e2e_pass =
    match w.warm with
    | None ->
        let g = w.grammars.(0) in
        let pass () =
          let res =
            Loadgen.run_docs ~tally ~conns:r.conns g
              (`Docs (Array.length g.docs))
          in
          (res.elapsed_ns, res.bytes)
        in
        ([ g ], [ item g ], pass)
    | Some _ ->
        (* the first mix cycle is the in-process layers' sample; each
           end-to-end pass draws the next cycle of fresh cache-miss ops *)
        let first_cycle = Array.to_list (Array.sub w.grammars 0 w.cycle) in
        let bounded = List.filter (fun (g : Workload.grammar) -> g.bounded) first_cycle in
        churn.next <- w.cycle;
        let pass () =
          let s = slice () and t0 = now_ns () in
          churn_cycle ~tally ~w ~socket:r.daemon.socket churn s;
          (now_ns () - t0, s.doc_bytes)
        in
        (first_cycle, List.map item bounded, pass)
  in
  let out_prefix = Filename.concat args.out w.name in
  let layer_metrics =
    Layers.run ~tally ~seconds:args.seconds ~compile_set ~items ~cache ~e2e_pass
      ~daemon_stats:(fun () -> Loadgen.stats r.daemon.socket)
      ~out_prefix
  in
  let daemon_peak = Daemon.peak_rss_mb r.daemon in
  teardown r;
  let fail_pct =
    100. *. float_of_int tally.failed /. float_of_int (max 1 tally.attempted)
  in
  layer_metrics
  @ [
      metric "client.fail_pct" "%" fail_pct;
      metric "daemon.peak_rss_mb" "MB" daemon_peak;
      metric "bench.peak_rss_mb" "MB" (peak_rss_mb "self");
    ]

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let args = parse_args () in
  let w = Workload.make ~name:args.workload ~seed:args.seed ~seconds:args.seconds in
  if args.digest then print_endline (Workload.input_digest w)
  else begin
    if args.corrupt then Workload.corrupt_reference w;
    if not (Sys.file_exists args.out) then Sys.mkdir args.out 0o755;
    let tally = Common.tally () in
    let metrics =
      if args.trace then traced ~tally ~args w else end_to_end ~tally ~args w
    in
    print_endline (result_json ~correct:(tally.failed = 0) tally metrics)
  end
