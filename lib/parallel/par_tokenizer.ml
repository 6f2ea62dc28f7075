open St_streamtok
module V = St_util.Int_vec

type stats = {
  segments : int;
  spliced : int;
  caught_up : int;
  sync_tokens : int;
  speculative_tokens : int;
  emitted_tokens : int;
}

(* A worker's speculative result: token spans starting in (roughly) its
   segment, and how its run ended. *)
type segment = {
  seg_start : int;  (* segment base offset (speculation starts here) *)
  seg_limit : int;  (* next segment's base *)
  pos_v : V.t;
  len_v : V.t;
  rule_v : V.t;
}

exception Stop

(* Trace probes: speculation spans land in each worker domain's own ring
   (per-domain tid), so a Perfetto view shows the parallel phase as
   overlapping tracks; the splice span lives on the calling domain. *)
let p_speculate = St_trace.Trace.probe ~cat:"par" "par.speculate"
let p_splice = St_trace.Trace.probe ~cat:"par" "par.splice"

(* Speculatively tokenize [s] from [seg_start], recording spans until a
   token ends at or past [seg_limit] (that last spilling token is still
   recorded: the splice needs spans that cross the boundary). *)
let speculate engine s seg_start seg_limit =
  St_trace.Trace.with_span p_speculate @@ fun () ->
  let seg =
    {
      seg_start;
      seg_limit;
      pos_v = V.create ~capacity:1024 ();
      len_v = V.create ~capacity:1024 ();
      rule_v = V.create ~capacity:1024 ();
    }
  in
  (try
     ignore
       (Engine.run_string ~from:seg_start engine s ~emit:(fun ~pos ~len ~rule ->
            V.push seg.pos_v pos;
            V.push seg.len_v len;
            V.push seg.rule_v rule;
            if pos + len >= seg_limit then raise Stop))
   with Stop -> ());
  seg

(* Binary search for a span with start = target; spans starts are strictly
   increasing. *)
let find_span seg target =
  let lo = ref 0 and hi = ref (V.length seg.pos_v - 1) in
  let found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let p = V.get seg.pos_v mid in
    if p = target then begin
      found := mid;
      lo := !hi + 1
    end
    else if p < target then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let tokenize ?num_domains ?(min_input_bytes = 4096) engine s ~emit =
  let n = String.length s in
  let p =
    match num_domains with
    | Some p -> max 1 p
    | None -> min 8 (Domain.recommended_domain_count ())
  in
  if p = 1 || n < max 1 min_input_bytes then begin
    (* not worth cutting; still report stats *)
    let count = ref 0 in
    let outcome =
      Engine.run_string engine s ~emit:(fun ~pos ~len ~rule ->
          incr count;
          emit ~pos ~len ~rule)
    in
    ( outcome,
      {
        segments = 1;
        spliced = 0;
        caught_up = 0;
        sync_tokens = 0;
        speculative_tokens = !count;
        emitted_tokens = !count;
      } )
  end
  else begin
    let bounds = Array.init (p + 1) (fun i -> i * n / p) in
    (* workers 1..p-1 speculate in parallel; worker 0's prefix is
       authoritative by construction, so the splice thread computes it *)
    let spawned =
      Array.init (p - 1) (fun j ->
          let i = j + 1 in
          Domain.spawn (fun () -> speculate engine s bounds.(i) bounds.(i + 1)))
    in
    let seg0 = speculate engine s 0 bounds.(1) in
    let segments = Array.make p seg0 in
    Array.iteri (fun j d -> segments.(j + 1) <- Domain.join d) spawned;
    (* splice *)
    let emitted = ref 0 in
    let spliced = ref 0 in
    let caught_up = ref 0 in
    let sync_tokens = ref 0 in
    let e = ref 0 in
    (* next authoritative token start *)
    let failed = ref None in
    let emit_span pos len rule =
      emit ~pos ~len ~rule;
      incr emitted;
      e := pos + len
    in
    (* adopt worker spans from index [idx] while they start before [limit] *)
    let adopt seg idx limit =
      let i = ref idx in
      let count = V.length seg.pos_v in
      while !i < count && V.get seg.pos_v !i < limit do
        emit_span (V.get seg.pos_v !i) (V.get seg.len_v !i) (V.get seg.rule_v !i);
        incr i
      done
    in
    (* sequential catch-up from !e until the authoritative token boundary
       coincides with one of worker i's speculative span starts — bounded
       lookahead makes this re-synchronization fast — then adopt the rest
       of the worker's spans; or until !e reaches [limit] *)
    let catch_up seg limit =
      if !e < limit && !failed = None then begin
        let adopted = ref false in
        let stopped = ref false in
        (match
           Engine.run_string ~from:!e engine s ~emit:(fun ~pos ~len ~rule ->
               emit_span pos len rule;
               incr sync_tokens;
               if !e >= limit then begin
                 stopped := true;
                 raise Stop
               end;
               let idx = find_span seg !e in
               if idx >= 0 then begin
                 adopted := true;
                 adopt seg idx limit;
                 stopped := true;
                 raise Stop
               end)
         with
        | exception Stop -> ()
        | Engine.Finished ->
            (* ran to EOS: everything was emitted along the way *)
            ()
        | Engine.Failed { offset; _ } ->
            if not !stopped then failed := Some offset);
        if !adopted then incr spliced else incr caught_up
      end
    in
    (* segment 0 is authoritative from position 0 *)
    St_trace.Trace.begin_span p_splice;
    adopt seg0 0 bounds.(1);
    (* seg0 may have stopped early at a failure; in that case !e stays short
       of bounds.(1) and the first catch_up below re-scans and reports it *)
    for i = 1 to p - 1 do
      if !failed = None then begin
        let seg = segments.(i) in
        let limit = bounds.(i + 1) in
        if !e >= limit then () (* a long token already covers this segment *)
        else begin
          let idx = if !e >= seg.seg_start then find_span seg !e else -1 in
          if idx >= 0 then begin
            incr spliced;
            adopt seg idx limit
          end
          else catch_up seg limit
        end
      end
    done;
    (* tail: tokens past the last boundary *)
    if !failed = None && !e < n then begin
      match
        Engine.run_string ~from:!e engine s ~emit:(fun ~pos ~len ~rule ->
            emit_span pos len rule)
      with
      | Engine.Finished -> ()
      | Engine.Failed { offset; _ } -> failed := Some offset
    end;
    St_trace.Trace.end_span p_splice;
    let speculative_tokens =
      Array.fold_left (fun acc seg -> acc + V.length seg.pos_v) 0 segments
    in
    let outcome =
      match !failed with
      | Some offset ->
          Engine.Failed
            { offset; pending = String.sub s offset (n - offset) }
      | None ->
          if !e < n then
            Engine.Failed
              { offset = !e; pending = String.sub s !e (n - !e) }
          else Engine.Finished
    in
    ( outcome,
      {
        segments = p;
        spliced = !spliced;
        caught_up = !caught_up;
        sync_tokens = !sync_tokens;
        speculative_tokens;
        emitted_tokens = !emitted;
      } )
  end
