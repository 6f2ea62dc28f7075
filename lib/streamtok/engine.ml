open St_automata
module Bits = St_util.Bits
module Tnd = St_analysis.Tnd

type mode =
  | Table_k1 of Bytes.t
      (* Fig. 5: [q * (num_classes + 1) + class] = '\001' iff the token
         ending at final state [q] is maximal given a next symbol of that
         equivalence class (last column = EOF). *)
  | Te of Te_dfa.t (* Fig. 6 *)

type t = { dfa : Dfa.t; k : int; reject : bool array; mode : mode }

type error = Unbounded_tnd

let k e = e.k
let dfa e = e.dfa
let te_states e = match e.mode with Table_k1 _ -> 0 | Te te -> Te_dfa.num_states te

(* Lookahead bytes the streaming kernel carries across a chunk boundary:
   the max(K, 1) bytes the lookahead has read and the tokenization DFA has
   not. *)
let lookahead_buffer_bytes e = max e.k 1

let k1_table_bytes e =
  match e.mode with Table_k1 tbl -> Bytes.length tbl | Te _ -> 0

let footprint_bytes e =
  (* classed transition table + accept row, plus the 256-byte classmap that
     every lookup goes through, plus the skip accelerator's arrays *)
  let dfa_bytes =
    ((Array.length e.dfa.Dfa.trans + Array.length e.dfa.Dfa.accept) * 8)
    + 256
    + Accel.bytes e.dfa.Dfa.accel
  in
  let mode_bytes =
    match e.mode with
    | Table_k1 tbl -> Bytes.length tbl
    | Te te -> Te_dfa.bytes te
  in
  dfa_bytes + mode_bytes + lookahead_buffer_bytes e + 64

let build_k1_table d =
  let n = Dfa.size d in
  let nc = Dfa.num_classes d in
  let kw = nc + 1 in
  let tbl = Bytes.make (n * kw) '\000' in
  for q = 0 to n - 1 do
    if Dfa.is_final d q then begin
      for c = 0 to nc - 1 do
        if not (Dfa.is_final d (Dfa.step_class d q c)) then
          Bytes.set tbl ((q * kw) + c) '\001'
      done;
      (* at EOF nothing can extend the token *)
      Bytes.set tbl ((q * kw) + nc) '\001'
    end
  done;
  tbl

type compile_stats = {
  dfa_states : int;
  max_tnd : St_analysis.Tnd.result;
  analysis_seconds : float;
  build_seconds : float;
  te_states : int;
  k1_table_bytes : int;
  footprint_bytes : int;
}

(* The engine tables for a DFA whose max-TND is [k]. The token-extension
   DFA is correct for any lookahead ≥ max-TND, so forcing it on a K ≤ 1
   grammar (ablation) uses K = 1. [coacc] is the analysis's
   co-accessible set. *)
let build d ~coacc ~k ~force_te =
  let reject = Array.init (Dfa.size d) (fun q -> not (Bits.mem coacc q)) in
  let mode =
    if k <= 1 && not force_te then Table_k1 (build_k1_table d)
    else Te (Te_dfa.build ~coacc d ~k:(max k 1))
  in
  { dfa = d; k; reject; mode }

(* The analysis runs on [d] as given; [finish] turns it into the engine's
   DFA only once the grammar is admitted, so a rejected grammar pays for
   nothing after its verdict. *)
let admit ~finish ?(force_te = false) d =
  let (coacc, result), analysis_seconds =
    St_util.Timer.time_it (fun () ->
        let coacc = Dfa.co_accessible d in
        (coacc, Tnd.max_tnd ~coacc d))
  in
  match result with
  | Tnd.Infinite -> Error Unbounded_tnd
  | Tnd.Finite k ->
      let e, build_seconds =
        St_util.Timer.time_it (fun () -> build (finish d) ~coacc ~k ~force_te)
      in
      Ok
        ( e,
          {
            dfa_states = Dfa.size d;
            max_tnd = result;
            analysis_seconds;
            build_seconds;
            te_states = te_states e;
            k1_table_bytes = k1_table_bytes e;
            footprint_bytes = footprint_bytes e;
          } )

let compile_timed ?force_te d = admit ~finish:Fun.id ?force_te d
let compile ?force_te d = Result.map fst (compile_timed ?force_te d)

(* Bare tables through the analysis, the accelerator attached after it. *)
let compile_rules ?max_states rules =
  Result.map fst
    (admit
       ~finish:(Dfa.attach Accel.Swar)
       (Dfa.of_rules ~accel:Accel.Off ?max_states rules))

let compile_grammar src = compile_rules (St_regex.Parser.parse_grammar src)

let equal a b =
  Dfa.equal a.dfa b.dfa && a.k = b.k && a.reject = b.reject
  &&
  match (a.mode, b.mode) with
  | Table_k1 x, Table_k1 y -> Bytes.equal x y
  | Te x, Te y -> Te_dfa.equal x y
  | _ -> false

let accel_states e = Accel.flagged_count e.dfa.Dfa.accel
let accel_swar_states e = Accel.swar_count e.dfa.Dfa.accel

type outcome = Finished | Failed of { offset : int; pending : string }

let outcome_equal a b =
  match (a, b) with
  | Finished, Finished -> true
  | Failed { offset = o1; pending = p1 }, Failed { offset = o2; pending = p2 }
    ->
      o1 = o2 && String.equal p1 p2
  | _ -> false

(* ---- The kernel: one Fig. 5 loop and one Fig. 6 loop ----

   A cursor is one stream's state. Tokens go out as slices
   [emit buf pos len rule]: [buf] is the caller's chunk whenever the token
   lies inside it, and the carry buffer only for a token that straddles a
   chunk boundary. A slice is valid only during the callback.

   The tokenization DFA (A) lags the lookahead (B) by [delay = max K 1]
   bytes: A consumes byte [j] once byte [j + delay] has been fed, or at end
   of stream. Between chunks the carry holds the stream bytes
   [tok, fed): the open token's prefix, whose tail is the ≤ delay bytes B
   has read and A has not. Nothing else is buffered, so in the steady state
   a chunk costs one short copy at its end; both cursors otherwise run over
   the chunk itself, exactly as over one string.

   Failure is detected lazily, once per chunk: a reject state can never
   become final again, so no token can be emitted past the byte that killed
   the DFA. The pending bytes of the failure (the token start up to and
   including that byte) are then recovered by replaying the carry. *)

type state = Running | Failed_stream of outcome | Stopped of outcome

type cursor = {
  eng : t;
  emit : string -> int -> int -> int -> unit;
  mutable q : int;  (* A: tokenization DFA state *)
  mutable st : int;  (* B: token-extension powerstate (TE mode) *)
  mutable tok : int;  (* stream offset of the open token's first byte *)
  mutable fed : int;
  mutable carry : Bytes.t;  (* stream bytes [cbase, cbase + clen) *)
  mutable cbase : int;
  mutable clen : int;
  mutable skipped : int;  (* bytes consumed by skip loops *)
  mutable swar_skipped : int;  (* ... of which by SWAR-classified loops *)
  state_skipped : int array;
      (* per A state, bytes skipped from it; [||] unless heat is on *)
  mutable state : state;
}

let carry_cap = 64

let la_start e = match e.mode with Table_k1 _ -> 0 | Te te -> Te_dfa.start te

let cursor ?(state_skipped = [||]) e ~emit =
  {
    eng = e;
    emit;
    q = e.dfa.Dfa.start;
    st = la_start e;
    tok = 0;
    fed = 0;
    carry = Bytes.create carry_cap;
    cbase = 0;
    clen = 0;
    skipped = 0;
    swar_skipped = 0;
    state_skipped;
    state = Running;
  }

let reset c =
  c.q <- c.eng.dfa.Dfa.start;
  c.st <- la_start c.eng;
  c.tok <- 0;
  c.fed <- 0;
  (* a long token may have grown the carry; don't hold it for the next
     stream *)
  if Bytes.length c.carry > 65536 then c.carry <- Bytes.create carry_cap;
  c.cbase <- 0;
  c.clen <- 0;
  c.skipped <- 0;
  c.swar_skipped <- 0;
  c.state <- Running

let carry_add c s pos len =
  let need = c.clen + len in
  if need > Bytes.length c.carry then begin
    let nb = Bytes.create (max need (2 * Bytes.length c.carry)) in
    Bytes.blit c.carry 0 nb 0 c.clen;
    c.carry <- nb
  end;
  Bytes.blit_string s pos c.carry c.clen len;
  c.clen <- need

(* The open token began [pos - startP] bytes before this chunk and ends at
   [s.[i - 1]]: append the chunk part to the carry and emit from there. *)
let emit_straddle c s pos startP i rule =
  let off = c.clen - (pos - startP) in
  carry_add c s pos (i - pos);
  c.emit (Bytes.unsafe_to_string c.carry) off (c.clen - off) rule

(* A token ending at stream offset [stop] whose bytes are all carried. *)
let emit_carried c stop rule =
  c.emit (Bytes.unsafe_to_string c.carry) (c.tok - c.cbase) (stop - c.tok) rule;
  c.tok <- stop;
  c.q <- c.eng.dfa.Dfa.start

let cls_of d b = Char.code (String.unsafe_get d.Dfa.classmap (Char.code b))

(* One DFA step on a byte, off the hot loops. *)
let step_byte d q b = d.Dfa.trans.((q * d.Dfa.num_classes) + cls_of d b)

(* A reached a reject state: replay the carried token from its start to
   find the byte that killed it. *)
let fail_reject c =
  let d = c.eng.dfa in
  let from = c.tok - c.cbase in
  let rec go q j =
    let q = step_byte d q (Bytes.get c.carry j) in
    if c.eng.reject.(q) then j + 1 else go q (j + 1)
  in
  let stop = go d.Dfa.start from in
  Failed { offset = c.tok; pending = Bytes.sub_string c.carry from (stop - from) }

(* Chunk epilogue: keep the carry invariant ([tok, fed) carried), then the
   once-per-chunk failure check. [startP] is the open token's start as an
   index into [s]; below [pos] it began in an earlier chunk. *)
let end_chunk c s pos finish startP =
  if startP >= pos then begin
    c.cbase <- c.fed + (startP - pos);
    c.clen <- 0;
    carry_add c s startP (finish - startP)
  end
  else begin
    let drop = c.clen - (pos - startP) in
    if drop > 0 then begin
      Bytes.blit c.carry drop c.carry 0 (c.clen - drop);
      c.clen <- c.clen - drop;
      c.cbase <- c.cbase + drop
    end;
    carry_add c s pos (finish - pos)
  end;
  c.tok <- c.cbase;
  c.fed <- c.fed + (finish - pos);
  if Array.unsafe_get c.eng.reject c.q then
    c.state <- Failed_stream (fail_reject c)

(* State heat, once per skip: a skipped byte self-loops A in [q]. *)
let[@inline] count_skipped c q m =
  let h = c.state_skipped in
  if Array.length h > 0 then Array.unsafe_set h q (Array.unsafe_get h q + m)

(* K ≤ 1: the carried last byte meets its lookahead class — the next
   chunk's first byte, or the EOF column. *)
let k1_step_carried c tbl la =
  let d = c.eng.dfa in
  c.q <- step_byte d c.q (Bytes.get c.carry (c.fed - 1 - c.cbase));
  if Bytes.unsafe_get tbl ((c.q * (d.Dfa.num_classes + 1)) + la) <> '\000'
  then
    emit_carried c c.fed d.Dfa.accept.(c.q)

(* Fig. 5: per symbol, one classmap load, one DFA step and one table probe
   — the two-load form. The class of the lookahead byte is carried into
   the next iteration, where the same byte is the one consumed, so each
   byte is translated exactly once. The chunk's last byte waits in the
   carry for its lookahead (the next chunk's first byte, or EOF).

   Self-loop run acceleration: when two consecutive steps land back in the
   same state ([q = prev = prev2]) and that state is flagged accelerable,
   the run is finished with [Accel.skip] — no table steps, no maximality
   probes. Skipping the intermediate probes is sound because a self-loop
   step can never fire the Fig. 5 bit: T[q][c] = 1 needs δ(q,c) non-final
   while q is final, and δ(q,c) = q during a run. The probe at the stop
   byte runs as usual once the skip lands. Demanding an observed run of two
   (then [Accel.enters]: the state is flagged and the next byte extends
   the run) keeps streams made of 1–2 byte tokens from ever touching the
   bitmaps or calling [Accel.skip]. An unaccelerated build flags no row,
   so there [Accel.enters] is always false. *)
let k1_chunk c tbl s pos len =
  let d = c.eng.dfa in
  let trans = d.Dfa.trans and accept = d.Dfa.accept in
  let cmap = d.Dfa.classmap and nc = d.Dfa.num_classes in
  let acc = d.Dfa.accel in
  let kw = nc + 1 in
  let start = d.Dfa.start in
  let finish = pos + len in
  let cls =
    ref (Char.code (String.unsafe_get cmap (Char.code (String.unsafe_get s pos))))
  in
  if c.fed > 0 then k1_step_carried c tbl !cls;
  let q = ref c.q in
  let startP = ref (pos - (c.fed - c.tok)) in
  let i = ref pos in
  let last = finish - 1 in
  let prev2 = ref (-1) in
  while !i < last do
    let prev = !q in
    q := Array.unsafe_get trans ((!q * nc) + !cls);
    incr i;
    if
      !q = prev && prev = !prev2 && !i < last
      && Accel.enters acc !q (Char.code (String.unsafe_get s !i))
    then begin
      let j = Accel.skip acc !q s !i last in
      c.skipped <- c.skipped + (j - !i);
      if Accel.is_swar acc !q then c.swar_skipped <- c.swar_skipped + (j - !i);
      count_skipped c !q (j - !i);
      i := j
    end;
    prev2 := prev;
    let next_cls =
      Char.code (String.unsafe_get cmap (Char.code (String.unsafe_get s !i)))
    in
    if Bytes.unsafe_get tbl ((!q * kw) + next_cls) <> '\000' then begin
      let rule = Array.unsafe_get accept !q in
      if !startP >= pos then c.emit s !startP (!i - !startP) rule
      else emit_straddle c s pos !startP !i rule;
      startP := !i;
      q := start
    end;
    cls := next_cls
  done;
  c.q <- !q;
  end_chunk c s pos finish !startP

(* TE mode: A consumes the carried byte at stream offset [a]; B has already
   read the K symbols after it. *)
let te_step_carried c te a =
  let d = c.eng.dfa in
  c.q <- step_byte d c.q (Bytes.get c.carry (a - c.cbase));
  if Te_dfa.emit_bit te c.st c.q then emit_carried c (a + 1) d.Dfa.accept.(c.q)

(* Fig. 6: the token-extension DFA runs K symbols ahead. Per symbol: two
   classmap loads (lookahead and consumed byte), δ_B, δ_A, and the
   maximality probe; the maximality table T[q][S] is materialized as a
   packed bit matrix so the per-symbol check is branch + single word read.

   The chunk's first K bytes are read by B while A, K behind, finishes the
   carried bytes (the head); after that both cursors run over the chunk,
   A at [j] and B at [j + K], and the last K bytes go to the carry.

   Acceleration must preserve the K-symbol lead: a skipped byte advances
   BOTH cursors, so an iteration can only be skipped when the consumed byte
   self-loops A's state [q] AND the byte K ahead self-loops B's powerstate
   [st] — [Accel.skip2] finds the first byte that stops either row, B
   reading [+k] bytes ahead. The emit bit is a function of the (st, q) pair, which is
   constant across the run and known 0 at entry, so no probe can be
   missed. *)
let te_chunk c te s pos len =
  let d = c.eng.dfa in
  let trans = d.Dfa.trans and accept = d.Dfa.accept in
  let cmap = d.Dfa.classmap and nc = d.Dfa.num_classes in
  let acc = d.Dfa.accel and bacc = Te_dfa.accel te in
  let start = d.Dfa.start in
  let k = Te_dfa.k te in
  (* bytes per emit row and per transition row: a cell's byte offset is
     one multiply-add off the powerstate, as an array index was *)
  let row8 = 8 * Te_dfa.Raw.words te in
  let row4 = 4 * Te_dfa.Raw.width te in
  let finish = pos + len in
  for i = pos to min finish (pos + k) - 1 do
    c.st <- Te_dfa.step_class te c.st (cls_of d (String.unsafe_get s i));
    let a = c.fed + (i - pos) - k in
    if a >= 0 then te_step_carried c te a
  done;
  let q = ref c.q and st = ref c.st in
  let startP = ref (pos - (c.fed - c.tok)) in
  (* Cached raw views of the lazy TeDFA, both from one published value;
     refreshed together whenever a step materializes a new powerstate
     (which may replace the tables). *)
  let tables = Te_dfa.Raw.tables te in
  let te_trans = ref (Te_dfa.Raw.trans tables) in
  let emit = ref (Te_dfa.Raw.emit tables) in
  let j = ref pos in
  let last = finish - k in
  let prev2_q = ref (-1) and prev2_st = ref (-1) in
  while !j < last do
    let prev_st = !st and prev_q = !q in
    let bcls =
      Char.code
        (String.unsafe_get cmap (Char.code (String.unsafe_get s (!j + k))))
    in
    let tgt =
      Int32.to_int (Te_dfa.Raw.cell !te_trans ((!st * row4) + (bcls lsl 2)))
    in
    if tgt >= 0 then st := tgt
    else begin
      st := Te_dfa.step_class te !st bcls;
      let tables = Te_dfa.Raw.tables te in
      te_trans := Te_dfa.Raw.trans tables;
      emit := Te_dfa.Raw.emit tables
    end;
    let acls =
      Char.code (String.unsafe_get cmap (Char.code (String.unsafe_get s !j)))
    in
    q := Array.unsafe_get trans ((!q * nc) + acls);
    if
      Int64.logand
        (Int64.shift_right_logical
           (Te_dfa.Raw.word !emit ((!st * row8) + ((!q lsr 6) lsl 3)))
           (!q land 63))
        1L
      <> 0L
    then begin
      let rule = Array.unsafe_get accept !q in
      if !startP >= pos then c.emit s !startP (!j + 1 - !startP) rule
      else emit_straddle c s pos !startP (!j + 1) rule;
      startP := !j + 1;
      q := start;
      incr j
    end
    else if
      !q = prev_q && prev_q = !prev2_q && !st = prev_st
      && prev_st = !prev2_st && !j + 1 < last
      && Accel.enters acc !q (Char.code (String.unsafe_get s (!j + 1)))
    then begin
      let r = Te_dfa.accel_row te !st in
      let j' = Accel.skip2 acc !q bacc r ~off:k s (!j + 1) last in
      let m = j' - (!j + 1) in
      c.skipped <- c.skipped + m;
      if Accel.is_swar acc !q || Accel.is_swar bacc r then
        c.swar_skipped <- c.swar_skipped + m;
      count_skipped c !q m;
      j := j'
    end
    else incr j;
    prev2_q := prev_q;
    prev2_st := prev_st
  done;
  c.q <- !q;
  c.st <- !st;
  end_chunk c s pos finish !startP

let kernel_feed c s pos len =
  match c.state with
  | Running when len > 0 -> (
      match c.eng.mode with
      | Table_k1 tbl -> k1_chunk c tbl s pos len
      | Te te -> te_chunk c te s pos len)
  | _ -> c.fed <- c.fed + len

(* End of stream: A consumes the carried lookahead bytes against EOF (the
   Fig. 5 EOF column; K EOF pseudo-symbols for B). *)
let rec kernel_finish c =
  match c.state with
  | Failed_stream o | Stopped o -> o
  | Running ->
      (match c.eng.mode with
      | Table_k1 tbl ->
          if c.fed > 0 then k1_step_carried c tbl c.eng.dfa.Dfa.num_classes
      | Te te ->
          let k = Te_dfa.k te in
          for r = 1 to k do
            c.st <- Te_dfa.step_class te c.st (Te_dfa.eof_class te);
            let a = c.fed - k + r - 1 in
            if a >= 0 then te_step_carried c te a
          done);
      c.state <-
        (if c.tok = c.fed then Stopped Finished
         else if c.eng.reject.(c.q) then Failed_stream (fail_reject c)
         else
           let from = c.tok - c.cbase in
           let pending = Bytes.sub_string c.carry from (c.clen - from) in
           Stopped (Failed { offset = c.tok; pending }));
      kernel_finish c

(* One whole string as a single chunk plus end of stream. Tokens tile the
   input, so each one's position in [s] is the running sum of the lengths
   before it — which also covers the few tokens emitted from the carry.
   [tally], when given, counts tokens per rule in the same adapter. *)
let run_cursor ?tally ?(state_skipped = [||]) ~from e s ~emit =
  let at = ref from in
  let c =
    cursor ~state_skipped e
      ~emit:
        (match tally with
        | None ->
            fun _ _ len rule ->
              let pos = !at in
              at := pos + len;
              emit ~pos ~len ~rule
        | Some rc ->
            fun _ _ len rule ->
              Array.unsafe_set rc rule (Array.unsafe_get rc rule + 1);
              let pos = !at in
              at := pos + len;
              emit ~pos ~len ~rule)
  in
  let n = String.length s in
  kernel_feed c s from (max 0 (n - from));
  let outcome =
    match kernel_finish c with
    | Finished -> Finished
    | Failed { offset; _ } ->
        let offset = from + offset in
        Failed { offset; pending = String.sub s offset (n - offset) }
  in
  (c, outcome)

let run_string ?(from = 0) e s ~emit = snd (run_cursor ~from e s ~emit)

let tokens e s =
  let acc = ref [] in
  let emit ~pos ~len ~rule = acc := (String.sub s pos len, rule) :: !acc in
  let outcome = run_string e s ~emit in
  (List.rev !acc, outcome)

let num_rules e = 1 + Array.fold_left max (-1) e.dfa.Dfa.accept

(* Trace probe around whole-string runs. The span wraps the plain runner
   (never a probe inside it), so the disabled-tracer cost is one bool
   load and one closure per call — gated by `bench/main.exe smoke`. *)
let p_run = St_trace.Trace.probe ~cat:"engine" "engine.run"

(* A's path through one token (or the failed tail) from the start
   state: one arrival per byte at the state it lands in. *)
let add_arrivals e arrivals s pos len =
  let d = e.dfa in
  let q = ref d.Dfa.start in
  for i = pos to pos + len - 1 do
    q := step_byte d !q (String.unsafe_get s i);
    arrivals.(!q) <- arrivals.(!q) + 1
  done

(* The same kernel run as [run_string]; the per-rule tally is one
   unchecked increment per token in the position adapter, and the skip
   counters are the cursor's own. With state heat on, the kernel's skip
   branches also count skipped bytes per state, and each token is
   stepped once more through A to count arrivals per state. *)
let run_string_instrumented ?(from = 0) e s ~stats ~emit =
  St_trace.Trace.with_span p_run @@ fun () ->
  let rc = Run_stats.rule_slots stats (num_rules e) in
  let heat = Run_stats.heat_enabled stats in
  let arrivals, state_skipped =
    if heat then Run_stats.heat_slots stats (Dfa.size e.dfa) else ([||], [||])
  in
  let emit =
    if not heat then emit
    else fun ~pos ~len ~rule ->
      add_arrivals e arrivals s pos len;
      emit ~pos ~len ~rule
  in
  let (c, outcome), dt =
    St_util.Timer.time_it (fun () ->
        run_cursor ~tally:rc ~state_skipped ~from e s ~emit)
  in
  Run_stats.add_run_seconds stats dt;
  Run_stats.add_chunk stats (String.length s - from);
  Run_stats.add_accel_skipped stats c.skipped;
  Run_stats.add_swar_skipped stats c.swar_skipped;
  Run_stats.set_accel_states stats (accel_states e);
  Run_stats.set_accel_swar_states stats (accel_swar_states e);
  Run_stats.set_lookahead stats (max e.k 1);
  (* the carry at end of input: what one chunk of this stream holds *)
  Run_stats.observe_buffer stats c.clen;
  Run_stats.set_te_states stats (te_states e);
  (match outcome with
  | Failed { offset; _ } ->
      if heat then add_arrivals e arrivals s offset (String.length s - offset);
      Run_stats.record_failure stats
  | Finished -> ());
  outcome

let run_string_traced ?from e s ~emit =
  St_trace.Trace.with_span p_run (fun () -> run_string ?from e s ~emit)

let heat_table ?(label = "") e stats =
  let d = e.dfa in
  let acc = d.Dfa.accel in
  let n = Dfa.size d in
  let sv = Run_stats.state_visits stats in
  let ss = Run_stats.state_skipped stats in
  let get a i = if i < Array.length a then a.(i) else 0 in
  let rows =
    List.init n (fun q ->
        let accel = Accel.is_flagged acc q in
        {
          St_trace.Trace.Heat.state = q;
          visits = get sv q;
          skipped = get ss q;
          stop_bytes = (if accel then Accel.stop_count acc q else 0);
          rule = Dfa.accept_rule d q;
          accel;
        })
  in
  {
    St_trace.Trace.Heat.label;
    states = n;
    bytes = Run_stats.bytes_in stats;
    rows;
  }

module Kernel = struct
  type nonrec cursor = cursor

  let create e ~emit = cursor e ~emit
  let reset = reset
  let feed = kernel_feed
  let finish = kernel_finish
  let failed c = match c.state with Failed_stream _ -> true | _ -> false
  let fed c = c.fed
  let skipped c = c.skipped
  let swar_skipped c = c.swar_skipped
end

module Internal = struct
  let te_dfa e = match e.mode with Table_k1 _ -> None | Te te -> Some te
end
