open St_automata
module Bits = St_util.Bits

type outcome = Finished | Failed of { offset : int; pending : string }

let outcome_equal a b =
  match (a, b) with
  | Finished, Finished -> true
  | Failed { offset = o1; pending = p1 }, Failed { offset = o2; pending = p2 }
    ->
      o1 = o2 && String.equal p1 p2
  | _ -> false

let fail s startP =
  Failed
    { offset = startP; pending = String.sub s startP (String.length s - startP) }

let run d s ~emit =
  let coacc = Dfa.co_accessible d in
  let trans = d.Dfa.trans and accept = d.Dfa.accept in
  let cmap = d.Dfa.classmap and nc = d.Dfa.num_classes in
  let acc = d.Dfa.accel in
  let n = String.length s in
  let steps = ref 0 in
  let startP = ref 0 in
  let result = ref None in
  while !result = None && !startP < n do
    (* inner pass: longest token starting at startP (Fig. 2 inner loop) *)
    let q = ref d.Dfa.start in
    let pos = ref !startP in
    let tk_len = ref 0 and tk_rule = ref (-1) in
    let scanning = ref true in
    let prev2 = ref (-1) in
    while !scanning && !pos < n do
      let prev = !q in
      q :=
        trans.((!q * nc)
               + Char.code
                   (String.unsafe_get cmap
                      (Char.code (String.unsafe_get s !pos))));
      incr pos;
      incr steps;
      let rule = accept.(!q) in
      if rule >= 0 then begin
        tk_len := !pos - !startP;
        tk_rule := rule
      end;
      if not (Bits.mem coacc !q) then scanning := false
      else if
        !q = prev && prev = !prev2 && !pos < n
        && Accel.enters acc !q (Char.code (String.unsafe_get s !pos))
      then begin
        (* self-loop run: accept status is constant, so the furthest match
           moves with the skip; [steps] still counts every byte read *)
        let j = Accel.skip acc !q s !pos n in
        if j > !pos then begin
          steps := !steps + (j - !pos);
          pos := j;
          if rule >= 0 then tk_len := !pos - !startP
        end
      end;
      prev2 := prev
    done;
    if !tk_rule >= 0 then begin
      emit ~pos:!startP ~len:!tk_len ~rule:!tk_rule;
      startP := !startP + !tk_len (* backtrack: re-read from here *)
    end
    else result := Some (fail s !startP)
  done;
  let outcome = match !result with Some r -> r | None -> Finished in
  (outcome, !steps)

let tokens d s =
  let acc = ref [] in
  let emit ~pos ~len ~rule = acc := (String.sub s pos len, rule) :: !acc in
  let outcome, _steps = run d s ~emit in
  (List.rev !acc, outcome)

let steps d s =
  let _, n = run d s ~emit:(fun ~pos:_ ~len:_ ~rule:_ -> ()) in
  n

let run_buffered d ~capacity ~read ~emit =
  let coacc = Dfa.co_accessible d in
  let acc = d.Dfa.accel in
  let buf = ref (Bytes.create (max capacity 16)) in
  let fill = ref 0 in
  let startp = ref 0 in
  let global = ref 0 in
  let eof = ref false in
  let steps = ref 0 in
  let outcome = ref None in
  let refill () =
    if not !eof then begin
      if !startp > 0 then begin
        Bytes.blit !buf !startp !buf 0 (!fill - !startp);
        global := !global + !startp;
        fill := !fill - !startp;
        startp := 0
      end;
      if !fill = Bytes.length !buf then begin
        (* a token overflows the buffer: grow it, as flex does *)
        let nb = Bytes.create (2 * Bytes.length !buf) in
        Bytes.blit !buf 0 nb 0 !fill;
        buf := nb
      end;
      let n = read !buf ~pos:!fill ~len:(Bytes.length !buf - !fill) in
      if n = 0 then eof := true else fill := !fill + n
    end
  in
  refill ();
  while !outcome = None do
    if !startp >= !fill && !eof then outcome := Some Finished
    else begin
      let q = ref d.Dfa.start in
      let pos = ref !startp in
      let tk_len = ref 0 and tk_rule = ref (-1) in
      let scanning = ref true in
      let prev2 = ref (-1) in
      while !scanning do
        if !pos >= !fill then begin
          if !eof then scanning := false
          else begin
            let shift = !startp in
            refill ();
            pos := !pos - shift;
            if !pos >= !fill && !eof then scanning := false
          end
        end
        else begin
          let prev = !q in
          q := Dfa.step d !q (Bytes.get !buf !pos);
          incr pos;
          incr steps;
          let rule = Dfa.accept_rule d !q in
          if rule >= 0 then begin
            tk_len := !pos - !startp;
            tk_rule := rule
          end;
          if not (Bits.mem coacc !q) then scanning := false
          else if
            !q = prev && prev = !prev2 && !pos < !fill
            && Accel.enters acc !q
                 (Char.code (Bytes.unsafe_get !buf !pos))
          then begin
            (* skip within the filled window; the refill logic above
               resumes normally at the stop byte (or the fill limit) *)
            let j =
              Accel.skip acc !q (Bytes.unsafe_to_string !buf) !pos
                !fill
            in
            if j > !pos then begin
              steps := !steps + (j - !pos);
              pos := j;
              if rule >= 0 then tk_len := !pos - !startp
            end
          end;
          prev2 := prev
        end
      done;
      if !tk_rule >= 0 then begin
        emit (Bytes.sub_string !buf !startp !tk_len) !tk_rule;
        startp := !startp + !tk_len
      end
      else
        outcome :=
          Some
            (Failed
               {
                 offset = !global + !startp;
                 pending = Bytes.sub_string !buf !startp (!fill - !startp);
               })
    end
  done;
  (Option.get !outcome, !steps)
