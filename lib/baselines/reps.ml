open St_automata
module Bits = St_util.Bits

type result = {
  outcome : Backtracking.outcome;
  steps : int;
  memo_entries : int;
}

let run d s ~emit =
  let coacc = Dfa.co_accessible d in
  let trans = d.Dfa.trans and accept = d.Dfa.accept in
  let cmap = d.Dfa.classmap and nc = d.Dfa.num_classes in
  let acc = d.Dfa.accel in
  let n = String.length s in
  let m = Dfa.size d in
  (* failed bit (q * (n+1) + pos): the deterministic run from state q at
     position pos never reaches a final state. This is Reps' tabulation,
     bit-packed; its O(M*n) size is the algorithm's memory cost. *)
  let failed = Bytes.make (((m * (n + 1)) + 8) / 8) '\000' in
  let entries = ref 0 in
  let key q pos = (q * (n + 1)) + pos in
  let memo_mem k =
    Char.code (Bytes.unsafe_get failed (k lsr 3)) land (1 lsl (k land 7)) <> 0
  in
  let memo_add k =
    if not (memo_mem k) then begin
      incr entries;
      Bytes.unsafe_set failed (k lsr 3)
        (Char.chr
           (Char.code (Bytes.unsafe_get failed (k lsr 3))
           lor (1 lsl (k land 7))))
    end
  in
  let steps = ref 0 in
  let startP = ref 0 in
  let result = ref None in
  (* visited pairs of the current scan, in order *)
  let visited_q = St_util.Int_vec.create () in
  let visited_pos = St_util.Int_vec.create () in
  while !result = None && !startP < n do
    let q = ref d.Dfa.start in
    let pos = ref !startP in
    let tk_len = ref 0 and tk_rule = ref (-1) in
    let last_accept_index = ref (-1) in
    St_util.Int_vec.clear visited_q;
    St_util.Int_vec.clear visited_pos;
    let scanning = ref true in
    let prev2 = ref (-1) in
    while !scanning && !pos < n do
      if memo_mem (key !q !pos) then scanning := false
      else begin
        let prev = !q in
        q :=
          trans.((!q * nc)
                 + Char.code
                     (String.unsafe_get cmap
                        (Char.code (String.unsafe_get s !pos))));
        incr pos;
        incr steps;
        St_util.Int_vec.push visited_q !q;
        St_util.Int_vec.push visited_pos !pos;
        let rule = accept.(!q) in
        if rule >= 0 then begin
          tk_len := !pos - !startP;
          tk_rule := rule;
          last_accept_index := St_util.Int_vec.length visited_q - 1
        end;
        if not (Bits.mem coacc !q) then scanning := false
        else if
          rule >= 0 && !q = prev && prev = !prev2 && !pos < n
          && Accel.enters acc !q (Char.code (String.unsafe_get s !pos))
        then begin
          (* Accelerate only final self-loop states: every skipped pair is
             an accept, so it precedes the scan's last accept and would
             never be memoized anyway — the failed-bit table is identical
             to the unaccelerated run's. Record only the run's endpoint
             and move the last accept there. *)
          let j = Accel.skip acc !q s !pos n in
          if j > !pos then begin
            steps := !steps + (j - !pos);
            pos := j;
            tk_len := !pos - !startP;
            St_util.Int_vec.push visited_q !q;
            St_util.Int_vec.push visited_pos !pos;
            last_accept_index := St_util.Int_vec.length visited_q - 1
          end
        end;
        prev2 := prev
      end
    done;
    (* memoize every pair visited strictly after the last accept: from
       those, this deterministic run reached no further final state *)
    for i = !last_accept_index + 1 to St_util.Int_vec.length visited_q - 1 do
      memo_add
        (key (St_util.Int_vec.get visited_q i) (St_util.Int_vec.get visited_pos i))
    done;
    if !tk_rule >= 0 then begin
      emit ~pos:!startP ~len:!tk_len ~rule:!tk_rule;
      startP := !startP + !tk_len
    end
    else
      result :=
        Some
          (Backtracking.Failed
             {
               offset = !startP;
               pending = String.sub s !startP (n - !startP);
             })
  done;
  let outcome =
    match !result with Some r -> r | None -> Backtracking.Finished
  in
  { outcome; steps = !steps; memo_entries = !entries }

let tokens d s =
  let acc = ref [] in
  let emit ~pos ~len ~rule = acc := (String.sub s pos len, rule) :: !acc in
  let r = run d s ~emit in
  (List.rev !acc, r.outcome)
