open St_automata
module Bits = St_util.Bits

type t = { dfas : Dfa.t array; coacc : Bits.t array }

let compile rules =
  let dfas =
    Array.of_list (List.map (fun r -> Dfa.of_rules [ r ]) rules)
  in
  let coacc = Array.map Dfa.co_accessible dfas in
  { dfas; coacc }

(* Longest match of a single rule starting at [startp]; returns length ≥ 1
   or 0, plus the number of DFA steps taken. *)
let longest_of_rule t rule s startp =
  let d = t.dfas.(rule) in
  let coacc = t.coacc.(rule) in
  let n = String.length s in
  let q = ref d.Dfa.start in
  let pos = ref startp in
  let best = ref 0 in
  let steps = ref 0 in
  let scanning = ref true in
  while !scanning && !pos < n do
    q := Dfa.step d !q (String.unsafe_get s !pos);
    incr pos;
    incr steps;
    if Dfa.is_final d !q then best := !pos - startp;
    if not (Bits.mem coacc !q) then scanning := false
  done;
  (!best, !steps)

let run t s ~emit =
  let n = String.length s in
  let num_rules = Array.length t.dfas in
  let startp = ref 0 in
  let steps = ref 0 in
  let outcome = ref None in
  while !outcome = None && !startp < n do
    let rec try_rule rule =
      if rule >= num_rules then None
      else
        let len, st = longest_of_rule t rule s !startp in
        steps := !steps + st;
        if len > 0 then Some (len, rule) else try_rule (rule + 1)
    in
    match try_rule 0 with
    | Some (len, rule) ->
        emit ~pos:!startp ~len ~rule;
        startp := !startp + len
    | None ->
        outcome :=
          Some
            (Backtracking.Failed
               {
                 offset = !startp;
                 pending = String.sub s !startp (n - !startp);
               })
  done;
  let o = match !outcome with Some o -> o | None -> Backtracking.Finished in
  (o, !steps)

let tokens t s =
  let acc = ref [] in
  let emit ~pos ~len ~rule = acc := (String.sub s pos len, rule) :: !acc in
  let o, _ = run t s ~emit in
  (List.rev !acc, o)
