open St_automata
module Bits = St_util.Bits

type result = Finite of int | Infinite

let pp_result fmt = function
  | Finite k -> Format.fprintf fmt "%d" k
  | Infinite -> Format.fprintf fmt "inf"

let result_to_string r = Format.asprintf "%a" pp_result r
let equal_result (a : result) b = a = b

(* The frontier set S of Fig. 3: final states reachable by a nonempty
   string. *)
let initial_frontier d =
  let reach_ne = Dfa.reachable_nonempty d in
  let s = Bits.create d.Dfa.num_states in
  Bits.iter (fun q -> if Dfa.is_final d q then Bits.add s q) reach_ne;
  s

(* Successor states over the class alphabet: every byte is in some class,
   so stepping once per class covers exactly the byte successors. *)
let successors d s =
  let nc = Dfa.num_classes d in
  let t = Bits.create d.Dfa.num_states in
  Bits.iter
    (fun q ->
      for c = 0 to nc - 1 do
        Bits.add t (Dfa.step_class d q c)
      done)
    s;
  t

type trace_row = { dist : int; s : int list; t : int list; test : bool }

let run_analysis ~record d =
  let coacc = Dfa.co_accessible d in
  let trace = ref [] in
  let s = ref (initial_frontier d) in
  let dist = ref 0 in
  let result = ref None in
  while !result = None && !dist < Dfa.size d + 2 do
    let t = successors d !s in
    let test = Bits.inter_empty t coacc in
    if record then
      trace :=
        { dist = !dist; s = Bits.elements !s; t = Bits.elements t; test }
        :: !trace;
    if test then result := Some (Finite !dist)
    else begin
      let s' = Bits.create d.Dfa.num_states in
      Bits.iter (fun q -> if not (Dfa.is_final d q) then Bits.add s' q) t;
      s := s';
      incr dist
    end
  done;
  let result = match !result with Some r -> r | None -> Infinite in
  (result, List.rev !trace)

let max_tnd d = fst (run_analysis ~record:false d)
let max_tnd_trace d = run_analysis ~record:true d

(* Shortest nonempty strings from the start state to every state (BFS over
   the DFA, seeded with the one-symbol successors of start). *)
let shortest_nonempty_to d =
  let n = Dfa.size d in
  let word = Array.make n None in
  let queue = Queue.create () in
  for c = 0 to 255 do
    let q = Dfa.step d d.Dfa.start (Char.chr c) in
    if word.(q) = None then begin
      word.(q) <- Some (String.make 1 (Char.chr c));
      Queue.add q queue
    end
  done;
  while not (Queue.is_empty queue) do
    let q = Queue.pop queue in
    let w = match word.(q) with Some w -> w | None -> assert false in
    for c = 0 to 255 do
      let q' = Dfa.step d q (Char.chr c) in
      if word.(q') = None then begin
        word.(q') <- Some (w ^ String.make 1 (Char.chr c));
        Queue.add q' queue
      end
    done
  done;
  word

(* Shortest string from [q] to any final state (possibly empty). *)
let shortest_to_final d q0 =
  if Dfa.is_final d q0 then Some ""
  else begin
    let n = Dfa.size d in
    let word = Array.make n None in
    word.(q0) <- Some "";
    let queue = Queue.create () in
    Queue.add q0 queue;
    let found = ref None in
    while !found = None && not (Queue.is_empty queue) do
      let q = Queue.pop queue in
      let w = match word.(q) with Some w -> w | None -> assert false in
      let c = ref 0 in
      while !found = None && !c <= 255 do
        let q' = Dfa.step d q (Char.chr !c) in
        let w' = w ^ String.make 1 (Char.chr !c) in
        if Dfa.is_final d q' then found := Some w'
        else if word.(q') = None then begin
          word.(q') <- Some w';
          Queue.add q' queue
        end;
        incr c
      done
    done;
    !found
  end

let witness d k =
  let to_state = shortest_nonempty_to d in
  if k = 0 then begin
    (* any token paired with itself *)
    let best = ref None in
    Array.iteri
      (fun q w ->
        match (w, !best) with
        | Some u, None when Dfa.is_final d q -> best := Some (u, u)
        | Some u, Some (b, _)
          when Dfa.is_final d q && String.length u < String.length b ->
            best := Some (u, u)
        | _ -> ())
      to_state;
    !best
  end
  else begin
    let coacc = Dfa.co_accessible d in
    let n = Dfa.size d in
    (* layered BFS: layer i holds (state, origin final state, path chars)
       with intermediates (layers 1..k-1) non-final; we keep one witness per
       state per layer. *)
    let module M = Map.Make (Int) in
    let layer = ref M.empty in
    Array.iteri
      (fun q w ->
        match w with
        | Some u when Dfa.is_final d q && not (M.mem q !layer) ->
            layer := M.add q (u, "") !layer
        | _ -> ())
      to_state;
    let result = ref None in
    for i = 1 to k do
      let next = ref M.empty in
      M.iter
        (fun q (u, path) ->
          for c = 0 to 255 do
            let q' = Dfa.step d q (Char.chr c) in
            let keep =
              if i < k then not (Dfa.is_final d q')
              else Bits.mem coacc q'
            in
            if keep && not (M.mem q' !next) then
              next := M.add q' (u, path ^ String.make 1 (Char.chr c)) !next
          done)
        !layer;
      layer := !next
    done;
    ignore (n : int);
    (M.iter (fun q (u, path) ->
         if !result = None then
           match shortest_to_final d q with
           | Some z -> result := Some (u, u ^ path ^ z)
           | None -> ()))
      !layer;
    !result
  end
