open St_automata
module Bits = St_util.Bits

type result = Finite of int | Infinite

let pp_result fmt = function
  | Finite k -> Format.fprintf fmt "%d" k
  | Infinite -> Format.fprintf fmt "inf"

let result_to_string r = Format.asprintf "%a" pp_result r
let equal_result (a : result) b = a = b

(* ---- the linear analysis ----

   Round d of Fig. 3 fails its test iff some path of d + 1 steps from a
   token state (a final state reached by a nonempty string), through
   non-final states, ends in a co-accessible state. Every
   predecessor of a co-accessible state is co-accessible, so all but the
   path's first state are co-accessible, and all but its first and last are
   non-final too: they are the "inner" states. So the max-TND is the
   longest such path, and it is infinite iff a cycle of inner states can be
   reached from a token state. One depth-first search over the inner
   states reachable from the token states finds both, each state expanded
   once with its longest path memoized: O(|A|·classes), against Fig. 3's
   O(|A|²·classes) before it can answer ∞. A finite answer is at most
   |A|, the paper's dichotomy bound. The search keeps its own stack, so
   its depth is not bounded by the caller's. *)

type search =
  | Longest of int
  | Cycle of { root : int; x : int list; entry : int; y : int list }
      (** a back edge: from token state [root], the classes [x] reach
          inner state [entry], and the classes [y] lead around a cycle of
          inner states back to it *)

let search d coacc =
  let n = Dfa.size d and nc = Dfa.num_classes d in
  let reached = Dfa.reachable_nonempty d in
  (* [height.(q)] of an inner state: -1 unvisited, -2 on the stack, else the
     longest path from [q] to a co-accessible state through inner states *)
  let height = Array.make n (-1) in
  (* the stack: its states, the next class to try at each, and the longest
     path found from each so far *)
  let stk = Array.make (n + 1) 0 in
  let next = Array.make (n + 1) 0 in
  let best = Array.make (n + 1) 0 in
  let sp = ref (-1) in
  let push q =
    incr sp;
    stk.(!sp) <- q;
    next.(!sp) <- 0;
    best.(!sp) <- 0
  in
  let longest = ref 0 and back = ref (-1) in
  let root = ref 0 in
  while !back < 0 && !root < n do
    let r = !root in
    incr root;
    if Dfa.is_final d r && Bits.mem reached r then push r;
    while !back < 0 && !sp >= 0 do
      let top = !sp in
      let q = stk.(top) in
      let c = next.(top) in
      if c < nc then begin
        next.(top) <- c + 1;
        let q' = Dfa.step_class d q c in
        if Bits.mem coacc q' then
          if Dfa.is_final d q' then best.(top) <- max best.(top) 1
          else
            match height.(q') with
            | -1 ->
                height.(q') <- -2;
                push q'
            | -2 -> back := q'
            | h -> best.(top) <- max best.(top) (h + 1)
      end
      else begin
        decr sp;
        if top = 0 then longest := max !longest best.(0)
        else begin
          height.(q) <- best.(top);
          best.(top - 1) <- max best.(top - 1) (best.(top) + 1)
        end
      end
    done
  done;
  if !back < 0 then Longest !longest
  else
    (* the class taken out of stack slot [i] is [next.(i) - 1]; the back
       edge leaves the top slot for [entry], which sits at slot [e] *)
    let entry = !back in
    let e = ref 1 in
    while stk.(!e) <> entry do
      incr e
    done;
    let classes lo hi = List.init (hi - lo) (fun i -> next.(lo + i) - 1) in
    Cycle
      {
        root = stk.(0);
        x = classes 0 !e;
        entry;
        y = classes !e (!sp + 1);
      }

let max_tnd ?coacc d =
  let coacc =
    match coacc with Some c -> c | None -> Dfa.co_accessible d
  in
  match search d coacc with Longest k -> Finite k | Cycle _ -> Infinite

(* ---- the Fig. 3 loop, kept for its trace ---- *)

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

let max_tnd_trace d =
  let coacc = Dfa.co_accessible d in
  let trace = ref [] in
  let s = ref (initial_frontier d) in
  let dist = ref 0 in
  let result = ref None in
  while !result = None && !dist < Dfa.size d + 2 do
    let t = successors d !s in
    let test = Bits.inter_empty t coacc in
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

(* ---- witnesses ----

   Every search below is breadth-first over one representative byte per
   class, in ascending byte order, and records parent pointers instead of
   strings: [parent.(q)] is [-1] while [q] is unreached, [-2] for a seed
   (reached by the empty string), and [(p + 1) * 256 + b] when [q] was
   first reached by byte [b] from [p]. [p = -1] is the start state as the
   source of a nonempty search, kept apart from the start state as a node
   so that the walk back ends even when a search re-enters the start.
   Memory is one int per state, whatever the path lengths. *)

let reps d = Dfa.class_reps d.Dfa.classmap d.Dfa.num_classes

(* [bfs d reps ~seeds ~enter ~stop] searches from [seeds] ([(state,
   parent code)] pairs, admitted unconditionally), discovering only
   states [enter] admits beyond them. It returns the parent array and the
   first discovered state [stop] admits, if any (the search ends there). *)
let bfs d reps ~seeds ~enter ~stop =
  let parent = Array.make (Dfa.size d) (-1) in
  let queue = Queue.create () in
  let found = ref None in
  let mark q code =
    if !found = None && parent.(q) = -1 then begin
      parent.(q) <- code;
      if stop q then found := Some q else Queue.add q queue
    end
  in
  List.iter (fun (q, code) -> mark q code) seeds;
  while !found = None && not (Queue.is_empty queue) do
    let q = Queue.pop queue in
    Array.iter
      (fun b ->
        let q' = Dfa.step_class d q (Dfa.class_of_byte d b) in
        if enter q' then mark q' (((q + 1) * 256) + b))
      reps
  done;
  (parent, !found)

(* The path recorded for [q], and the seed it starts from. *)
let path_to parent q =
  let rec go q acc =
    let code = parent.(q) in
    if code < 0 then (q, acc)
    else
      let p = (code / 256) - 1 in
      let acc = Char.chr (code land 255) :: acc in
      if p < 0 then (-1, acc) else go p acc
  in
  let root, chars = go q [] in
  (root, String.of_seq (List.to_seq chars))

(* Shortest nonempty strings from the start state to every state. *)
let shortest_nonempty_to d reps =
  let seeds =
    Array.to_list
      (Array.map
         (fun b -> (Dfa.step_class d d.Dfa.start (Dfa.class_of_byte d b), b))
         reps)
  in
  fst (bfs d reps ~seeds ~enter:(fun _ -> true) ~stop:(fun _ -> false))

(* Finals reachable by a nonempty string, ascending: the tokens [u]. *)
let token_states d to_state =
  List.filter
    (fun q -> Dfa.is_final d q && to_state.(q) <> -1)
    (List.init (Dfa.size d) Fun.id)

(* Shortest string from [q] to any final state (possibly empty); the
   states it passes through before the last are non-final. *)
let shortest_to_final d reps q =
  match
    bfs d reps ~seeds:[ (q, -2) ] ~enter:(fun _ -> true)
      ~stop:(Dfa.is_final d)
  with
  | parent, Some f -> Some (snd (path_to parent f))
  | _, None -> None

let word to_state q = snd (path_to to_state q)

let witness d k =
  let reps = reps d in
  let to_state = shortest_nonempty_to d reps in
  let tokens = token_states d to_state in
  if k = 0 then
    (* a shortest token paired with itself *)
    match tokens with
    | [] -> None
    | q :: rest ->
        let u =
          List.fold_left
            (fun u q ->
              let w = word to_state q in
              if String.length w < String.length u then w else u)
            (word to_state q) rest
        in
        Some (u, u)
  else begin
    let coacc = Dfa.co_accessible d in
    let n = Dfa.size d in
    (* layered BFS: [layers.(i).(q)] is the parent code of [q] at distance
       [i] from a token state, through non-final intermediates (layers
       1..k-1); layer k must be co-accessible. One parent per state per
       layer. *)
    let layers = Array.init (k + 1) (fun _ -> Array.make n (-1)) in
    List.iter (fun q -> layers.(0).(q) <- -2) tokens;
    for i = 1 to k do
      let prev = layers.(i - 1) and cur = layers.(i) in
      for q = 0 to n - 1 do
        if prev.(q) <> -1 then
          Array.iter
            (fun b ->
              let q' = Dfa.step_class d q (Dfa.class_of_byte d b) in
              let keep =
                if i < k then not (Dfa.is_final d q') else Bits.mem coacc q'
              in
              if keep && cur.(q') = -1 then cur.(q') <- ((q + 1) * 256) + b)
            reps
      done
    done;
    (* walk a layer-k state back to its token state *)
    let back q =
      let chars = ref [] and q = ref q in
      for i = k downto 1 do
        let code = layers.(i).(!q) in
        chars := Char.chr (code land 255) :: !chars;
        q := (code / 256) - 1
      done;
      (!q, String.of_seq (List.to_seq !chars))
    in
    let result = ref None in
    for q = 0 to n - 1 do
      if !result = None && layers.(k).(q) <> -1 then
        match shortest_to_final d reps q with
        | Some z ->
            let p, path = back q in
            let u = word to_state p in
            result := Some (u, u ^ path ^ z)
        | None -> ()
    done;
    !result
  end

type pump = { u : string; x : string; y : string; z : string }

let pumped_witness d =
  match search d (Dfa.co_accessible d) with
  | Longest _ -> None
  | Cycle { root; x; entry; y } -> (
      let reps = reps d in
      let bytes cls =
        String.of_seq (List.to_seq (List.map (fun c -> Char.chr reps.(c)) cls))
      in
      (* [entry] is co-accessible, so a final state is reachable *)
      match shortest_to_final d reps entry with
      | None -> None
      | Some z ->
          let u = word (shortest_nonempty_to d reps) root in
          Some { u; x = bytes x; y = bytes y; z })
