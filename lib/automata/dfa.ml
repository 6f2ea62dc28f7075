open St_regex
module Bits = St_util.Bits

type t = {
  num_states : int;
  start : int;
  num_classes : int;
  classmap : string;
  trans : int array;
  accept : int array;
  accel : Accel.t;
}

let step d q c =
  d.trans.((q * d.num_classes) + Char.code (String.unsafe_get d.classmap (Char.code c)))

let step_class d q cls = d.trans.((q * d.num_classes) + cls)
let class_of d c = Char.code (String.unsafe_get d.classmap (Char.code c))
let class_of_byte d b = Char.code (String.unsafe_get d.classmap b)
let num_classes d = d.num_classes
let is_final d q = d.accept.(q) >= 0
let accept_rule d q = d.accept.(q)
let size d = d.num_states

let run d s =
  let q = ref d.start in
  String.iter (fun c -> q := step d !q c) s;
  !q

let identity_classmap = String.init 256 Char.chr

(* Subset construction and minimization produce bare tables: an [Off]
   accelerator, flags only. [attach] derives the real one once, from the
   final transition table — one row per state, in state order. *)
let bare ~start ~num_classes ~classmap ~trans ~accept =
  let num_states = Array.length accept in
  {
    num_states;
    start;
    num_classes;
    classmap;
    trans;
    accept;
    accel = Accel.create Accel.Off ~capacity:num_states;
  }

let attach (level : Accel.level) d =
  if level = Accel.Off then d
  else
    let accel = Accel.create level ~capacity:d.num_states in
    let nc = d.num_classes in
    let loops = Bytes.create nc in
    for q = 0 to d.num_states - 1 do
      for c = 0 to nc - 1 do
        Bytes.unsafe_set loops c
          (if d.trans.((q * nc) + c) = q then '\001' else '\000')
      done;
      ignore (Accel.add_row accel ~classmap:d.classmap ~loops)
    done;
    { d with accel }

(* The coarsest partition of 0–255 that every charset label of the NFA
   respects: two bytes land in the same class iff every labeled edge either
   contains both or neither, so they are indistinguishable to the subset
   construction (and hence to the DFA). Classic flex [yy_ec] refinement:
   start from one block and split by membership, one distinct charset at a
   time. Every split renumbers the classes by first byte occurrence, so the
   numbering depends only on the partition: the result is deterministic for
   a given NFA, whatever the order of its charsets. *)
let equiv_classes (nfa : Nfa.t) =
  let cls = Array.make 256 0 in
  let num = ref 1 in
  (* [fresh.((2 * old) + member)]: the new id of that half of class [old] *)
  let fresh = Array.make 512 (-1) in
  let split cs =
    Array.fill fresh 0 (2 * !num) (-1);
    let next = ref 0 in
    for b = 0 to 255 do
      let key = (2 * cls.(b)) + Bool.to_int (Charset.mem cs (Char.chr b)) in
      if fresh.(key) < 0 then begin
        fresh.(key) <- !next;
        incr next
      end;
      cls.(b) <- fresh.(key)
    done;
    num := !next
  in
  Array.fold_left (fun acc l -> List.rev_map fst l @ acc) [] nfa.Nfa.trans
  |> List.sort_uniq Charset.compare
  |> List.iter split;
  (String.init 256 (fun b -> Char.chr cls.(b)), !num)

(* One representative byte per class, in class order. *)
let class_reps classmap num_classes =
  let reps = Array.make num_classes 0 in
  let seen = Array.make num_classes false in
  for b = 0 to 255 do
    let c = Char.code classmap.[b] in
    if not seen.(c) then begin
      seen.(c) <- true;
      reps.(c) <- b
    end
  done;
  reps

module Set_tbl = Hashtbl.Make (struct
  type t = Bits.t

  let equal = Bits.equal
  let hash = Bits.hash
end)

(* Subset construction by scatter: each labeled NFA edge is resolved once
   to the class ids its charset covers, so a DFA state costs one walk over
   its NFA set, dropping each edge's target into the bucket of every class
   it covers. Only the classes that got a target are closed and interned;
   every other class goes to the dead (empty) set, interned at its first
   use. Rows are filled in ascending class order and states are numbered
   in discovery order, as a step per class would number them. *)
let subset ~classes ?max_states (nfa : Nfa.t) =
  let classmap, nc =
    if classes then equiv_classes nfa else (identity_classmap, 256)
  in
  let reps = class_reps classmap nc in
  let covered cs =
    Array.of_list
      (List.filter
         (fun c -> Charset.mem cs (Char.chr reps.(c)))
         (List.init nc Fun.id))
  in
  let edges =
    Array.map (List.map (fun (cs, q) -> (q, covered cs))) nfa.Nfa.trans
  in
  let tbl = Set_tbl.create 64 in
  let accept = St_util.Int_vec.create () in
  let trans = St_util.Int_vec.create () in
  let worklist = Queue.create () in
  let add set =
    let id = Set_tbl.length tbl in
    (match max_states with
    | Some cap when id >= cap ->
        failwith
          (Printf.sprintf
             "Dfa.of_nfa: subset construction exceeded %d states (max_states \
              cap)"
             cap)
    | _ -> ());
    Set_tbl.add tbl set id;
    St_util.Int_vec.push accept (Nfa.accept_of_set nfa set);
    Queue.add set worklist;
    id
  in
  let init = Bits.create nfa.num_states in
  Bits.add init nfa.start;
  Nfa.eps_closure nfa init;
  let start_id = add init in
  let dead = ref (-1) in
  let buckets = Array.init nc (fun _ -> Bits.create nfa.num_states) in
  let touched = Array.make nc false in
  while not (Queue.is_empty worklist) do
    Bits.iter
      (fun s ->
        List.iter
          (fun (q, cls) ->
            Array.iter
              (fun c ->
                touched.(c) <- true;
                Bits.add buckets.(c) q)
              cls)
          edges.(s))
      (Queue.pop worklist);
    for c = 0 to nc - 1 do
      let id =
        if touched.(c) then begin
          let b = buckets.(c) in
          Nfa.eps_closure nfa b;
          let id =
            match Set_tbl.find_opt tbl b with
            | Some id -> id
            | None -> add (Bits.copy b)
          in
          Bits.clear b;
          touched.(c) <- false;
          id
        end
        else begin
          if !dead < 0 then dead := add (Bits.create nfa.num_states);
          !dead
        end
      in
      St_util.Int_vec.push trans id
    done
  done;
  bare ~start:start_id ~num_classes:nc ~classmap
    ~trans:(St_util.Int_vec.to_array trans)
    ~accept:(St_util.Int_vec.to_array accept)

let of_nfa ?(classes = true) ?(accel = Accel.Swar) ?max_states nfa =
  attach accel (subset ~classes ?max_states nfa)

(* Signature table of [minimize_dfa]. A signature is [| hash; block;
   successor blocks ... |], the hash folded over the whole row while the
   row is filled: polymorphic [Hashtbl.hash] reads only the first 10 ints
   of an array, so rows that differ only further on shared a bucket. *)
module Sig_tbl = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) b = a = b
  let hash a = Array.unsafe_get a 0
end)

(* Moore minimization, in class space. The initial partition separates
   states by Λ (so distinct token ids are never merged); refinement splits
   blocks whose members disagree on the block of some successor. The
   classmap is unchanged: merging states never coarsens the alphabet. *)
let minimize_dfa d =
  let n = d.num_states in
  let nc = d.num_classes in
  let block = Array.make n 0 in
  (* initial blocks by accept label *)
  let label_tbl = Hashtbl.create 8 in
  let next_block = ref 0 in
  for q = 0 to n - 1 do
    let lbl = d.accept.(q) in
    match Hashtbl.find_opt label_tbl lbl with
    | Some b -> block.(q) <- b
    | None ->
        Hashtbl.add label_tbl lbl !next_block;
        block.(q) <- !next_block;
        incr next_block
  done;
  let changed = ref true in
  while !changed do
    changed := false;
    (* signature of a state: (hash, block, successor blocks) *)
    let sig_tbl = Sig_tbl.create n in
    let new_block = Array.make n 0 in
    let count = ref 0 in
    for q = 0 to n - 1 do
      let key = Array.make (nc + 2) 0 in
      let h = ref block.(q) in
      key.(1) <- block.(q);
      for c = 0 to nc - 1 do
        let b = block.(d.trans.((q * nc) + c)) in
        key.(c + 2) <- b;
        h := (!h * 31) + b
      done;
      key.(0) <- !h lxor (!h lsr 29);
      match Sig_tbl.find_opt sig_tbl key with
      | Some b -> new_block.(q) <- b
      | None ->
          Sig_tbl.add sig_tbl key !count;
          new_block.(q) <- !count;
          incr count
    done;
    if !count <> !next_block then begin
      changed := true;
      next_block := !count;
      Array.blit new_block 0 block 0 n
    end
  done;
  let m = !next_block in
  let trans = Array.make (m * nc) 0 in
  let accept = Array.make m (-1) in
  for q = 0 to n - 1 do
    let b = block.(q) in
    accept.(b) <- d.accept.(q);
    for c = 0 to nc - 1 do
      trans.((b * nc) + c) <- block.(d.trans.((q * nc) + c))
    done
  done;
  bare ~start:block.(d.start) ~num_classes:nc ~classmap:d.classmap ~trans
    ~accept

let of_rules ?(minimize = true) ?(classes = true) ?(accel = Accel.Swar)
    ?max_states rules =
  let d = subset ~classes ?max_states (Nfa.of_rules rules) in
  attach accel (if minimize then minimize_dfa d else d)

let of_grammar ?minimize ?classes ?accel ?max_states src =
  of_rules ?minimize ?classes ?accel ?max_states (Parser.parse_grammar src)

let co_accessible d =
  let n = d.num_states in
  let nc = d.num_classes in
  (* reverse edges by counting sort: the predecessors of [q] are
     [src.(first.(q)) .. src.(first.(q + 1) - 1)] *)
  let first = Array.make (n + 1) 0 in
  Array.iter (fun q' -> first.(q' + 1) <- first.(q' + 1) + 1) d.trans;
  for q = 1 to n do
    first.(q) <- first.(q) + first.(q - 1)
  done;
  let fill = Array.sub first 0 n in
  let src = Array.make (n * nc) 0 in
  Array.iteri
    (fun i q' ->
      src.(fill.(q')) <- i / nc;
      fill.(q') <- fill.(q') + 1)
    d.trans;
  let coacc = Bits.create n in
  let stack = Array.make n 0 in
  let sp = ref 0 in
  let mark q =
    if not (Bits.mem coacc q) then begin
      Bits.add coacc q;
      stack.(!sp) <- q;
      incr sp
    end
  in
  for q = 0 to n - 1 do
    if d.accept.(q) >= 0 then mark q
  done;
  while !sp > 0 do
    decr sp;
    let q = stack.(!sp) in
    for i = first.(q) to first.(q + 1) - 1 do
      mark src.(i)
    done
  done;
  coacc

let reachable_nonempty d =
  let n = d.num_states in
  let nc = d.num_classes in
  (* reachable-from-start set (start reachable via ε) *)
  let reach = Bits.create n in
  Bits.add reach d.start;
  let stack = ref [ d.start ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | q :: rest ->
        stack := rest;
        for c = 0 to nc - 1 do
          let q' = d.trans.((q * nc) + c) in
          if not (Bits.mem reach q') then begin
            Bits.add reach q';
            stack := q' :: !stack
          end
        done
  done;
  (* a state is reachable by a nonempty string iff it is a successor of some
     reachable state *)
  let seen = Bits.create n in
  Bits.iter
    (fun q ->
      for c = 0 to nc - 1 do
        Bits.add seen d.trans.((q * nc) + c)
      done)
    reach;
  seen

let is_reject _d coacc q = not (Bits.mem coacc q)

let equal (a : t) b =
  a.num_states = b.num_states && a.start = b.start
  && a.num_classes = b.num_classes
  && a.classmap = b.classmap && a.trans = b.trans && a.accept = b.accept
  && Accel.equal a.accel b.accel

let pp fmt d =
  Format.fprintf fmt "dfa: %d states, start %d, %d classes@." d.num_states
    d.start d.num_classes;
  for q = 0 to d.num_states - 1 do
    let rule = d.accept.(q) in
    Format.fprintf fmt "  %d%s:" q
      (if rule >= 0 then Printf.sprintf " [rule %d]" rule else "");
    (* group target states by contiguous byte ranges *)
    let c = ref 0 in
    while !c <= 255 do
      let tgt = step d q (Char.chr !c) in
      let j = ref !c in
      while !j < 255 && step d q (Char.chr (!j + 1)) = tgt do
        incr j
      done;
      if !j > !c then Format.fprintf fmt " %02x-%02x->%d" !c !j tgt
      else Format.fprintf fmt " %02x->%d" !c tgt;
      c := !j + 1
    done;
    Format.fprintf fmt "@."
  done
