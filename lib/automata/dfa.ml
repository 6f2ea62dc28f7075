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
   start from one block and, one distinct charset at a time, move its
   members out of every class it covers only in part. The classes are
   renumbered by first byte occurrence at the end, so the numbering depends
   only on the partition: the result is deterministic for a given NFA,
   whatever the order of its charsets. *)
let equiv_classes (nfa : Nfa.t) =
  let cls = Array.make 256 0 in
  let size = Array.make 256 0 in
  size.(0) <- 256;
  let num = ref 1 in
  (* per class: the charset's members in it, and the class they move to *)
  let hits = Array.make 256 0 in
  let moved = Array.make 256 (-1) in
  let count c =
    let o = cls.(Char.code c) in
    hits.(o) <- hits.(o) + 1
  in
  let move c =
    let b = Char.code c in
    let o = cls.(b) in
    if hits.(o) < size.(o) then begin
      if moved.(o) < 0 then begin
        moved.(o) <- !num;
        incr num
      end;
      cls.(b) <- moved.(o)
    end
  in
  let split cs =
    let old = !num in
    Charset.iter count cs;
    Charset.iter move cs;
    for o = 0 to old - 1 do
      if moved.(o) >= 0 then begin
        size.(moved.(o)) <- hits.(o);
        size.(o) <- size.(o) - hits.(o);
        moved.(o) <- -1
      end;
      hits.(o) <- 0
    done
  in
  Array.fold_left (fun acc l -> List.rev_map fst l @ acc) [] nfa.Nfa.trans
  |> List.sort_uniq Charset.compare
  |> List.iter split;
  let renum = Array.make !num (-1) in
  let next = ref 0 in
  let classmap = Bytes.create 256 in
  for b = 0 to 255 do
    let o = cls.(b) in
    if renum.(o) < 0 then begin
      renum.(o) <- !next;
      incr next
    end;
    Bytes.set classmap b (Char.chr renum.(o))
  done;
  (Bytes.unsafe_to_string classmap, !num)

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

(* [offsets lists]: the items of list [s] go to
   [flat.(first.(s)) .. flat.(first.(s + 1) - 1)] *)
let offsets lists =
  let n = Array.length lists in
  let first = Array.make (n + 1) 0 in
  Array.iteri (fun s l -> first.(s + 1) <- first.(s) + List.length l) lists;
  first

(* Subset construction by scatter. Each labeled NFA edge is resolved once
   to the class ids its charset covers. A DFA state costs one walk over its
   NFA set, chaining each edge's target into the bucket of every class it
   covers; each class that got a target is then closed in one scratch set
   and interned, and every other class goes to the dead (empty) set,
   interned at its first use. Classes are taken in ascending order and
   states numbered in discovery order, as a step per class would number
   them, so the worklist is just the next state id.

   Nothing here is allocated per DFA state or per (state, class) cell: NFA
   sets are interned in a [Powerset]; rows go into blocks of 64 states;
   and the buckets, the scratch set and the closure queue are allocated
   once, at their largest size. *)
let subset ~classes ?max_states (nfa : Nfa.t) =
  let classmap, nc =
    if classes then equiv_classes nfa else (identity_classmap, 256)
  in
  let ns = nfa.Nfa.num_states in
  let eps_at = offsets nfa.Nfa.eps in
  let eps_dst = Array.make eps_at.(ns) 0 in
  Array.iteri
    (fun s l -> List.iteri (fun i q -> eps_dst.(eps_at.(s) + i) <- q) l)
    nfa.Nfa.eps;
  (* labeled edges, each with the run of classes its charset covers *)
  let edge_at = offsets nfa.Nfa.trans in
  let num_edges = edge_at.(ns) in
  let edge_dst = Array.make num_edges 0 in
  let cls_at = Array.make (num_edges + 1) 0 in
  let cls_of = St_util.Int_vec.create () in
  let stamp = Array.make nc (-1) in
  let edge = ref 0 in
  let cover c =
    let k = Char.code (String.unsafe_get classmap (Char.code c)) in
    if stamp.(k) <> !edge then begin
      stamp.(k) <- !edge;
      St_util.Int_vec.push cls_of k
    end
  in
  Array.iter
    (List.iter (fun (cs, q) ->
         edge_dst.(!edge) <- q;
         Charset.iter cover cs;
         incr edge;
         cls_at.(!edge) <- St_util.Int_vec.length cls_of))
    nfa.Nfa.trans;
  let cls_of = St_util.Int_vec.to_array cls_of in
  (* the buckets: class [c]'s targets are chained from [head.(c)] through
     [next]; a DFA state holds each NFA state once, so the chains never
     hold more entries than there are (edge, class) pairs *)
  let head = Array.make nc (-1) in
  let ent = Array.make (Array.length cls_of) 0 in
  let next = Array.make (Array.length cls_of) 0 in
  (* the closure under construction: its members, in [buf] and [inset] *)
  let inset = Bits.create ns in
  let buf = Array.make ns 0 in
  let seed n q =
    if Bits.mem inset q then n
    else begin
      Bits.add inset q;
      buf.(n) <- q;
      n + 1
    end
  in
  let close n =
    let n = ref n and i = ref 0 in
    while !i < !n do
      let s = buf.(!i) in
      for j = eps_at.(s) to eps_at.(s + 1) - 1 do
        n := seed !n eps_dst.(j)
      done;
      incr i
    done;
    !n
  in
  (* interned sets: [buf]'s closures list their members in no order, so a
     candidate is compared through [inset]. A row starts from a copy of its
     state's members in [buf], read before the row's first closure. *)
  let sets = Powerset.create ns in
  let accept = St_util.Int_vec.create () in
  let same _ _ x = Bits.mem inset x in
  (* the id of the set [buf.(0 .. n - 1)], interning it if new *)
  let intern n =
    let id = Powerset.find sets ~same buf n in
    for i = 0 to n - 1 do
      Bits.remove inset buf.(i)
    done;
    if id >= 0 then id
    else begin
      (match max_states with
      | Some cap when Powerset.count sets >= cap ->
          failwith
            (Printf.sprintf
               "Dfa.of_nfa: subset construction exceeded %d states \
                (max_states cap)"
               cap)
      | _ -> ());
      let rule = ref (-1) in
      for i = 0 to n - 1 do
        let r = nfa.Nfa.accept_rule.(buf.(i)) in
        if r >= 0 && (!rule < 0 || r < !rule) then rule := r
      done;
      St_util.Int_vec.push accept !rule;
      Powerset.add sets buf n
    end
  in
  let start_id = intern (close (seed 0 nfa.Nfa.start)) in
  let dead = ref (-1) in
  (* rows are written into blocks of [block] states, newest first, and
     copied once into the table at the end: growing never copies a row *)
  let block = 64 in
  let blocks = ref [] in
  let q = ref 0 in
  while !q < Powerset.count sets do
    if !q mod block = 0 then blocks := Array.make (block * nc) 0 :: !blocks;
    let rows = List.hd !blocks and row = !q mod block * nc in
    let used = ref 0 in
    for j = 0 to Powerset.members sets !q buf - 1 do
      let s = buf.(j) in
      for e = edge_at.(s) to edge_at.(s + 1) - 1 do
        for k = cls_at.(e) to cls_at.(e + 1) - 1 do
          let c = cls_of.(k) in
          ent.(!used) <- edge_dst.(e);
          next.(!used) <- head.(c);
          head.(c) <- !used;
          incr used
        done
      done
    done;
    for c = 0 to nc - 1 do
      let id =
        if head.(c) < 0 then begin
          if !dead < 0 then dead := intern 0;
          !dead
        end
        else begin
          let n = ref 0 and e = ref head.(c) in
          while !e >= 0 do
            n := seed !n ent.(!e);
            e := next.(!e)
          done;
          head.(c) <- -1;
          intern (close !n)
        end
      in
      rows.(row + c) <- id
    done;
    incr q
  done;
  let trans = Array.make (Powerset.count sets * nc) 0 in
  List.iteri
    (fun i rows ->
      let at = i * block * nc in
      Array.blit rows 0 trans at
        (Int.min (block * nc) (Array.length trans - at)))
    (List.rev !blocks);
  bare ~start:start_id ~num_classes:nc ~classmap ~trans
    ~accept:(St_util.Int_vec.to_array accept)

let of_nfa ?(classes = true) ?(accel = Accel.Swar) ?max_states nfa =
  attach accel (subset ~classes ?max_states nfa)

(* Moore minimization, in class space. The initial partition separates
   states by Λ (so distinct token ids are never merged); refinement splits
   blocks whose members disagree on the block of some successor. A round
   hashes each state's signature — its block, then its successors' blocks
   — straight off its row, and finds the first state with the same
   signature through one open-addressed table of representatives, so a
   round allocates nothing. The classmap is unchanged: merging states
   never coarsens the alphabet. *)
let minimize_dfa d =
  let n = d.num_states in
  let nc = d.num_classes in
  let trans = d.trans in
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
  let new_block = Array.make n 0 in
  let sig_hash = Array.make n 0 in
  (* the representatives' table, at most half full *)
  let size = ref 2 in
  while !size < 2 * n do
    size := 2 * !size
  done;
  let slots = Array.make !size (-1) in
  let mask = !size - 1 in
  let same_sig r q =
    block.(r) = block.(q)
    &&
    let c = ref 0 in
    while
      !c < nc
      && block.(trans.((r * nc) + !c)) = block.(trans.((q * nc) + !c))
    do
      incr c
    done;
    !c = nc
  in
  let changed = ref true in
  while !changed do
    Array.fill slots 0 (mask + 1) (-1);
    let count = ref 0 in
    for q = 0 to n - 1 do
      let row = q * nc in
      let h = ref block.(q) in
      for c = 0 to nc - 1 do
        h := (!h * 31) + block.(trans.(row + c))
      done;
      let h = Powerset.mix !h in
      sig_hash.(q) <- h;
      let i = ref (h land mask) and b = ref (-1) in
      while !b < 0 do
        let r = slots.(!i) in
        if r < 0 then begin
          slots.(!i) <- q;
          b := !count;
          incr count
        end
        else if sig_hash.(r) = h && same_sig r q then b := new_block.(r)
        else i := (!i + 1) land mask
      done;
      new_block.(q) <- !b
    done;
    changed := !count <> !next_block;
    if !changed then begin
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
  (* reverse edges by counting sort, each (source, target) pair once: the
     predecessors of [q] are [src.(first.(q)) .. src.(first.(q + 1) - 1)].
     [last.(q')] is the latest row that counted [q'], so a row's repeated
     targets (on a vocabulary, nearly every class goes to the dead state)
     take one entry, not one per class. *)
  let first = Array.make (n + 1) 0 in
  let last = Array.make n (-1) in
  let each_edge f =
    Array.fill last 0 n (-1);
    for q = 0 to n - 1 do
      for c = 0 to nc - 1 do
        let q' = d.trans.((q * nc) + c) in
        if last.(q') <> q then begin
          last.(q') <- q;
          f q q'
        end
      done
    done
  in
  each_edge (fun _ q' -> first.(q' + 1) <- first.(q' + 1) + 1);
  for q = 1 to n do
    first.(q) <- first.(q) + first.(q - 1)
  done;
  let fill = Array.sub first 0 n in
  let src = Array.make first.(n) 0 in
  each_edge (fun q q' ->
      src.(fill.(q')) <- q;
      fill.(q') <- fill.(q') + 1);
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

(* Every state of a [t] is reachable from the start: subset construction
   interns only the sets it reaches, and minimization merges states
   without adding any. So a state is reached by a nonempty string iff some
   transition enters it. *)
let reachable_nonempty d =
  let seen = Bits.create d.num_states in
  let prev = ref (-1) in
  for i = 0 to Array.length d.trans - 1 do
    let q = d.trans.(i) in
    if q <> !prev then begin
      prev := q;
      Bits.add seen q
    end
  done;
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
