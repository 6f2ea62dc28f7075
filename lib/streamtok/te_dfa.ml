open St_automata
module Bits = St_util.Bits

(* The token-extension DFA is built *lazily*: a powerstate's transitions
   are materialized the first time they are taken. Eager construction can
   be exponential in K (each subset of "which of the last K positions can
   still extend a token" is a distinct powerstate); on any concrete stream
   only the windows that actually occur are materialized, so the lazy
   automaton keeps the O(1) amortized per-symbol cost for arbitrary K.
   This realizes the paper's implementation note that the token-extension
   paths are kept in a compact shared structure from which the TeDFA is
   built without enumerating paths.

   Rows are indexed by the underlying DFA's byte equivalence classes, not
   raw bytes: bytes the DFA cannot distinguish take identical extension
   paths, so the powerset step factors through the classmap. A row is
   [width = num_classes + 1] wide; the last column is the EOF
   pseudo-symbol. *)

module Set_key = struct
  type t = Bits.t

  let equal = Bits.equal
  let hash = Bits.hash
end

module Set_tbl = Hashtbl.Make (Set_key)

type t = {
  dfa : Dfa.t;
  k : int;
  width : int;  (* columns per transition row: num_classes + 1 (EOF last) *)
  fidx : int array;
  num_finals : int;
  words : int;  (* int64 words per emit-bit row: ceil(|DFA|/64) *)
  mutable num_states : int;
  mutable capacity : int;
  mutable trans : int array;  (* capacity × width; -1 = not yet built *)
  mutable emit_rows : int64 array;  (* capacity × words *)
  mutable origin_rows : Bits.t array;  (* per state: extendable finals *)
  mutable sets : Bits.t array;  (* per state: the NFA powerset *)
  accel : Accel.t;  (* skip rows, appended on first entry *)
  mutable accel_row : int array;  (* per state: its row in [accel], or -1 *)
  tbl : int Set_tbl.t;
  (* NFA parameters *)
  m : int;
  active_count : int;
  nfa_size : int;
  inject : Bits.t;
  final_state : int array;  (* final index -> DFA state *)
  coacc : Bits.t;
  scratch : Bits.t;
  start : int;
  lock : Mutex.t;  (* guards materialization; reads are lock-free *)
}

let eof_symbol = 256
let width t = t.width
let eof_class t = t.width - 1

(* NFA state encoding, given M = DFA size, F = number of finals, K:
   - Active (f0, q, j), j ∈ 0..K-1:  id = f0*M*K + q*K + j
   - Done (f0, j), j ∈ 1..K:         id = F*M*K + f0*K + (j-1)
   Accepting states are Done (f0, K); Λ(Done (f0, _)) = f0. *)

let active t f0 q j = (f0 * t.m * t.k) + (q * t.k) + j
let done_ t f0 j = t.active_count + (f0 * t.k) + (j - 1)

let grow t =
  let cap = 2 * t.capacity in
  let trans = Array.make (cap * t.width) (-1) in
  Array.blit t.trans 0 trans 0 (t.num_states * t.width);
  t.trans <- trans;
  let emit_rows = Array.make (cap * t.words) 0L in
  Array.blit t.emit_rows 0 emit_rows 0 (t.num_states * t.words);
  t.emit_rows <- emit_rows;
  let origin_rows = Array.make cap (Bits.create 0) in
  Array.blit t.origin_rows 0 origin_rows 0 t.num_states;
  t.origin_rows <- origin_rows;
  let sets = Array.make cap (Bits.create 0) in
  Array.blit t.sets 0 sets 0 t.num_states;
  t.sets <- sets;
  let accel_row = Array.make cap (-1) in
  Array.blit t.accel_row 0 accel_row 0 t.num_states;
  t.accel_row <- accel_row;
  t.capacity <- cap

(* intern a powerset, computing its origin set and emit-bit row *)
let intern t set =
  match Set_tbl.find_opt t.tbl set with
  | Some id -> id
  | None ->
      if t.num_states = t.capacity then grow t;
      let id = t.num_states in
      t.num_states <- id + 1;
      Set_tbl.add t.tbl set id;
      t.sets.(id) <- set;
      let origin = Bits.create (max t.num_finals 1) in
      for f0 = 0 to t.num_finals - 1 do
        if Bits.mem set (done_ t f0 t.k) then Bits.add origin f0
      done;
      t.origin_rows.(id) <- origin;
      (* emit bit for (id, q): q final and no completed extension path *)
      for q = 0 to t.m - 1 do
        if t.fidx.(q) >= 0 && not (Bits.mem origin t.fidx.(q)) then
          t.emit_rows.((id * t.words) + (q lsr 6)) <-
            Int64.logor
              t.emit_rows.((id * t.words) + (q lsr 6))
              (Int64.shift_left 1L (q land 63))
      done;
      id

(* one NFA step of the whole powerset on a symbol class ([eof_class t] for
   EOF); restart injection applied for real symbols only *)
let step_set t set cls into =
  Bits.clear into;
  let dfa = t.dfa in
  let is_eof = cls = eof_class t in
  Bits.iter
    (fun id ->
      if id < t.active_count then begin
        if not is_eof then begin
          let f0 = id / (t.m * t.k) in
          let rem = id mod (t.m * t.k) in
          let q = rem / t.k and j = rem mod t.k in
          let q = if j = 0 then t.final_state.(f0) else q in
          let q' = Dfa.step_class dfa q cls in
          let j' = j + 1 in
          if Dfa.is_final dfa q' then Bits.add into (done_ t f0 j')
          else if j' < t.k && Bits.mem t.coacc q' then
            (* dead DFA states can never complete a path: prune *)
            Bits.add into (active t f0 q' j')
        end
      end
      else begin
        let id' = id - t.active_count in
        let f0 = id' / t.k and j = (id' mod t.k) + 1 in
        if j < t.k then Bits.add into (done_ t f0 (j + 1))
      end)
    set;
  if not is_eof then Bits.union_into ~dst:into t.inject

let build dfa ~k =
  assert (k >= 1);
  let m = Dfa.size dfa in
  let width = Dfa.num_classes dfa + 1 in
  let fidx = Array.make m (-1) in
  let num_finals = ref 0 in
  for q = 0 to m - 1 do
    if Dfa.is_final dfa q then begin
      fidx.(q) <- !num_finals;
      incr num_finals
    end
  done;
  let f = !num_finals in
  let active_count = f * m * k in
  let nfa_size = active_count + (f * k) in
  let final_state = Array.make (max f 1) 0 in
  for q = 0 to m - 1 do
    if fidx.(q) >= 0 then final_state.(fidx.(q)) <- q
  done;
  let inject = Bits.create nfa_size in
  for q = 0 to m - 1 do
    if fidx.(q) >= 0 then Bits.add inject ((fidx.(q) * m * k) + (q * k)) (* j = 0 *)
  done;
  let capacity = 16 in
  let words = (m + 63) / 64 in
  let t =
    {
      dfa;
      k;
      width;
      fidx;
      num_finals = f;
      words;
      num_states = 0;
      capacity;
      trans = Array.make (capacity * width) (-1);
      emit_rows = Array.make (capacity * words) 0L;
      origin_rows = Array.make capacity (Bits.create 0);
      sets = Array.make capacity (Bits.create 0);
      accel = Accel.create (Accel.level dfa.Dfa.accel) ~capacity:0;
      accel_row = Array.make capacity (-1);
      tbl = Set_tbl.create 64;
      m;
      active_count;
      nfa_size;
      inject;
      final_state;
      coacc = Dfa.co_accessible dfa;
      scratch = Bits.create nfa_size;
      start = 0;
      lock = Mutex.create ();
    }
  in
  let start = intern t (Bits.copy inject) in
  assert (start = 0);
  t

let materialize t s cls =
  (* Multi-domain safety: materialization (which may grow and replace the
     arrays) is serialized; readers race benignly — a stale array read
     yields -1 and falls back here. *)
  Mutex.lock t.lock;
  let id =
    match t.trans.((s * t.width) + cls) with
    | tgt when tgt >= 0 -> tgt
    | _ ->
        step_set t t.sets.(s) cls t.scratch;
        let id = intern t (Bits.copy t.scratch) in
        (* t.trans may have been reallocated by intern/grow: write after *)
        t.trans.((s * t.width) + cls) <- id;
        id
  in
  Mutex.unlock t.lock;
  id

let step_class t s cls =
  let tgt = t.trans.((s * t.width) + cls) in
  if tgt >= 0 then tgt else materialize t s cls

let class_of_symbol t sym =
  if sym = eof_symbol then eof_class t else Dfa.class_of_byte t.dfa sym

let step t s sym = step_class t s (class_of_symbol t sym)

let extendable t s q =
  let f0 = t.fidx.(q) in
  f0 >= 0 && Bits.mem t.origin_rows.(s) f0

let emit_bit t s q =
  Int64.logand
    (Int64.shift_right_logical
       (Array.unsafe_get t.emit_rows ((s * t.words) + (q lsr 6)))
       (q land 63))
    1L
  <> 0L

let num_states t = t.num_states

(* A powerstate's skip row is derived the first time a skip loop enters
   it as the lookahead state, from its real-symbol self-loop classes (EOF
   excluded — the skip loop never feeds it). [step_class] does its own
   locking, so the self-loop classes are found outside the mutex and only
   the append and its publication are serialized; a racing reader that
   sees a stale -1 just takes the lock and finds the row published. *)
let derive_accel_row t s =
  let ncls = t.width - 1 in
  let loops = Bytes.create ncls in
  for cls = 0 to ncls - 1 do
    Bytes.set loops cls (if step_class t s cls = s then '\001' else '\000')
  done;
  Mutex.lock t.lock;
  let r =
    match t.accel_row.(s) with
    | r when r >= 0 -> r
    | _ ->
        let r = Accel.add_row t.accel ~classmap:t.dfa.Dfa.classmap ~loops in
        t.accel_row.(s) <- r;
        r
  in
  Mutex.unlock t.lock;
  r

let accel t = t.accel

let accel_row t s =
  let r = Array.unsafe_get t.accel_row s in
  if r >= 0 then r else derive_accel_row t s

let accel_bytes t = Accel.bytes t.accel + (8 * Array.length t.accel_row)

let start _t = 0
let k t = t.k
let num_finals t = t.num_finals
let final_index t q = t.fidx.(q)

module Raw = struct
  let trans t = t.trans
  let emit_rows t = t.emit_rows
  let words t = t.words
  let width t = t.width
end
