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
   pseudo-symbol.

   Powerstates are sparse. The restart set [inject] — the F paths of
   length 0, one per final state — is all-or-nothing in every powerstate:
   the start state and every real-symbol successor contain all of it, and
   an EOF successor contains no in-progress path at all. So a powerstate
   is stored as the sorted NFA ids of its other members (about 15 on a BPE
   vocabulary, against F·M·K + F·K NFA states), led by one reserved id
   when it holds [inject]. The run is canonical — equal powersets, equal
   runs — so interning it in a [Powerset] numbers powerstates exactly as
   the dense powerset would. *)

(* The materialized tables, replaced as one value when the automaton
   grows. [trans] holds [capacity × width] int32 cells (-1 = not yet
   built); [emit] holds [capacity × words] int64 emit-bit words;
   [accel_row] holds one int32 cell per state, its row in [accel] or -1.
   All three are flat bytes: copied by memcpy, never scanned by the GC. *)
type tables = { trans : Bytes.t; emit : Bytes.t; accel_row : Bytes.t }

type t = {
  dfa : Dfa.t;
  k : int;
  width : int;  (* columns per transition row: num_classes + 1 (EOF last) *)
  fidx : int array;
  num_finals : int;
  words : int;  (* int64 words per emit-bit row: ceil(|DFA|/64) *)
  finals_row : Bytes.t;  (* emit-bit row with every final state set *)
  tables : tables Atomic.t;  (* published whole: readers take no lock *)
  accel : Accel.t;  (* skip rows, appended on first entry *)
  sets : Powerset.t;  (* per state: its members, a sorted run *)
  injected : int array option array;
      (* per real class: the sorted successors of [inject], on first use *)
  mutable scratch : int array;  (* successor buffer for [step_set] *)
  mutable members : int array;  (* [step_set]'s copy of the powerstate *)
  (* NFA parameters *)
  m : int;
  qbits : int;  (* an NFA id's q field: its low [qbits] bits *)
  fbits : int;  (* its f0 field: the bits above [fbits] *)
  final_state : int array;  (* final index -> DFA state *)
  coacc : Bits.t;
  lock : Mutex.t;  (* guards materialization and the members *)
}

module Raw = struct
  type nonrec tables = tables

  let tables t = Atomic.get t.tables
  let trans tb = tb.trans
  let emit tb = tb.emit

  external cell : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
  external word : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

  let words t = t.words
  let width t = t.width
end

(* Cell [i] of an int32 table: the unchecked read of the hot paths. *)
let cell b i = Int32.to_int (Raw.cell b (i lsl 2))
let set_cell b i v = Bytes.set_int32_ne b (i lsl 2) (Int32.of_int v)

let eof_symbol = 256
let width t = t.width
let eof_class t = t.width - 1

(* NFA state ids, given M = DFA size, F = number of finals, K: an id
   packs (f0, j) above q, each field in a power-of-two stride
   (2^qbits > M, 2^(fbits - qbits) > K), so ids sort by (f0, j, q):
   - Active (f0, q, j), j ∈ 0..K-1:  id = f0·2^fbits + j·2^qbits + q
   - Done (f0, j), j ∈ 1..K:         the same with the sentinel q = M
   Accepting states are Done (f0, K); Λ(Done (f0, _)) = f0. The Active
   states with j = 0 are exactly [inject]: (f0, final_state f0, 0). No
   powerstate stores them; [restart], the id (0, 0, 0) of that otherwise
   unused j = 0 plane, stands for all of them. *)

let restart = 0
let nfa_id t f0 q j = (f0 lsl t.fbits) lor (j lsl t.qbits) lor q
let q_of t id = id land ((1 lsl t.qbits) - 1)
let j_of t id = (id land ((1 lsl t.fbits) - 1)) lsr t.qbits

(* The successor of NFA state [id] on class [cls], or -1 when the path
   dies. Every symbol, EOF too, advances the padding: Done (f0, j) ->
   Done (f0, j+1), one q-stride up. EOF kills in-progress paths, and
   in-progress paths through dead DFA states can never complete, so they
   are pruned. *)
let succ t id cls =
  let q = q_of t id and j = j_of t id in
  let next = id - q + (1 lsl t.qbits) in
  if q = t.m then if j < t.k then next + t.m else -1
  else if cls = eof_class t then -1
  else
    let q' = Dfa.step_class t.dfa q cls in
    if Dfa.is_final t.dfa q' then next + t.m
    else if j + 1 < t.k && Bits.mem t.coacc q' then next + q'
    else -1

(* The successors of [inject] on real class [cls] are the same for every
   powerstate that holds it: derived once per class (under the lock), in
   ascending f0 and so sorted. *)
let injected t cls =
  match t.injected.(cls) with
  | Some a -> a
  | None ->
      let l = ref [] in
      for f0 = t.num_finals - 1 downto 0 do
        let s = succ t (nfa_id t f0 t.final_state.(f0) 0) cls in
        if s >= 0 then l := s :: !l
      done;
      let a = Array.of_list !l in
      t.injected.(cls) <- Some a;
      a

(* One NFA step of powerstate [s] on a symbol class ([eof_class t] for
   EOF), written sorted into the scratch buffer; returns its length.
   Restart injection applies to real symbols only. A member is fixed by
   its (f0, j) — the path injected at f0 j symbols ago, walked by a
   deterministic DFA — and a step maps (f0, j) to (f0, j+1), so the
   stepped members stay distinct and in order, all with j ≥ 2; the
   injected ones (j = 1) are merged in. *)
let step_set t s cls =
  let m = Powerset.size t.sets s in
  if Array.length t.members < m then
    t.members <- Array.make (max m (2 * Array.length t.members)) 0;
  let mem = t.members in
  ignore (Powerset.members t.sets s mem);
  let real = cls <> eof_class t in
  let held = m > 0 && mem.(0) = restart in
  let inj = if held && real then injected t cls else [||] in
  let need = m + Array.length inj + 1 in
  if Array.length t.scratch < need then
    t.scratch <- Array.make (max need (2 * Array.length t.scratch)) 0;
  let buf = t.scratch in
  buf.(0) <- restart; (* kept on a real symbol only *)
  let n = ref (if real then 1 else 0) and i = ref 0 in
  for p = (if held then 1 else 0) to m - 1 do
    let x = mem.(p) in
    let y = succ t x cls in
    if y >= 0 then begin
      while !i < Array.length inj && inj.(!i) < y do
        buf.(!n) <- inj.(!i);
        incr n;
        incr i
      done;
      buf.(!n) <- y;
      incr n
    end
  done;
  let rest = Array.length inj - !i in
  Array.blit inj !i buf !n rest;
  !n + rest

(* Powerstates are sorted runs: a candidate equals the probe entry by
   entry. *)
let same buf i x = buf.(i) = x

(* [cap]-row tables holding the first [n] rows of [old]; the rest of the
   cells read -1 and the rest of the emit words 0. *)
let resize ~width ~words old n cap =
  let copy b row fill =
    let b' = Bytes.create (cap * row) in
    Bytes.blit b 0 b' 0 (n * row);
    Bytes.fill b' (n * row) ((cap - n) * row) fill;
    b'
  in
  {
    trans = copy old.trans (4 * width) '\255';
    emit = copy old.emit (8 * words) '\000';
    accel_row = copy old.accel_row 4 '\255';
  }

(* Everything is allocated before anything is assigned, so a failed
   allocation leaves the automaton as it was; the new tables are
   published last, in one write. *)
let grow t =
  let n = Powerset.count t.sets in
  Atomic.set t.tables
    (resize ~width:t.width ~words:t.words (Atomic.get t.tables) n (2 * n))

(* The id of the powerstate in the first [n] entries of the scratch
   buffer, interning it if new. A new one gets a row, the tables growing
   when full, and the bit of final q in its emit row is set unless a
   completed extension path Done (f0, K) starts at q = final_state f0.
   The row is complete before the id is known to anyone: only
   [materialize] hands it out, by writing a cell after this returns. *)
let intern t n =
  let id = Powerset.find t.sets ~same t.scratch n in
  if id >= 0 then id
  else begin
    let id = Powerset.count t.sets in
    if id = Bytes.length (Atomic.get t.tables).accel_row / 4 then grow t;
    let emit = (Atomic.get t.tables).emit and row = 8 * id * t.words in
    Bytes.blit t.finals_row 0 emit row (8 * t.words);
    let done_k = nfa_id t 0 t.m t.k in
    for i = 0 to n - 1 do
      let x = t.scratch.(i) in
      if x land ((1 lsl t.fbits) - 1) = done_k then begin
        let q = t.final_state.(x lsr t.fbits) in
        let o = row + (8 * (q lsr 6)) in
        Bytes.set_int64_ne emit o
          (Int64.logand (Bytes.get_int64_ne emit o)
             (Int64.lognot (Int64.shift_left 1L (q land 63))))
      end
    done;
    Powerset.add t.sets t.scratch n
  end

let build ~coacc dfa ~k =
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
  let final_state = Array.make (max f 1) 0 in
  for q = 0 to m - 1 do
    if fidx.(q) >= 0 then final_state.(fidx.(q)) <- q
  done;
  let words = (m + 63) / 64 in
  let finals_row = Bytes.make (8 * words) '\000' in
  for q = 0 to m - 1 do
    if fidx.(q) >= 0 then begin
      let o = 8 * (q lsr 6) in
      Bytes.set_int64_ne finals_row o
        (Int64.logor
           (Bytes.get_int64_ne finals_row o)
           (Int64.shift_left 1L (q land 63)))
    end
  done;
  let none =
    { trans = Bytes.empty; emit = Bytes.empty; accel_row = Bytes.empty }
  in
  (* the number of bits that hold 0..x *)
  let rec bits x = if x = 0 then 0 else 1 + bits (x lsr 1) in
  let qbits = bits m in
  let fbits = qbits + bits k in
  let t =
    {
      dfa;
      k;
      width;
      fidx;
      num_finals = f;
      words;
      finals_row;
      tables = Atomic.make (resize ~width ~words none 0 1);
      accel = Accel.create (Accel.level dfa.Dfa.accel) ~capacity:0;
      sets = Powerset.create (max f 1 lsl fbits);
      injected = Array.make (width - 1) None;
      scratch = Array.make 64 0;
      members = Array.make 64 0;
      m;
      qbits;
      fbits;
      final_state;
      coacc;
      lock = Mutex.create ();
    }
  in
  t.scratch.(0) <- restart;
  let start = intern t 1 in
  assert (start = 0);
  t

(* Materialization (which may grow and replace the tables) is serialized;
   readers race benignly — a stale table holds -1 where the current one
   may not, and the miss comes here, where the current table decides. *)
let materialize t s cls =
  Mutex.protect t.lock (fun () ->
      let i = (s * t.width) + cls in
      match cell (Atomic.get t.tables).trans i with
      | tgt when tgt >= 0 -> tgt
      | _ ->
          let id = intern t (step_set t s cls) in
          (* intern may have grown the tables: write into the current ones *)
          set_cell (Atomic.get t.tables).trans i id;
          id)

let step_class t s cls =
  let trans = (Atomic.get t.tables).trans in
  let tgt = Int32.to_int (Bytes.get_int32_ne trans (((s * t.width) + cls) lsl 2)) in
  if tgt >= 0 then tgt else materialize t s cls

let class_of_symbol t sym =
  if sym = eof_symbol then eof_class t else Dfa.class_of_byte t.dfa sym

let step t s sym = step_class t s (class_of_symbol t sym)

let emit_bit t s q =
  let emit = (Atomic.get t.tables).emit in
  Int64.logand
    (Int64.shift_right_logical
       (Raw.word emit (((s * t.words) + (q lsr 6)) lsl 3))
       (q land 63))
    1L
  <> 0L

let num_states t = Powerset.count t.sets

(* Done (f0, K) is a member exactly when the emit bit of final_state f0
   is clear. *)
let extendable t s q = t.fidx.(q) >= 0 && not (emit_bit t s q)

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
  Mutex.protect t.lock (fun () ->
      let rows = (Atomic.get t.tables).accel_row in
      match cell rows s with
      | r when r >= 0 -> r
      | _ ->
          let r = Accel.add_row t.accel ~classmap:t.dfa.Dfa.classmap ~loops in
          set_cell rows s r;
          r)

let accel t = t.accel

let accel_row t s =
  let r = cell (Atomic.get t.tables).accel_row s in
  if r >= 0 then r else derive_accel_row t s

(* A bytes block: its header and its words, the last padded. *)
let block b = 8 * ((Bytes.length b / 8) + 2)

let accel_bytes t =
  Accel.bytes t.accel + block (Atomic.get t.tables).accel_row

(* Heap bytes as allocated: the tables at capacity with their headers,
   the record and atomic that publish them, the interned powerstates, the
   restart successors (each a [Some] box and its array), and the fixed
   per-DFA arrays. *)
let bytes t =
  let arr n = 8 * (n + 1) in
  let injected acc = function Some a -> acc + 16 + arr (Array.length a) | None -> acc in
  Mutex.protect t.lock (fun () ->
      let tb = Atomic.get t.tables in
      block tb.trans + block tb.emit + 32 + 16
      + Powerset.bytes t.sets
      + Array.fold_left injected (arr (Array.length t.injected)) t.injected
      + arr (Array.length t.scratch)
      + arr (Array.length t.members)
      + block t.finals_row
      + arr (Array.length t.fidx)
      + arr (Array.length t.final_state)
      + arr ((t.m / Sys.int_size) + 1)
      + accel_bytes t)

let start _t = 0
let k t = t.k

let equal a b =
  let n = num_states a in
  let runs t =
    List.init n (fun s ->
        let run = Array.make (Powerset.size t.sets s) 0 in
        ignore (Powerset.members t.sets s run);
        run)
  in
  Dfa.equal a.dfa b.dfa && a.k = b.k && Bits.equal a.coacc b.coacc
  && n = num_states b
  && Bytes.sub (Atomic.get a.tables).trans 0 (4 * n * a.width)
     = Bytes.sub (Atomic.get b.tables).trans 0 (4 * n * b.width)
  && runs a = runs b

let num_finals t = t.num_finals
let final_index t q = t.fidx.(q)
