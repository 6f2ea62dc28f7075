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
   is stored as one flag for [inject] plus the sorted NFA ids of its other
   members (about 15 on a BPE vocabulary, against F·M·K + F·K possible
   ids). The key is canonical — equal powersets, equal keys — so interning
   on it numbers powerstates exactly as the dense powerset would. *)

(* A powerstate: [inj] says it holds [inject]; the first [len] entries of
   [mem] are its other members, sorted and distinct. Interned keys own
   their [mem] ([len = Array.length mem]); a lookup probe points into the
   materialization scratch buffer. *)
module Key = struct
  type t = { inj : bool; mem : int array; len : int }

  let equal a b =
    a.inj = b.inj && a.len = b.len
    &&
    let rec go i = i >= a.len || (a.mem.(i) = b.mem.(i) && go (i + 1)) in
    go 0

  let hash k =
    let h = ref (Bool.to_int k.inj) in
    for i = 0 to k.len - 1 do
      h := (!h * 31) + k.mem.(i)
    done;
    !h lxor (!h lsr 29)
end

module Key_tbl = Hashtbl.Make (Key)

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
  mutable side_words : int;
      (* heap words of the keys and the restart successors *)
  mutable num_states : int;
  tables : tables Atomic.t;  (* published whole: readers take no lock *)
  mutable keys : Key.t array;  (* per state: its powerstate; at capacity *)
  accel : Accel.t;  (* skip rows, appended on first entry *)
  tbl : int Key_tbl.t;
  injected : int array option array;
      (* per real class: the sorted successors of [inject], on first use *)
  mutable scratch : int array;  (* successor buffer for [step_set] *)
  (* NFA parameters *)
  m : int;
  active_count : int;
  final_state : int array;  (* final index -> DFA state *)
  coacc : Bits.t;
  lock : Mutex.t;  (* guards materialization; reads are lock-free *)
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

(* NFA state encoding, given M = DFA size, F = number of finals, K:
   - Active (f0, q, j), j ∈ 0..K-1:  id = f0*M*K + q*K + j
   - Done (f0, j), j ∈ 1..K:         id = F*M*K + f0*K + (j-1)
   Accepting states are Done (f0, K); Λ(Done (f0, _)) = f0. The Active
   states with j = 0 are exactly [inject]: (f0, final_state f0, 0). *)

let active t f0 q j = (f0 * t.m * t.k) + (q * t.k) + j
let done_ t f0 j = t.active_count + (f0 * t.k) + (j - 1)

(* EOF kills in-progress paths and advances the padding:
   Done (f0, j) -> Done (f0, j+1), whose id is the next one. *)
let succ_eof t id =
  if id >= t.active_count && (id - t.active_count) mod t.k < t.k - 1 then
    id + 1
  else -1

(* The successor of NFA state [id] on real class [cls], or -1 when the
   path dies. In-progress paths through dead DFA states can never
   complete, so they are pruned; padding advances as at EOF. *)
let succ t id cls =
  if id < t.active_count then begin
    let f0 = id / (t.m * t.k) in
    let rem = id mod (t.m * t.k) in
    let q' = Dfa.step_class t.dfa (rem / t.k) cls and j' = (rem mod t.k) + 1 in
    if Dfa.is_final t.dfa q' then done_ t f0 j'
    else if j' < t.k && Bits.mem t.coacc q' then active t f0 q' j'
    else -1
  end
  else succ_eof t id

(* The successors of [inject] on real class [cls] are the same for every
   powerstate that holds it: derived once per class (under the lock). *)
let injected t cls =
  match t.injected.(cls) with
  | Some a -> a
  | None ->
      let l = ref [] in
      for f0 = t.num_finals - 1 downto 0 do
        let s = succ t (active t f0 t.final_state.(f0) 0) cls in
        if s >= 0 then l := s :: !l
      done;
      let a = Array.of_list !l in
      Array.sort Int.compare a;
      t.injected.(cls) <- Some a;
      t.side_words <- t.side_words + 2 + Array.length a + 1;
      a

(* In-place heapsort of [a.(0 .. n-1)]. *)
let sort_prefix a n =
  let swap i j =
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  in
  let rec sift i n =
    let l = (2 * i) + 1 in
    if l < n then begin
      let c = if l + 1 < n && a.(l + 1) > a.(l) then l + 1 else l in
      if a.(c) > a.(i) then begin
        swap i c;
        sift c n
      end
    end
  in
  for i = (n / 2) - 1 downto 0 do
    sift i n
  done;
  for e = n - 1 downto 1 do
    swap 0 e;
    sift 0 e
  done

(* One NFA step of the whole powerstate on a symbol class ([eof_class t]
   for EOF), written into the scratch buffer and returned as a probe key:
   restart injection applies to real symbols only. The successors need no
   dedup: a member is fixed by its (f0, j) — the path injected at f0 j
   symbols ago, walked by a deterministic DFA — and a step maps (f0, j) to
   (f0, j+1), so distinct members have distinct successors, all with
   j ≥ 2, apart from the injected ones (j = 1). *)
let step_set t (key : Key.t) cls =
  let is_eof = cls = eof_class t in
  let inj = if key.inj && not is_eof then injected t cls else [||] in
  let need = key.len + Array.length inj in
  if Array.length t.scratch < need then
    t.scratch <- Array.make (max need (2 * Array.length t.scratch)) 0;
  let buf = t.scratch in
  let n = ref 0 in
  for i = 0 to key.len - 1 do
    let s = if is_eof then succ_eof t key.mem.(i) else succ t key.mem.(i) cls in
    if s >= 0 then begin
      buf.(!n) <- s;
      incr n
    end
  done;
  Array.blit inj 0 buf !n (Array.length inj);
  let len = !n + Array.length inj in
  sort_prefix buf len;
  { Key.inj = not is_eof; mem = buf; len }

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
  let n = t.num_states and cap = 2 * Array.length t.keys in
  let tables =
    resize ~width:t.width ~words:t.words (Atomic.get t.tables) n cap
  in
  let keys = Array.make cap t.keys.(0) in
  Array.blit t.keys 0 keys 0 n;
  t.keys <- keys;
  Atomic.set t.tables tables

(* Intern an owned key as a new powerstate, writing its emit-bit row: the
   bit of final q is set unless a completed extension path Done (f0, K)
   starts at q = final_state f0. The row is complete before the id is
   known to anyone: only [materialize] hands it out, by writing a cell
   after this returns. *)
let intern t (key : Key.t) =
  if t.num_states = Array.length t.keys then grow t;
  let id = t.num_states in
  let emit = (Atomic.get t.tables).emit and row = 8 * id * t.words in
  Bytes.blit t.finals_row 0 emit row (8 * t.words);
  Array.iter
    (fun m ->
      let x = m - t.active_count in
      if x >= 0 && x mod t.k = t.k - 1 then begin
        let q = t.final_state.(x / t.k) in
        let o = row + (8 * (q lsr 6)) in
        Bytes.set_int64_ne emit o
          (Int64.logand (Bytes.get_int64_ne emit o)
             (Int64.lognot (Int64.shift_left 1L (q land 63))))
      end)
    key.mem;
  t.num_states <- id + 1;
  Key_tbl.add t.tbl key id;
  t.keys.(id) <- key;
  t.side_words <- t.side_words + 4 + key.len + 1;
  id

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
  let capacity = 16 in
  let none =
    { trans = Bytes.empty; emit = Bytes.empty; accel_row = Bytes.empty }
  in
  let start_key = { Key.inj = true; mem = [||]; len = 0 } in
  let t =
    {
      dfa;
      k;
      width;
      fidx;
      num_finals = f;
      words;
      finals_row;
      side_words = 0;
      num_states = 0;
      tables = Atomic.make (resize ~width ~words none 0 capacity);
      keys = Array.make capacity start_key;
      accel = Accel.create (Accel.level dfa.Dfa.accel) ~capacity:0;
      tbl = Key_tbl.create 64;
      injected = Array.make (width - 1) None;
      scratch = Array.make 64 0;
      m;
      active_count = f * m * k;
      final_state;
      coacc;
      lock = Mutex.create ();
    }
  in
  let start = intern t start_key in
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
          let probe = step_set t t.keys.(s) cls in
          let id =
            match Key_tbl.find_opt t.tbl probe with
            | Some id -> id
            | None ->
                intern t { probe with mem = Array.sub probe.mem 0 probe.len }
          in
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

(* Binary search for Done (f0, K) among the powerstate's sorted members. *)
let extendable t s q =
  let f0 = t.fidx.(q) in
  f0 >= 0
  &&
  let key = t.keys.(s) and x = done_ t f0 t.k in
  let rec go lo hi =
    lo < hi
    &&
    let mid = (lo + hi) / 2 in
    let v = key.mem.(mid) in
    v = x || if v < x then go (mid + 1) hi else go lo mid
  in
  go 0 key.len

let emit_bit t s q =
  let emit = (Atomic.get t.tables).emit in
  Int64.logand
    (Int64.shift_right_logical
       (Raw.word emit (((s * t.words) + (q lsr 6)) lsl 3))
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
   the record and atomic that publish them, [side_words], the intern
   table's buckets and entries, and the fixed per-DFA arrays. *)
let bytes t =
  let arr n = 8 * (n + 1) in
  Mutex.protect t.lock (fun () ->
      let tb = Atomic.get t.tables and st = Key_tbl.stats t.tbl in
      block tb.trans + block tb.emit + 32 + 16
      + arr (Array.length t.keys)
      + arr (Array.length t.injected)
      + arr (Array.length t.scratch)
      + (8 * t.side_words)
      + arr st.Hashtbl.num_buckets
      + (32 * st.Hashtbl.num_bindings)
      + block t.finals_row
      + arr (Array.length t.fidx)
      + arr (Array.length t.final_state)
      + arr ((t.m / Sys.int_size) + 1)
      + accel_bytes t)

let start _t = 0
let k t = t.k

let equal a b =
  let n = a.num_states in
  Dfa.equal a.dfa b.dfa && a.k = b.k && Bits.equal a.coacc b.coacc
  && n = b.num_states
  && Bytes.sub (Atomic.get a.tables).trans 0 (4 * n * a.width)
     = Bytes.sub (Atomic.get b.tables).trans 0 (4 * n * b.width)
  && Array.for_all2 Key.equal (Array.sub a.keys 0 n) (Array.sub b.keys 0 n)

let num_finals t = t.num_finals
let final_index t q = t.fidx.(q)
