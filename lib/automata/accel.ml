(* ---- Self-loop run acceleration ----

   A state that self-loops on most of the alphabet (string bodies, comments,
   whitespace, identifiers) can consume a run of input without consulting
   the transition table at all: only its *stop bytes* — those whose class
   leaves the state — need the classed two-load step. This module owns the
   whole accelerator: the per-state row format, the one function that
   derives a row from a state's self-loop classes, the skip-entry test and
   the scanners. Rows are byte-level: stop sets are expanded from class
   space through the classmap when the row is derived, so the skip loops
   need no classmap load.

   A row [r] is spread over five arrays of one growable table:

     flags.[r]            '\001' iff the state self-loops on at least
                          [min_loop_bytes] bytes (a run can pay off)
     stops.(r*8 ..)       256-bit stop bitmap: 8 little-endian 32-bit words
                          held in immediate ints (Int64 words would box on
                          non-flambda compilers and turn the skip loop into
                          an allocator); bit [b land 31] of word [b/32] is
                          set iff byte [b] leaves the state
     kinds.[r]            the row's scanner:
                            '\000'  bitmap scan (level [Bitmap]): the
                                    8-way byte loop through the bitmap
                            '\001'..'\003'  SWAR with that many stop bytes:
                                    8 bytes per 64-bit load, broadcast-XOR
                                    zero-byte detectors
                            '\004'  free-running: no stop byte at all, a run
                                    never ends before the range limit
                            '\005'  table scan (> 3 stop bytes at level
                                    [Swar]): the 8-way byte loop through
                                    the gather table
     masks.[r*24 ..]      3 native 64-bit broadcast masks
                          (0x0101010101010101 * stop_byte); rows with fewer
                          than 3 stop bytes repeat the last real mask, so a
                          scanner never reads an uninitialized lane
     gather.[r*256 + b]   '\001' iff byte [b] stops the row: the bitmap
                          re-expanded to one byte per entry, so the kind-5
                          loop tests a byte with a single load

   The level decides which arrays exist: [Off] keeps only the (all-zero)
   flags, so hot loops may probe them unconditionally; [Bitmap] adds the
   bitmaps and all-'\000' kinds; [Swar] adds masks and gather tables. Most
   accelerable states in real grammars stop on very few bytes (string
   interiors on '"' and '\\', comments on '\n', whitespace runs on
   everything but ' '), so the SWAR tier covers the states where the bytes
   actually are. A row with <= 3 stop bytes self-loops on >= 253 bytes, so
   every SWAR row is also flagged.

   Each scanner exists once, for one cursor. The token-extension loop's
   two cursors are served by {!skip2}, which composes two {!skip} calls. *)

type level = Off | Bitmap | Swar

type t = {
  level : level;
  mutable rows : int;
  mutable flags : Bytes.t;
  mutable stops : int array;
  mutable kinds : Bytes.t;
  mutable masks : Bytes.t;
  mutable gather : Bytes.t;
}

(* Flag only states with at least this many self-loop bytes: below it a
   run can't be long enough to amortize the skip-loop entry. *)
let min_loop_bytes = 4

let alloc level cap =
  {
    level;
    rows = 0;
    flags = Bytes.make cap '\000';
    stops = (if level = Off then [||] else Array.make (cap * 8) 0);
    kinds = (if level = Off then Bytes.empty else Bytes.make cap '\000');
    masks = (if level = Swar then Bytes.make (cap * 24) '\000' else Bytes.empty);
    gather = (if level = Swar then Bytes.make (cap * 256) '\000' else Bytes.empty);
  }

let create level ~capacity = alloc level capacity
let level t = t.level
let rows t = t.rows

let grow t =
  let g = alloc t.level (max 16 (2 * Bytes.length t.flags)) in
  Bytes.blit t.flags 0 g.flags 0 t.rows;
  Array.blit t.stops 0 g.stops 0 (Array.length t.stops);
  Bytes.blit t.kinds 0 g.kinds 0 (Bytes.length t.kinds);
  Bytes.blit t.masks 0 g.masks 0 (Bytes.length t.masks);
  Bytes.blit t.gather 0 g.gather 0 (Bytes.length t.gather);
  t.stops <- g.stops;
  t.kinds <- g.kinds;
  t.masks <- g.masks;
  t.gather <- g.gather;
  t.flags <- g.flags

(* Forced inline: as a call, this per-byte test cost the scanners up to
   ~20 % or nothing depending on where the linker happened to place it. *)
let[@inline] stop_bit stops base b =
  (Array.unsafe_get stops (base + (b lsr 5)) lsr (b land 31)) land 1

let add_row t ~classmap ~loops =
  if t.rows = Bytes.length t.flags then grow t;
  let r = t.rows in
  if t.level <> Off then begin
    let base = r * 8 and gb = r * 256 in
    let swar = t.level = Swar in
    let n = ref 0 and s1 = ref 0 and s2 = ref 0 and s3 = ref 0 in
    for b = 0 to 255 do
      if
        Bytes.unsafe_get loops (Char.code (String.unsafe_get classmap b))
        = '\000'
      then begin
        t.stops.(base + (b lsr 5)) <-
          t.stops.(base + (b lsr 5)) lor (1 lsl (b land 31));
        if swar then Bytes.unsafe_set t.gather (gb + b) '\001';
        (match !n with 0 -> s1 := b | 1 -> s2 := b | 2 -> s3 := b | _ -> ());
        incr n
      end
    done;
    if 256 - !n >= min_loop_bytes then Bytes.set t.flags r '\001';
    if swar then
      if !n = 0 then Bytes.set t.kinds r '\004'
      else if !n > 3 then Bytes.set t.kinds r '\005'
      else begin
        Bytes.set t.kinds r (Char.chr !n);
        let m2 = if !n >= 2 then !s2 else !s1 in
        let m3 = if !n >= 3 then !s3 else m2 in
        let put i sb =
          Bytes.set_int64_ne t.masks
            ((r * 24) + (i * 8))
            (Int64.mul 0x0101010101010101L (Int64.of_int sb))
        in
        put 0 !s1;
        put 1 m2;
        put 2 m3
      end
  end;
  t.rows <- r + 1;
  r

let is_flagged t r = Bytes.get t.flags r <> '\000'
let is_stop t r b = t.level <> Off && stop_bit t.stops (r * 8) b <> 0

let stop_count t r =
  let n = ref 0 in
  for b = 0 to 255 do
    if is_stop t r b then incr n
  done;
  !n

let count p bytes =
  let n = ref 0 in
  Bytes.iter (fun c -> if p c then incr n) bytes;
  !n

let flagged_count t = count (fun c -> c <> '\000') t.flags
let swar_count t = count (fun c -> c >= '\001' && c <= '\003') t.kinds

let bytes t =
  Bytes.length t.flags
  + (Array.length t.stops * 8)
  + Bytes.length t.kinds + Bytes.length t.masks + Bytes.length t.gather

let equal a b =
  a.level = b.level && a.rows = b.rows
  && Bytes.equal a.flags b.flags
  && a.stops = b.stops
  && Bytes.equal a.kinds b.kinds
  && Bytes.equal a.masks b.masks
  && Bytes.equal a.gather b.gather

(* The skip-entry pre-test: the row is flagged and byte [b] extends its
   run. Hot loops call it only after observing two self-loop steps, so a
   run-poor stream never pays the call; a run-heavy one pays it once per
   run before {!skip} takes over. *)
let[@inline] enters t r b =
  Bytes.unsafe_get t.flags r <> '\000' && stop_bit t.stops (r * 8) b = 0

let is_swar t r =
  match Bytes.unsafe_get t.kinds r with '\001' .. '\004' -> true | _ -> false

let kind t r = if t.level = Off then 0 else Char.code (Bytes.get t.kinds r)
let mask t r i = Bytes.get_int64_ne t.masks ((r * 24) + (i * 8))

(* [skip_bitmap t r s pos limit]: first index in [pos, limit) holding a
   stop byte of row [r], or [limit] when the whole range self-loops. 8
   bytes per iteration on the fast path: the eight bitmap tests are
   OR-folded so the loop carries a single branch, and every operation is
   on immediate ints — the loop allocates nothing. This is the kind-'\000'
   scanner and the reference the [Swar] level is tested against. *)
let skip_bitmap t r s pos limit =
  let stops = t.stops in
  let base = r * 8 in
  let i = ref pos in
  let scanning = ref true in
  while !scanning && !i + 8 <= limit do
    let p = !i in
    let acc =
      stop_bit stops base (Char.code (String.unsafe_get s p))
      lor stop_bit stops base (Char.code (String.unsafe_get s (p + 1)))
      lor stop_bit stops base (Char.code (String.unsafe_get s (p + 2)))
      lor stop_bit stops base (Char.code (String.unsafe_get s (p + 3)))
      lor stop_bit stops base (Char.code (String.unsafe_get s (p + 4)))
      lor stop_bit stops base (Char.code (String.unsafe_get s (p + 5)))
      lor stop_bit stops base (Char.code (String.unsafe_get s (p + 6)))
      lor stop_bit stops base (Char.code (String.unsafe_get s (p + 7)))
    in
    if acc = 0 then i := p + 8 else scanning := false
  done;
  while
    !i < limit
    && stop_bit stops base (Char.code (String.unsafe_get s !i)) = 0
  do
    incr i
  done;
  !i

let[@inline] gather_at tbl tb s p =
  Char.code (Bytes.unsafe_get tbl (tb + Char.code (String.unsafe_get s p)))

(* [skip_gather t r s pos limit]: the kind-'\005' scanner, for rows with
   more than 3 stop bytes at level [Swar]. The loop of {!skip_bitmap}, but
   each byte test is one load from the row's gather table instead of the
   bitmap's word load, shift and mask. *)
let skip_gather t r s pos limit =
  let tbl = t.gather and tb = r * 256 in
  let i = ref pos in
  let scanning = ref true in
  while !scanning && !i + 8 <= limit do
    let p = !i in
    let acc =
      gather_at tbl tb s p
      lor gather_at tbl tb s (p + 1)
      lor gather_at tbl tb s (p + 2)
      lor gather_at tbl tb s (p + 3)
      lor gather_at tbl tb s (p + 4)
      lor gather_at tbl tb s (p + 5)
      lor gather_at tbl tb s (p + 6)
      lor gather_at tbl tb s (p + 7)
    in
    if acc = 0 then i := p + 8 else scanning := false
  done;
  while !i < limit && gather_at tbl tb s !i = 0 do
    incr i
  done;
  !i

(* ---- SWAR scanners (kinds '\001'..'\003') ----

   The classic zero-byte trick: with m = 0x0101..01 * stop_byte and
   x = w xor m, the word x has a zero byte exactly where w holds the stop
   byte, and

     (x - 0x0101010101010101) land (lnot x) land 0x8080808080808080

   is non-zero iff x has a zero byte (Mycroft's exact detector — no false
   positives). One 64-bit load + ~5 ALU ops test 8 input bytes per stop
   byte, vs 8 shift/mask/load chains for the bitmap scanner.

   Endianness: [get64u] reads 8 bytes in NATIVE byte order, and the
   scanners are correct on either order by construction: the word test
   only answers "does some lane hold a stop byte?", which is invariant
   under byte permutation (and the broadcast masks, holding the same byte
   in every lane, are their own byte-swap); the exact index of the first
   stop byte is always recovered by the scalar bitmap loop that follows
   the word loop. Deriving the lane index from the detector word with a
   count-trailing-zeros would NOT survive byte-swapping — which is why we
   deliberately do not.

   All Int64 arithmetic is written inline inside each loop: on non-flambda
   compilers, cross-function Int64 values box, so the masks are hoisted
   into locals before the loop (one unboxed load each) and every temporary
   stays in the same function body where cmmgen keeps it in a register. *)

external get64u : string -> int -> int64 = "%caml_string_get64u"
external load_mask : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

(* [skip t r s pos limit]: first index in [pos, limit) holding a stop byte
   of row [r], or [limit] when the whole range self-loops. Dispatches once
   per call on the row's kind: free-running rows return [limit] outright,
   SWAR rows scan 8 bytes per 64-bit load (specialized per stop-set size
   so a 1-stop comment state pays one detector, not three), many-stop rows
   take the gather-table scanner and bitmap-level rows the bitmap one. The scalar bitmap loop after the word
   loop handles the <8-byte tail, ranges shorter than one word, and
   pinpointing the stop inside a hit word — so the word loop never reads
   past [limit]. *)
let skip t r s pos limit =
  match Bytes.unsafe_get t.kinds r with
  | '\004' -> limit
  | '\000' -> skip_bitmap t r s pos limit
  | '\005' -> skip_gather t r s pos limit
  | k ->
      let masks = t.masks and mb = r * 24 in
      let m1 = load_mask masks mb in
      let m2 = load_mask masks (mb + 8) in
      let m3 = load_mask masks (mb + 16) in
      let i = ref pos in
      let scanning = ref true in
      (if k = '\001' then
         while !scanning && !i + 8 <= limit do
           let w = get64u s !i in
           let x1 = Int64.logxor w m1 in
           let h =
             Int64.logand
               (Int64.logand (Int64.sub x1 0x0101010101010101L)
                  (Int64.lognot x1))
               0x8080808080808080L
           in
           if h = 0L then i := !i + 8 else scanning := false
         done
       else if k = '\002' then
         while !scanning && !i + 8 <= limit do
           let w = get64u s !i in
           let x1 = Int64.logxor w m1 and x2 = Int64.logxor w m2 in
           let h =
             Int64.logor
               (Int64.logand
                  (Int64.logand (Int64.sub x1 0x0101010101010101L)
                     (Int64.lognot x1))
                  0x8080808080808080L)
               (Int64.logand
                  (Int64.logand (Int64.sub x2 0x0101010101010101L)
                     (Int64.lognot x2))
                  0x8080808080808080L)
           in
           if h = 0L then i := !i + 8 else scanning := false
         done
       else
         while !scanning && !i + 8 <= limit do
           let w = get64u s !i in
           let x1 = Int64.logxor w m1
           and x2 = Int64.logxor w m2
           and x3 = Int64.logxor w m3 in
           let h =
             Int64.logor
               (Int64.logor
                  (Int64.logand
                     (Int64.logand (Int64.sub x1 0x0101010101010101L)
                        (Int64.lognot x1))
                     0x8080808080808080L)
                  (Int64.logand
                     (Int64.logand (Int64.sub x2 0x0101010101010101L)
                        (Int64.lognot x2))
                     0x8080808080808080L))
               (Int64.logand
                  (Int64.logand (Int64.sub x3 0x0101010101010101L)
                     (Int64.lognot x3))
                  0x8080808080808080L)
           in
           if h = 0L then i := !i + 8 else scanning := false
         done);
      let stops = t.stops and base = r * 8 in
      while
        !i < limit
        && stop_bit stops base (Char.code (String.unsafe_get s !i)) = 0
      do
        incr i
      done;
      !i

(* [skip2 a ra b rb ~off s pos limit]: the two-cursor scan for the TE
   paths, where row [rb] of [b] reads [off] bytes away from row [ra] of
   [a]. The first index where either cursor stops is the smaller of the two
   sides' first stops, so each side runs its own {!skip}: A over the
   window, then B only up to A's stop. A side that stops late would scan
   far past the other's early stop, so the window starts at 32 bytes and
   doubles while both sides run clean: each side scans at most 32 bytes
   plus twice the run beyond the first stop. *)
let skip2 a ra b rb ~off s pos limit =
  let p = ref pos and w = ref 32 and r = ref (-1) in
  while !r < 0 do
    let e = if limit - !p < !w then limit else !p + !w in
    let i = skip b rb s (!p + off) (skip a ra s !p e + off) - off in
    if i < e || e = limit then r := i else (p := e; w := 2 * !w)
  done;
  !r
