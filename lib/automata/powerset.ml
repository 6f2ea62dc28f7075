(* Multiply, then fold the high bits down, so that every input bit reaches
   the low bits a table slot is picked from. *)
let mix x =
  let x = x * 0x2545F4914F6CDD1D in
  x lxor (x lsr 29)

(* Set [id]'s members are [store] entries [first.(id) .. first.(id + 1) - 1],
   each [width] bytes; [slots] is an open-addressed table of set ids, at
   most half full. A [find] that misses leaves the probe's hash in [hash]
   and its free slot in [hole] for the [add] that follows it. *)
type t = {
  width : int;
  mutable store : Bytes.t;
  mutable len : int;
  mutable count : int;
  mutable first : int array;
  mutable hashes : int array;
  mutable slots : int array;
  mutable hash : int;
  mutable hole : int;
}

let create bound =
  let width =
    if bound <= 0x100 then 1
    else if bound <= 0x10000 then 2
    else if bound <= 0x1_0000_0000 then 4
    else 8
  in
  {
    width;
    store = Bytes.create (64 * width);
    len = 0;
    count = 0;
    first = Array.make 64 0;
    hashes = Array.make 64 0;
    slots = Array.make 64 (-1);
    hash = 0;
    hole = -1;
  }

let count t = t.count
let size t id = t.first.(id + 1) - t.first.(id)

let member t i =
  match t.width with
  | 1 -> Bytes.get_uint8 t.store i
  | 2 -> Bytes.get_uint16_ne t.store (2 * i)
  | 4 -> Int32.to_int (Bytes.get_int32_ne t.store (4 * i)) land 0xFFFF_FFFF
  | _ -> Int64.to_int (Bytes.get_int64_ne t.store (8 * i))

let members t id buf =
  let lo = t.first.(id) in
  for i = 0 to size t id - 1 do
    buf.(i) <- member t (lo + i)
  done;
  size t id

let push t x =
  if (t.len + 1) * t.width > Bytes.length t.store then begin
    let store = Bytes.create (2 * Bytes.length t.store) in
    Bytes.blit t.store 0 store 0 (t.len * t.width);
    t.store <- store
  end;
  (match t.width with
  | 1 -> Bytes.set_uint8 t.store t.len x
  | 2 -> Bytes.set_uint16_ne t.store (2 * t.len) x
  | 4 -> Bytes.set_int32_ne t.store (4 * t.len) (Int32.of_int x)
  | _ -> Bytes.set_int64_ne t.store (8 * t.len) (Int64.of_int x));
  t.len <- t.len + 1

let find t ~same buf n =
  let h = ref n in
  for i = 0 to n - 1 do
    h := !h + mix buf.(i)
  done;
  let h = mix !h land max_int in
  let mask = Array.length t.slots - 1 in
  let i = ref (h land mask) and id = ref (-1) in
  while !id < 0 && t.slots.(!i) >= 0 do
    let r = t.slots.(!i) in
    if t.hashes.(r) = h && size t r = n then begin
      let lo = t.first.(r) and j = ref 0 in
      while !j < n && same buf !j (member t (lo + !j)) do
        incr j
      done;
      if !j = n then id := r
    end;
    if !id < 0 then i := (!i + 1) land mask
  done;
  t.hash <- h;
  t.hole <- !i;
  !id

let add t buf n =
  let id = t.count in
  for i = 0 to n - 1 do
    push t buf.(i)
  done;
  (* doubled: the appended copy is overwritten before it is read *)
  if id + 2 > Array.length t.first then begin
    t.first <- Array.append t.first t.first;
    t.hashes <- Array.append t.hashes t.hashes
  end;
  t.first.(id + 1) <- t.len;
  t.hashes.(id) <- t.hash;
  t.count <- id + 1;
  t.slots.(t.hole) <- id;
  if 2 * (id + 1) > Array.length t.slots then begin
    let slots = Array.make (2 * Array.length t.slots) (-1) in
    let mask = Array.length slots - 1 in
    for id = 0 to id do
      let i = ref (t.hashes.(id) land mask) in
      while slots.(!i) >= 0 do
        i := (!i + 1) land mask
      done;
      slots.(!i) <- id
    done;
    t.slots <- slots
  end;
  id

let bytes t =
  let arr n = 8 * (n + 1) in
  arr 9
  + (8 * ((Bytes.length t.store / 8) + 2))
  + arr (Array.length t.first)
  + arr (Array.length t.hashes)
  + arr (Array.length t.slots)
