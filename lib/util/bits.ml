let word_bits = Sys.int_size (* 63 on 64-bit *)

type t = { n : int; words : int array }

let words_for n = (n + word_bits - 1) / word_bits

let create n =
  assert (n >= 0);
  { n; words = Array.make (max 1 (words_for n)) 0 }

let mem t i =
  assert (i >= 0 && i < t.n);
  t.words.(i / word_bits) land (1 lsl (i mod word_bits)) <> 0

let add t i =
  assert (i >= 0 && i < t.n);
  let w = i / word_bits in
  t.words.(w) <- t.words.(w) lor (1 lsl (i mod word_bits))

let remove t i =
  assert (i >= 0 && i < t.n);
  let w = i / word_bits in
  t.words.(w) <- t.words.(w) land lnot (1 lsl (i mod word_bits))

let clear t = Array.fill t.words 0 (Array.length t.words) 0
let copy t = { n = t.n; words = Array.copy t.words }

let is_empty t =
  let rec go i = i >= Array.length t.words || (t.words.(i) = 0 && go (i + 1)) in
  go 0

let popcount x =
  let rec go x acc = if x = 0 then acc else go (x land (x - 1)) (acc + 1) in
  go x 0

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let equal a b =
  a.n = b.n
  &&
  let i = ref 0 and nw = Array.length a.words in
  while !i < nw && Array.unsafe_get a.words !i = Array.unsafe_get b.words !i do
    incr i
  done;
  !i = nw

(* Each word is multiplied into the state and xor-shifted down, so every
   member bit reaches the low bits a hashtable picks its bucket from. *)
let hash t =
  let h = ref t.n in
  for i = 0 to Array.length t.words - 1 do
    let x = (!h lxor Array.unsafe_get t.words i) * 0x2545F4914F6CDD1D in
    h := x lxor (x lsr 29)
  done;
  !h land max_int

let inter_empty a b =
  assert (a.n = b.n);
  let rec go i =
    i >= Array.length a.words
    || (a.words.(i) land b.words.(i) = 0 && go (i + 1))
  in
  go 0

let iter f t =
  for w = 0 to Array.length t.words - 1 do
    let bits = t.words.(w) in
    if bits <> 0 then
      for b = 0 to word_bits - 1 do
        if bits land (1 lsl b) <> 0 then f ((w * word_bits) + b)
      done
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

let of_list n l =
  let t = create n in
  List.iter (add t) l;
  t
