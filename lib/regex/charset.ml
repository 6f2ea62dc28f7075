(* A 256-bit set stored as four immutable int64 words. Immutability keeps
   regex ASTs persistent and safely shareable across automata builds. *)

type t = { w0 : int64; w1 : int64; w2 : int64; w3 : int64 }

let empty = { w0 = 0L; w1 = 0L; w2 = 0L; w3 = 0L }
let full = { w0 = -1L; w1 = -1L; w2 = -1L; w3 = -1L }

let get_word t i =
  match i with
  | 0 -> t.w0
  | 1 -> t.w1
  | 2 -> t.w2
  | _ -> t.w3

let with_word t i w =
  match i with
  | 0 -> { t with w0 = w }
  | 1 -> { t with w1 = w }
  | 2 -> { t with w2 = w }
  | _ -> { t with w3 = w }

let add t c =
  let i = Char.code c in
  let w = i / 64 and b = i mod 64 in
  with_word t w (Int64.logor (get_word t w) (Int64.shift_left 1L b))

let singleton c = add empty c

let range lo hi =
  let lo = Char.code lo and hi = Char.code hi in
  let t = ref empty in
  for i = lo to hi do
    t := add !t (Char.chr i)
  done;
  !t

let of_string s =
  let t = ref empty in
  String.iter (fun c -> t := add !t c) s;
  !t

let of_list l = List.fold_left add empty l

let mem t c =
  let i = Char.code c in
  let w = i / 64 and b = i mod 64 in
  Int64.logand (get_word t w) (Int64.shift_left 1L b) <> 0L

let lift2 f a b =
  { w0 = f a.w0 b.w0; w1 = f a.w1 b.w1; w2 = f a.w2 b.w2; w3 = f a.w3 b.w3 }

let union = lift2 Int64.logor
let inter = lift2 Int64.logand
let diff a b = lift2 (fun x y -> Int64.logand x (Int64.lognot y)) a b
let negate t = diff full t
let is_empty t = t.w0 = 0L && t.w1 = 0L && t.w2 = 0L && t.w3 = 0L
let equal (a : t) b = a = b

let add_to_buffer b t =
  Buffer.add_int64_le b t.w0;
  Buffer.add_int64_le b t.w1;
  Buffer.add_int64_le b t.w2;
  Buffer.add_int64_le b t.w3

let compare (a : t) b = Stdlib.compare a b

let hash t =
  let h64 x = Int64.to_int (Int64.logxor x (Int64.shift_right_logical x 33)) in
  (h64 t.w0 + (31 * h64 t.w1) + (961 * h64 t.w2) + (29791 * h64 t.w3))
  land max_int

let popcount64 x =
  let rec go x acc =
    if x = 0L then acc else go (Int64.logand x (Int64.sub x 1L)) (acc + 1)
  in
  go x 0

let cardinal t =
  popcount64 t.w0 + popcount64 t.w1 + popcount64 t.w2 + popcount64 t.w3

(* Members of a 32-bit half as native ints: shifting a boxed int64 per bit
   would cost an allocation per step. *)
let iter_half f half base =
  let x = ref half and b = ref base in
  while !x <> 0 do
    if !x land 1 <> 0 then f (Char.unsafe_chr !b);
    x := !x lsr 1;
    incr b
  done

let iter f t =
  for i = 0 to 3 do
    let w = get_word t i in
    iter_half f (Int64.to_int w land 0xFFFF_FFFF) (64 * i);
    iter_half f (Int64.to_int (Int64.shift_right_logical w 32)) ((64 * i) + 32)
  done

let fold f t init =
  let acc = ref init in
  iter (fun c -> acc := f c !acc) t;
  !acc

let choose t =
  let rec go i =
    if i > 255 then None
    else
      let c = Char.chr i in
      if mem t c then Some c else go (i + 1)
  in
  go 0

let digit = range '0' '9'
let alpha = union (range 'a' 'z') (range 'A' 'Z')
let word = union alpha (union digit (singleton '_'))
let space = of_string " \t\n\r\x0b\x0c"
let any = diff full (singleton '\n')

(* Rendering. We print runs of consecutive bytes as ranges and escape class
   metacharacters so output can be re-parsed. *)

let escape_class_char buf c =
  match c with
  | ']' | '\\' | '^' | '-' ->
      Buffer.add_char buf '\\';
      Buffer.add_char buf c
  | '\n' -> Buffer.add_string buf "\\n"
  | '\t' -> Buffer.add_string buf "\\t"
  | '\r' -> Buffer.add_string buf "\\r"
  | c when Char.code c < 32 || Char.code c > 126 ->
      Buffer.add_string buf (Printf.sprintf "\\x%02x" (Char.code c))
  | c -> Buffer.add_char buf c

let render_body buf t =
  let i = ref 0 in
  while !i <= 255 do
    if mem t (Char.chr !i) then begin
      let j = ref !i in
      while !j < 255 && mem t (Char.chr (!j + 1)) do
        incr j
      done;
      if !j - !i >= 2 then begin
        escape_class_char buf (Char.chr !i);
        Buffer.add_char buf '-';
        escape_class_char buf (Char.chr !j)
      end
      else
        for k = !i to !j do
          escape_class_char buf (Char.chr k)
        done;
      i := !j + 1
    end
    else incr i
  done

let to_string t =
  let buf = Buffer.create 16 in
  let n = cardinal t in
  Buffer.add_char buf '[';
  (* the full and empty sets would render with an empty body ("[^]"/"[]"),
     which the parser rightly rejects — render the other polarity instead *)
  if n = 256 then render_body buf t
  else if n > 128 || n = 0 then begin
    Buffer.add_char buf '^';
    render_body buf (negate t)
  end
  else render_body buf t;
  Buffer.add_char buf ']';
  Buffer.contents buf

let pp fmt t = Format.pp_print_string fmt (to_string t)
