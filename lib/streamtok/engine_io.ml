open St_automata

let magic = "STKE"

(* Layout (version 5): header, then the alphabet equivalence classes (a
   num_classes field plus the raw 256-byte classmap), then the accept and
   transition tables (num_states × num_classes) — and nothing else. The
   skip accelerator is a function of the transition table, so every load
   derives it afresh. Any other version is rejected on load. *)
let version = 5

(* little-endian 32-bit ints; table entries are small nonnegative numbers
   (state ids, rule ids ≥ -1 stored +1) *)

let put_i32 buf v =
  Buffer.add_char buf (Char.chr (v land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xff))

let get_i32 s pos =
  Char.code s.[pos]
  lor (Char.code s.[pos + 1] lsl 8)
  lor (Char.code s.[pos + 2] lsl 16)
  lor (Char.code s.[pos + 3] lsl 24)

(* a simple Fletcher-style checksum over the payload *)
let checksum s from =
  let a = ref 1 and b = ref 0 in
  for i = from to String.length s - 1 do
    a := (!a + Char.code s.[i]) mod 65521;
    b := (!b + !a) mod 65521
  done;
  (!b lsl 16) lor !a

let to_string e =
  let d = Engine.dfa e in
  let buf = Buffer.create (Array.length d.Dfa.trans * 4) in
  Buffer.add_string buf magic;
  Buffer.add_char buf (Char.chr version);
  put_i32 buf 0 (* checksum placeholder *);
  put_i32 buf (Engine.k e);
  put_i32 buf d.Dfa.num_states;
  put_i32 buf d.Dfa.start;
  put_i32 buf d.Dfa.num_classes;
  Buffer.add_string buf d.Dfa.classmap;
  Array.iter (fun r -> put_i32 buf (r + 1)) d.Dfa.accept;
  Array.iter (fun t -> put_i32 buf t) d.Dfa.trans;
  let s = Bytes.of_string (Buffer.contents buf) in
  let c = checksum (Bytes.unsafe_to_string s) 9 in
  Bytes.set s 5 (Char.chr (c land 0xff));
  Bytes.set s 6 (Char.chr ((c lsr 8) land 0xff));
  Bytes.set s 7 (Char.chr ((c lsr 16) land 0xff));
  Bytes.set s 8 (Char.chr ((c lsr 24) land 0xff));
  Bytes.unsafe_to_string s

let of_string ?(verify = true) s =
  let err msg = Error ("Engine_io: " ^ msg) in
  if String.length s < 281 then err "truncated header"
  else if String.sub s 0 4 <> magic then err "bad magic"
  else if Char.code s.[4] <> version then
    err (Printf.sprintf "unsupported version %d" (Char.code s.[4]))
  else begin
    let stored_sum = get_i32 s 5 in
    if checksum s 9 <> stored_sum then err "checksum mismatch"
    else begin
      let k = get_i32 s 9 in
      let num_states = get_i32 s 13 in
      let start = get_i32 s 17 in
      let num_classes = get_i32 s 21 in
      let need = 281 + (4 * num_states) + (4 * num_states * num_classes) in
      if
        num_states <= 0 || num_classes <= 0 || num_classes > 256
        || String.length s <> need
      then err "bad table sizes"
      else if start < 0 || start >= num_states then err "bad start state"
      else begin
        let classmap = String.sub s 25 256 in
        if
          String.exists (fun c -> Char.code c >= num_classes) classmap
        then err "classmap entry out of range"
        else begin
          let accept =
            Array.init num_states (fun q -> get_i32 s (281 + (4 * q)) - 1)
          in
          let base = 281 + (4 * num_states) in
          let trans =
            Array.init
              (num_states * num_classes)
              (fun i -> get_i32 s (base + (4 * i)))
          in
          if Array.exists (fun t -> t < 0 || t >= num_states) trans then
            err "transition out of range"
          else begin
            let d =
              Dfa.of_tables ~start ~num_classes ~classmap ~trans ~accept
            in
            if verify then
              (* one analysis: the compile's own max-TND is the check *)
              match Engine.compile_timed d with
              | Ok (e, cs) when cs.Engine.max_tnd = St_analysis.Tnd.Finite k ->
                  Ok e
              | Ok (_, cs) ->
                  err
                    (Printf.sprintf "stored max-TND %d but analysis says %s" k
                       (St_analysis.Tnd.result_to_string cs.Engine.max_tnd))
              | Error Engine.Unbounded_tnd ->
                  err "stored DFA has unbounded max-TND"
            else
              match Engine.compile_trusted d ~k with
              | e -> Ok e
              | exception Invalid_argument m -> err m
          end
        end
      end
    end
  end
