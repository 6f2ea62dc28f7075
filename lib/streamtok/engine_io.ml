open St_automata

let magic = "STKE"

(* Layout (version 4): header, then the alphabet equivalence classes (a
   num_classes field plus the raw 256-byte classmap), accept and
   transition tables (num_states × num_classes), then the self-loop
   acceleration tables — one enable byte, then per-state flags, 256-bit
   stop bitmaps serialized as 8 little-endian 32-bit words per state, and
   one SWAR accel-kind byte per state (0 = bitmap tier, 1–3 = SWAR with
   that many stop bytes, 4 = free-running), when enabled. The 64-bit
   broadcast masks are never serialized — they are always rederived from
   the stop bitmaps, and the stored kinds are cross-checked against the
   rederivation on load. Any other version is rejected on load. *)
let version = 4

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
  Buffer.add_char buf (if d.Dfa.accel then '\001' else '\000');
  if d.Dfa.accel then begin
    Buffer.add_bytes buf d.Dfa.accel_flags;
    Array.iter (fun w -> put_i32 buf w) d.Dfa.accel_stops;
    (* kinds are written from the classification the stop bitmaps imply, so
       even an engine built [~swar:false] serializes to a blob that reloads
       as the canonical (SWAR-enabled) accelerated build *)
    let kinds, _ =
      Dfa.swar_classify ~num_states:d.Dfa.num_states ~stops:d.Dfa.accel_stops
    in
    Buffer.add_bytes buf kinds
  end;
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
      let tables_end = 281 + (4 * num_states) + (4 * num_states * num_classes) in
      (* the accel-enable byte, then flags + stop bitmaps + one SWAR kind
         byte per state when set *)
      let accel_on =
        String.length s > tables_end && s.[tables_end] = '\001'
      in
      let need =
        tables_end + 1
        + if accel_on then num_states + (num_states * 32) + num_states else 0
      in
      if
        num_states <= 0 || num_classes <= 0 || num_classes > 256
        || String.length s <> need
      then err "bad table sizes"
      else if s.[tables_end] > '\001' then err "bad accel flag byte"
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
            let bare =
              {
                Dfa.num_states;
                start;
                num_classes;
                classmap;
                trans;
                accept;
                accel = false;
                accel_flags = Bytes.make num_states '\000';
                accel_stops = [||];
                accel_kind = Bytes.make num_states '\000';
                accel_swar = [||];
                accel_tbl = Bytes.empty;
              }
            in
            let accel_tables =
              if not accel_on then Ok None
              else begin
                let fbase = tables_end + 1 in
                let flags = Bytes.of_string (String.sub s fbase num_states) in
                let sbase = fbase + num_states in
                let stops =
                  Array.init (num_states * 8) (fun i ->
                      get_i32 s (sbase + (4 * i)))
                in
                if
                  Bytes.exists (fun c -> Char.code c > 1) flags
                then err "bad accel state flag"
                else begin
                  (* SWAR classification (and its broadcast masks) is derived
                     from the stop bitmaps; the blob stores the kind bytes
                     only as a cross-check — a kind the bitmaps don't imply
                     would silently corrupt the skip loops, so reject it *)
                  let kinds, masks =
                    Dfa.swar_classify ~num_states ~stops
                  in
                  let kbase = sbase + (num_states * 32) in
                  let stored = String.sub s kbase num_states in
                  if String.exists (fun c -> c > '\004') stored then
                    err "bad accel kind byte"
                  else if not (String.equal stored (Bytes.to_string kinds))
                  then err "accel kinds inconsistent with stop bitmaps"
                  else Ok (Some (flags, stops, kinds, masks))
                end
              end
            in
            match accel_tables with
            | Error _ as e -> e
            | Ok tables ->
                let d =
                  match tables with
                  | None ->
                      (* serialized from an unaccelerated build *)
                      Dfa.attach_accel ~enabled:false bare
                  | Some (accel_flags, accel_stops, accel_kind, accel_swar) ->
                      {
                        bare with
                        Dfa.accel = true;
                        accel_flags;
                        accel_stops;
                        accel_kind;
                        accel_swar;
                        accel_tbl =
                          Dfa.swar_byte_table ~num_states
                            ~stops:accel_stops;
                      }
                in
                (* stored accel tables must match what the analysis derives
                   from the stored transition tables *)
                if
                  verify && accel_on
                  && not (Dfa.equal d (Dfa.attach_accel ~enabled:true bare))
                then err "accel tables inconsistent with transitions"
                else if verify then begin
                  (* one analysis: the compile's own max-TND is the check *)
                  match Engine.compile_timed d with
                  | Ok (e, cs)
                    when cs.Engine.max_tnd = St_analysis.Tnd.Finite k ->
                      Ok e
                  | Ok (_, cs) ->
                      err
                        (Printf.sprintf "stored max-TND %d but analysis says %s"
                           k
                           (St_analysis.Tnd.result_to_string cs.Engine.max_tnd))
                  | Error Engine.Unbounded_tnd ->
                      err "stored DFA has unbounded max-TND"
                end
                else
                  match Engine.compile_trusted d ~k with
                  | e -> Ok e
                  | exception Invalid_argument m -> err m
          end
        end
      end
    end
  end
