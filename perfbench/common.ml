(* Shared helpers: parity hashing, clocks, order statistics, /proc
   readings and the result/metric plumbing every part of the benchmark
   uses. *)

open Streamtok

(* ---- Parity hash ----

   Every reply stream is folded into one FNV-1a style hash over
   (rule, lexeme) records or over token ids, in stream order, and compared
   with the hash of the reference tokenization. *)

let hash_basis = 0x1545_28DC_4F88_ECD1
let hash_prime = 0x100000001b3
let[@inline] hash_byte h b = (h lxor b) * hash_prime

let[@inline] hash_int h v =
  let h = hash_byte h (v land 0xff) in
  let h = hash_byte h ((v lsr 8) land 0xff) in
  let h = hash_byte h ((v lsr 16) land 0xff) in
  hash_byte h ((v lsr 24) land 0xff)

let hash_token_string h ~rule s pos len =
  let h = ref (hash_int h rule) in
  for i = pos to pos + len - 1 do
    h := hash_byte !h (Char.code (String.unsafe_get s i))
  done;
  hash_byte !h 0x17

let hash_token_bytes h ~rule b pos len =
  let h = ref (hash_int h rule) in
  for i = pos to pos + len - 1 do
    h := hash_byte !h (Char.code (Bytes.unsafe_get b i))
  done;
  hash_byte !h 0x17

let hash_id h id = hash_byte (hash_int h id) 0x2b

(* A tokenization summarized for comparison: token count, stream hash
   and how the stream ended ([offset] = bytes tokenized). *)
type digest = { count : int; hash : int; ok : bool; offset : int }

let digest_equal a b =
  a.count = b.count && a.hash = b.hash && a.ok = b.ok && a.offset = b.offset

(* ---- Clocks ---- *)

let now_ns = Mclock.now_ns
let s_of_ns ns = float_of_int ns /. 1e9
let ms_of_ns ns = float_of_int ns /. 1e6

(* ---- CPU affinity (affinity_stubs.c) ---- *)

(* The CPUs this process may run on, ascending. *)
external affinity_cpus : unit -> int list = "perfbench_affinity_cpus"

(* [pin pid cpu] pins process [pid] (0: this one) to [cpu]; [false] if the
   kernel refused. A process spawned afterwards inherits the pin. *)
external pin : int -> int -> bool = "perfbench_affinity_pin"

(* ---- Order statistics ---- *)

(* Linear-interpolated percentile of an unsorted sample, [p] in [0,100]. *)
let percentile p xs =
  match xs with
  | [] -> nan
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let rank = p /. 100. *. float_of_int (n - 1) in
      let lo = truncate rank in
      let hi = min (n - 1) (lo + 1) in
      let frac = rank -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = percentile 50. xs

(* ---- /proc ---- *)

(* [status_kb pid field] reads a "Field:   N kB" line of
   /proc/<pid>/status; 0 when absent. *)
let status_kb pid field =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0
  | ic ->
      let prefix = field ^ ":" in
      let n = String.length prefix in
      let rec loop () =
        match input_line ic with
        | exception End_of_file -> 0
        | line when String.length line > n && String.sub line 0 n = prefix ->
            Scanf.sscanf (String.sub line n (String.length line - n)) " %d"
              (fun kb -> kb)
        | _ -> loop ()
      in
      let kb = loop () in
      close_in ic;
      kb

let peak_rss_mb pid = float_of_int (status_kb pid "VmHWM") /. 1024.

(* ---- Results ---- *)

(* One reported metric: its value and unit. *)
type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* Correctness tally: each verified operation is [attempted]; each
   mismatch, unexpected error, missing reply or dropped connection is
   [failed]. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let check tally ok what =
  tally.attempted <- tally.attempted + 1;
  if not ok then begin
    tally.failed <- tally.failed + 1;
    if tally.failed <= 5 then Printf.eprintf "perfbench: FAIL %s\n%!" what
  end

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

let result_json ~correct tally metrics =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    correct (max 1 tally.attempted) tally.failed;
  List.iteri
    (fun i m ->
      if i > 0 then Buffer.add_string b ", ";
      let v = if Float.is_finite m.value then m.value else 0. in
      Printf.bprintf b "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" m.name v
        m.unit_)
    metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

(* Read a whole file. *)
let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc
