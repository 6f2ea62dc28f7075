(* Unit tests for the utility substrate: bitsets, int vectors, PRNG
   stream-independence, and timers. *)

open Streamtok

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

module Bits = St_util.Bits
module Int_vec = St_util.Int_vec

let test_bits_basics () =
  let b = Bits.create 200 in
  check "empty" true (Bits.is_empty b);
  Bits.add b 0;
  Bits.add b 63;
  Bits.add b 64;
  Bits.add b 199;
  check_int "cardinal" 4 (Bits.cardinal b);
  check "mem 63" true (Bits.mem b 63);
  check "mem 64" true (Bits.mem b 64);
  check "not mem 1" false (Bits.mem b 1);
  Bits.remove b 63;
  check "removed" false (Bits.mem b 63);
  check_int "cardinal after remove" 3 (Bits.cardinal b);
  Bits.add b 199 (* re-adding is idempotent *);
  check_int "idempotent add" 3 (Bits.cardinal b)

let test_bits_word_boundaries () =
  (* exercise indices straddling the Sys.int_size word width *)
  let n = 4 * Sys.int_size in
  let b = Bits.create n in
  List.iter (Bits.add b)
    [ 0; Sys.int_size - 1; Sys.int_size; (2 * Sys.int_size) - 1; n - 1 ];
  check "elements sorted" true
    (Bits.elements b
    = [ 0; Sys.int_size - 1; Sys.int_size; (2 * Sys.int_size) - 1; n - 1 ])

let test_bits_set_ops () =
  let a = Bits.of_list 100 [ 1; 5; 50; 99 ] in
  let b = Bits.of_list 100 [ 5; 60 ] in
  check "inter not empty" false (Bits.inter_empty a b);
  let c = Bits.of_list 100 [ 2; 60 ] in
  check "inter empty" true (Bits.inter_empty a c)

let test_bits_copy_equal_hash () =
  let a = Bits.of_list 70 [ 3; 68 ] in
  let b = Bits.copy a in
  check "copies equal" true (Bits.equal a b);
  check_int "hashes equal" (Bits.hash a) (Bits.hash b);
  Bits.add b 4;
  check "copy independent" false (Bits.equal a b)

(* Sets that differ only in their high members must not share a
   hashtable chain: the table picks a bucket from the hash's low bits. *)
module Bits_tbl = Hashtbl.Make (Bits)

let test_bits_hash_spread () =
  let tbl = Bits_tbl.create 1024 in
  for high = 0 to 31 do
    let b = Bits.of_list 15 [ 0; 3; 7 ] in
    for i = 0 to 4 do
      if high land (1 lsl i) <> 0 then Bits.add b (10 + i)
    done;
    Bits_tbl.replace tbl b high
  done;
  check_int "32 distinct sets" 32 (Bits_tbl.length tbl);
  let { Hashtbl.max_bucket_length; _ } = Bits_tbl.stats tbl in
  check "longest chain <= 4" true (max_bucket_length <= 4)

let test_bits_fold_iter () =
  let a = Bits.of_list 128 [ 2; 64; 127 ] in
  check_int "fold sum" (2 + 64 + 127) (Bits.fold ( + ) a 0);
  let seen = ref [] in
  Bits.iter (fun i -> seen := i :: !seen) a;
  check "iter ascending" true (List.rev !seen = [ 2; 64; 127 ])

let test_int_vec () =
  let v = Int_vec.create ~capacity:2 () in
  check_int "empty" 0 (Int_vec.length v);
  for i = 0 to 99 do
    Int_vec.push v (i * i)
  done;
  check_int "length" 100 (Int_vec.length v);
  check_int "get" (49 * 49) (Int_vec.get v 49);
  Int_vec.set v 0 7;
  check_int "set" 7 (Int_vec.get v 0);
  check "to_array" true (Array.length (Int_vec.to_array v) = 100);
  let total = ref 0 in
  Int_vec.iter (fun x -> total := !total + x) v;
  check "iter covers all" true (!total > 0);
  Int_vec.clear v;
  check_int "cleared" 0 (Int_vec.length v)

let test_prng_split_independence () =
  let rng = Prng.create 123L in
  let child = Prng.split rng in
  (* drawing from the child must not disturb the parent's stream *)
  let rng2 = Prng.create 123L in
  let _child2 = Prng.split rng2 in
  let a = List.init 5 (fun _ -> Prng.int rng 1000) in
  ignore (List.init 50 (fun _ -> Prng.int child 1000));
  let b = List.init 5 (fun _ -> Prng.int rng2 1000) in
  check "parent unaffected by child draws" true (a = b)

let test_prng_copy () =
  let rng = Prng.create 9L in
  ignore (Prng.int rng 10);
  let snap = Prng.copy rng in
  let a = List.init 5 (fun _ -> Prng.int rng 1000) in
  let b = List.init 5 (fun _ -> Prng.int snap 1000) in
  check "copy replays" true (a = b)

let test_prng_in_range_bounds () =
  let rng = Prng.create 77L in
  for _ = 1 to 1000 do
    let v = Prng.in_range rng (-5) 5 in
    if v < -5 || v > 5 then Alcotest.fail "out of range"
  done;
  check_int "degenerate range" 3 (Prng.in_range rng 3 3)

let test_prng_choose_shuffle () =
  let rng = Prng.create 88L in
  let arr = [| 1; 2; 3; 4; 5; 6; 7; 8 |] in
  let orig = Array.copy arr in
  Prng.shuffle rng arr;
  check "permutation" true
    (List.sort compare (Array.to_list arr) = Array.to_list orig);
  let c = Prng.choose rng arr in
  check "chosen member" true (Array.exists (fun x -> x = c) arr)

let test_timer () =
  let r, dt = St_util.Timer.time_it (fun () -> 42) in
  check_int "result" 42 r;
  check "nonnegative" true (dt >= 0.0);
  let best = St_util.Timer.best_of ~repeats:3 (fun () -> ()) in
  check "best nonneg" true (best >= 0.0);
  check "throughput" true
    (St_util.Timer.throughput_mbps ~bytes:2_000_000 2.0 = 1.0)

let suite =
  [
    Alcotest.test_case "bits basics" `Quick test_bits_basics;
    Alcotest.test_case "bits word boundaries" `Quick test_bits_word_boundaries;
    Alcotest.test_case "bits set ops" `Quick test_bits_set_ops;
    Alcotest.test_case "bits copy/equal/hash" `Quick test_bits_copy_equal_hash;
    Alcotest.test_case "bits hash spread" `Quick test_bits_hash_spread;
    Alcotest.test_case "bits fold/iter" `Quick test_bits_fold_iter;
    Alcotest.test_case "int_vec" `Quick test_int_vec;
    Alcotest.test_case "prng split" `Quick test_prng_split_independence;
    Alcotest.test_case "prng copy" `Quick test_prng_copy;
    Alcotest.test_case "prng in_range" `Quick test_prng_in_range_bounds;
    Alcotest.test_case "prng choose/shuffle" `Quick test_prng_choose_shuffle;
    Alcotest.test_case "timer" `Quick test_timer;
  ]
