open Streamtok

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_empty_full () =
  check "empty has no members" true (Charset.is_empty Charset.empty);
  check "full is not empty" false (Charset.is_empty Charset.full);
  check_int "full has 256 members" 256 (Charset.cardinal Charset.full);
  for i = 0 to 255 do
    check "full mem" true (Charset.mem Charset.full (Char.chr i));
    check "empty mem" false (Charset.mem Charset.empty (Char.chr i))
  done

let test_singleton () =
  let s = Charset.singleton 'x' in
  check "mem x" true (Charset.mem s 'x');
  check "not mem y" false (Charset.mem s 'y');
  check_int "cardinal" 1 (Charset.cardinal s)

let test_range () =
  let s = Charset.range 'a' 'f' in
  check_int "cardinal" 6 (Charset.cardinal s);
  check "a" true (Charset.mem s 'a');
  check "f" true (Charset.mem s 'f');
  check "g" false (Charset.mem s 'g');
  check "`" false (Charset.mem s '`')

let test_range_single () =
  let s = Charset.range 'q' 'q' in
  check_int "cardinal" 1 (Charset.cardinal s)

let test_union_inter_diff () =
  let a = Charset.range 'a' 'm' and b = Charset.range 'h' 'z' in
  check_int "union" 26 (Charset.cardinal (Charset.union a b));
  check_int "inter" 6 (Charset.cardinal (Charset.inter a b));
  check_int "diff" 7 (Charset.cardinal (Charset.diff a b));
  check "union assoc member" true (Charset.mem (Charset.union a b) 'z')

let test_negate () =
  let s = Charset.of_string "abc" in
  let n = Charset.negate s in
  check "not a" false (Charset.mem n 'a');
  check "d" true (Charset.mem n 'd');
  check_int "cardinal" 253 (Charset.cardinal n);
  check "double negation" true (Charset.equal s (Charset.negate n))

let test_word_boundary_bytes () =
  (* members at the word boundaries of the int64 representation *)
  let s = Charset.of_list [ '\x3f'; '\x40'; '\x7f'; '\x80'; '\xbf'; '\xc0'; '\xff'; '\x00' ] in
  check_int "cardinal" 8 (Charset.cardinal s);
  List.iter
    (fun c -> check "mem" true (Charset.mem s c))
    [ '\x3f'; '\x40'; '\x7f'; '\x80'; '\xbf'; '\xc0'; '\xff'; '\x00' ]

let test_named_classes () =
  check_int "digit" 10 (Charset.cardinal Charset.digit);
  check_int "alpha" 52 (Charset.cardinal Charset.alpha);
  check_int "word" 63 (Charset.cardinal Charset.word);
  check "space has tab" true (Charset.mem Charset.space '\t');
  check "any excludes newline" false (Charset.mem Charset.any '\n');
  check_int "any" 255 (Charset.cardinal Charset.any)

let test_choose () =
  check "choose empty" true (Charset.choose Charset.empty = None);
  check "choose digit" true (Charset.choose Charset.digit = Some '0')

let test_iter_fold () =
  let count = ref 0 in
  Charset.iter (fun _ -> incr count) Charset.digit;
  check_int "iter visits all" 10 !count;
  let sum = Charset.fold (fun c acc -> acc + Char.code c) Charset.digit 0 in
  check_int "fold sum of digit codes" (10 * 48 + 45) sum

let test_roundtrip_print_parse () =
  (* printing a class and re-parsing it yields the same set *)
  let cases =
    [
      Charset.digit;
      Charset.word;
      Charset.negate Charset.word;
      Charset.of_string "a-c]^\\";
      Charset.of_string "\x00\x01\xfe\xff";
      Charset.range ' ' '~';
      (* fuzzer-found: the full and empty sets used to print as "[^]"/"[]",
         which the parser rejects *)
      Charset.negate Charset.empty;
      Charset.empty;
    ]
  in
  List.iter
    (fun s ->
      let printed = Charset.to_string s in
      match Parser.parse printed with
      | Regex.Cls s' ->
          check (Printf.sprintf "roundtrip %s" printed) true (Charset.equal s s')
      | _ -> Alcotest.failf "parse of %s not a class" printed)
    cases

let test_hash_equal_consistent () =
  let a = Charset.of_string "xyz" in
  let b = Charset.union (Charset.singleton 'x') (Charset.of_string "yz") in
  check "equal" true (Charset.equal a b);
  check_int "hash equal" (Charset.hash a) (Charset.hash b)

(* [iter] yields exactly the members [mem] reports, in ascending order. *)
let iter_matches_mem cs =
  let got = ref [] in
  Charset.iter (fun c -> got := Char.code c :: !got) cs;
  List.rev !got
  = List.filter (fun b -> Charset.mem cs (Char.chr b)) (List.init 256 Fun.id)

let test_iter_edges () =
  let edges = [ 0; 31; 32; 63; 64; 127; 128; 191; 192; 255 ] in
  List.iter
    (fun cs -> check (Charset.to_string cs) true (iter_matches_mem cs))
    ([ Charset.empty; Charset.full ]
    @ List.map (fun b -> Charset.singleton (Char.chr b)) edges
    @ [ Charset.of_list (List.map Char.chr edges) ])

let prop_iter_matches_mem =
  QCheck.Test.make ~count:500 ~name:"iter = ascending mem"
    QCheck.(list_of_size Gen.(0 -- 300) (int_bound 255))
    (fun bytes -> iter_matches_mem (Charset.of_list (List.map Char.chr bytes)))

let suite =
  [
    Alcotest.test_case "empty/full" `Quick test_empty_full;
    Alcotest.test_case "singleton" `Quick test_singleton;
    Alcotest.test_case "range" `Quick test_range;
    Alcotest.test_case "range single" `Quick test_range_single;
    Alcotest.test_case "union/inter/diff" `Quick test_union_inter_diff;
    Alcotest.test_case "negate" `Quick test_negate;
    Alcotest.test_case "word-boundary bytes" `Quick test_word_boundary_bytes;
    Alcotest.test_case "named classes" `Quick test_named_classes;
    Alcotest.test_case "choose" `Quick test_choose;
    Alcotest.test_case "iter/fold" `Quick test_iter_fold;
    Alcotest.test_case "iter edge bytes" `Quick test_iter_edges;
    QCheck_alcotest.to_alcotest prop_iter_matches_mem;
    Alcotest.test_case "print/parse roundtrip" `Quick test_roundtrip_print_parse;
    Alcotest.test_case "hash/equal" `Quick test_hash_equal_consistent;
  ]
