open St_util
open St_regex

let small_alphabet = [ 'a'; 'b'; 'c' ]

let charset_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun c -> Charset.singleton c) (oneofl small_alphabet);
        return (Charset.of_string "ab");
        return (Charset.of_string "bc");
        return (Charset.of_string "abc");
        return (Charset.negate (Charset.of_string "ab"));
      ])

let regex_gen =
  QCheck.Gen.(
    sized_size (int_range 1 8)
    @@ fix (fun self n ->
        if n <= 1 then
          oneof [ map Regex.cls charset_gen; return Regex.eps ]
        else
          frequency
            [
              (3, map Regex.cls charset_gen);
              (3, map2 Regex.seq (self (n / 2)) (self (n / 2)));
              (2, map2 Regex.alt (self (n / 2)) (self (n / 2)));
              (1, map Regex.star (self (n / 2)));
              (1, map Regex.plus (self (n / 2)));
              (1, map Regex.opt (self (n / 2)));
            ]))

let nonempty rules =
  match List.filter (fun r -> not (Regex.is_empty_lang r)) rules with
  | [] -> [ Regex.chr 'a' ]
  | rs -> rs

let grammar_gen =
  QCheck.Gen.(list_size (int_range 1 4) regex_gen |> map nonempty)

let input_gen =
  QCheck.Gen.(string_size ~gen:(oneofl small_alphabet) (int_range 0 24))

let print_grammar rules =
  String.concat " | " (List.map Regex.to_string rules)

let grammar_arb = QCheck.make grammar_gen ~print:print_grammar

let grammar_input_arb =
  QCheck.make
    QCheck.Gen.(pair grammar_gen input_gen)
    ~print:(fun (rules, s) ->
      Printf.sprintf "grammar: %s\ninput: %S" (print_grammar rules) s)

(* Chunk partitions reuse the seeded Chunking machinery: draw a fresh Prng
   from qcheck's random state so qcheck still controls reproduction via its
   own seed. *)
let prng_gen =
  QCheck.Gen.(map (fun i -> Prng.create (Int64.of_int i)) (int_bound 0x3FFFFFFF))

let grammar_input_chunks_arb =
  let gen =
    QCheck.Gen.(
      pair grammar_gen (pair input_gen prng_gen)
      |> map (fun (rules, (s, rng)) ->
             (rules, s, Chunking.random rng (String.length s))))
  in
  QCheck.make gen ~print:(fun (rules, s, chunks) ->
      Printf.sprintf "grammar: %s\ninput: %S\nchunks: [%s]" (print_grammar rules)
        s
        (String.concat "; " (List.map string_of_int chunks)))

let same_tokens a b =
  List.length a = List.length b
  && List.for_all2 (fun (x, i) (y, j) -> x = y && i = j) a b
