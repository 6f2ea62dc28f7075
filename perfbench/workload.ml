(* The four workloads: seeded inputs and their reference tokenizations.

   Everything here is a pure function of the workload name and the seed.
   The daemon only ever receives the bytes generated here (grammar specs,
   vocabulary text, documents); references are computed in-process before
   any timing starts — [Backtracking.run] on the grammar DFA for grammar
   workloads, the [Bpe.Encoder] merge loop for vocabularies — so parity is
   checked against implementations independent of the streaming engine. *)

open Streamtok
open Common
module W = Serve.Wire

type doc = { text : string; mutable expect : digest }

(* Where a grammar comes from, for the in-process compile layer. *)
type source = Spec of string | Vocab of Bpe.Vocab.t

type grammar = {
  kind : string;  (** json | csv | bpe-mini | corpus | bpe-tiny | unbounded *)
  request : W.request;  (** the OPEN or OPEN_BPE the client sends *)
  source : source;
  ids : bool;  (** replies are IDS frames (token ids, no lexemes) *)
  bounded : bool;  (** expected verdict: OPENED, or Bad_grammar if false *)
  docs : doc array;
}

type t = {
  name : string;
  seed : int;
  grammars : grammar array;
      (** streaming workloads: one grammar; grammar-churn: the op stream,
          every entry a distinct grammar *)
  variants : grammar array;
      (** streaming workloads: cache-miss renamings of the grammar, OPENed
          for the open metrics *)
  warm : grammar option;  (** grammar-churn: the set-up op (timed in setup_s) *)
  cycle : int;  (** grammar-churn: ops per mix cycle *)
}

(* FEED frame payload size, and the streaming workloads' connections: one,
   because the daemon and the generator share one CPU at a time (see
   perfbench.ml), where a second connection adds no parallelism, only
   interleaving that makes a document's latency depend on the other
   connection's timing. *)
let feed_bytes = 65536
let connections = 1

let names = [ "json-te"; "csv-k1"; "bpe-ids"; "grammar-churn" ]

(* Independent, reproducible sub-streams of the run seed. *)
let rng_of seed stream =
  Prng.create (Int64.of_int ((seed * 1_000_003) + (stream * 7919) + 17))

(* ---- References ---- *)

let grammar_digest dfa text =
  let h = ref hash_basis and n = ref 0 in
  let outcome, _steps =
    Backtracking.run dfa text ~emit:(fun ~pos ~len ~rule ->
        incr n;
        h := hash_token_string !h ~rule text pos len)
  in
  match outcome with
  | Backtracking.Finished ->
      { count = !n; hash = !h; ok = true; offset = String.length text }
  | Backtracking.Failed { offset; _ } ->
      { count = !n; hash = !h; ok = false; offset }

let bpe_digest vocab text =
  let ids = Bpe.Encoder.encode vocab text in
  {
    count = List.length ids;
    hash = List.fold_left hash_id hash_basis ids;
    ok = true;
    offset = String.length text;
  }

let resolve_rules spec =
  match Registry.resolve spec with
  | Ok g -> Grammar.rules g
  | Error msg -> failwith ("perfbench: grammar spec does not resolve: " ^ msg)

let source_of_rules rules =
  String.concat "" (List.map (fun r -> Regex.to_string r ^ "\n") rules)

(* ---- Renamings ----

   A bijection on bytes maps a grammar or a vocabulary to an isomorphic
   one: same DFA shape, same analysis, same munch-consistency, so the same
   compile work — but a different engine-cache key. The benchmark uses
   renamings wherever it needs many cache-miss OPENs of equal cost.
   Grammars get a permutation of the printable bytes '!'..'~' (one of the
   letters alone leaves csv, whose classes hold every letter, unchanged);
   vocabularies, whose tokens are text, a permutation of the letters. *)

let perm_of_range rng lo hi =
  let range = Array.init (hi - lo + 1) (fun i -> Char.chr (lo + i)) in
  Prng.shuffle rng range;
  let perm = Array.init 256 Char.chr in
  Array.iteri (fun i c -> perm.(lo + i) <- c) range;
  perm

let letter_perm rng = perm_of_range rng (Char.code 'a') (Char.code 'z')
let rename_string perm s = String.map (fun c -> perm.(Char.code c)) s

let rec rename_regex perm = function
  | Regex.Eps -> Regex.Eps
  | Regex.Cls cs ->
      Regex.Cls
        (Charset.fold
           (fun c acc -> Charset.union acc (Charset.singleton perm.(Char.code c)))
           cs Charset.empty)
  | Regex.Alt (a, b) -> Regex.Alt (rename_regex perm a, rename_regex perm b)
  | Regex.Seq (a, b) -> Regex.Seq (rename_regex perm a, rename_regex perm b)
  | Regex.Star a -> Regex.Star (rename_regex perm a)

(* Every token keeps its id (= merge rank), so a renamed text encodes to
   the same ids under the renamed vocabulary as the text does under the
   original. *)
let rename_vocab perm v =
  let toks = Array.map (rename_string perm) (Bpe.Vocab.tokens v) in
  match Bpe.Vocab.of_tokens toks with
  | Ok v -> v
  | Error e -> failwith ("perfbench: renamed vocabulary: " ^ e)

(* A renaming of [g] (without its documents). A grammar renaming is drawn
   again until its printed form parses back to the renamed rules. *)
let rec renamed rng (g : grammar) =
  match g.source with
  | Spec s -> (
      let rules = List.map (rename_regex (perm_of_range rng 0x21 0x7e)) (resolve_rules s) in
      let spec = source_of_rules rules in
      match Registry.resolve spec with
      | Ok g' when List.equal Regex.equal (Grammar.rules g') rules ->
          { g with kind = g.kind ^ "-renamed"; request = W.Open spec; source = Spec spec; docs = [||] }
      | _ -> renamed rng g)
  | Vocab v ->
      let v = rename_vocab (letter_perm rng) v in
      {
        g with
        kind = g.kind ^ "-renamed";
        request = W.Open_bpe { ids = g.ids; vocab = Bpe.Vocab.to_tiktoken v };
        source = Vocab v;
        docs = [||];
      }

let request_key = function
  | W.Open s -> "o" ^ s
  | W.Open_bpe { vocab; _ } -> "b" ^ vocab
  | _ -> ""

(* [distinct seen make] draws from [make] until the request is one [seen]
   has not had, so every OPEN of a run is a cache miss. *)
let distinct seen make =
  let rec go () =
    let g = make () in
    let key = request_key g.request in
    if Hashtbl.mem seen key then go ()
    else begin
      Hashtbl.add seen key ();
      g
    end
  in
  go ()

let variants ~seed ~count g =
  let rng = rng_of seed 4 and seen = Hashtbl.create count in
  Array.init count (fun _ -> distinct seen (fun () -> renamed rng g))

(* ---- Streaming workloads ---- *)

(* A streaming workload cycles through [doc_count] documents of one size,
   so doc_p90 reads the tail of one population rather than the middle of
   a minority of large documents. *)
let doc_count = 48
let doc_bytes = 32 * 1024

(* [opens] cache-miss OPENs are timed per run: enough that open_p90 has
   samples beyond it and every slice of the run has one, few enough that
   the mini vocabulary's (about a quarter second each) stay a small part
   of the run. *)
let streaming ~name ~seed ~opens g =
  {
    name;
    seed;
    grammars = [| g |];
    variants = variants ~seed ~count:opens g;
    warm = None;
    cycle = 1;
  }

let format_workload ~name ~seed ~spec gen =
  let dfa = Dfa.of_rules (resolve_rules spec) in
  let docs =
    Array.init doc_count (fun i ->
        let text =
          gen
            ~seed:(Prng.next_int64 (rng_of seed (100 + i)))
            ~target_bytes:doc_bytes ()
        in
        { text; expect = grammar_digest dfa text })
  in
  streaming ~name ~seed ~opens:200
    {
      kind = spec;
      request = W.Open spec;
      source = Spec spec;
      ids = false;
      bounded = true;
      docs;
    }

(* The vendored mini vocabulary (401 DFA states, max-TND 5). Its lazy
   token-extension DFA grows with every distinct context it sees, so the
   distinct text is bounded: one 4 KiB pool, served as rotations. *)
let mini_vocab_path = "test/vocab/mini.tiktoken"
let bpe_pool_bytes = 4096

let bpe_workload ~seed =
  let vocab_text = read_file mini_vocab_path in
  let vocab =
    match Bpe.Vocab.of_string vocab_text with
    | Ok v -> v
    | Error e -> failwith ("perfbench: " ^ mini_vocab_path ^ ": " ^ e)
  in
  let rng = rng_of seed 1 in
  let pool = Bpe.Trainer.gen_corpus rng bpe_pool_bytes in
  let n = String.length pool in
  let rotation () =
    let off = Prng.int rng n in
    String.sub pool off (n - off) ^ String.sub pool 0 off
  in
  let docs =
    Array.init doc_count (fun _ ->
        let text = rotation () in
        { text; expect = bpe_digest vocab text })
  in
  streaming ~name:"bpe-ids" ~seed ~opens:20
    {
      kind = "bpe-mini";
      request = W.Open_bpe { ids = true; vocab = vocab_text };
      source = Vocab vocab;
      ids = true;
      bounded = true;
      docs;
    }

(* ---- grammar-churn ----

   Every op OPENs a distinct grammar, so every OPEN is a cache miss, and
   each grammar that opens tokenizes one small document. The mix is fixed
   per cycle of 20 ops (order shuffled per cycle) so that a run's cost
   does not depend on what the seed happened to draw, and so that the
   percentiles fall inside a cluster rather than between two:
     4 Grammar_corpus samples (fast; a 4 KiB token-dense document)
     9 renamings of one Trainer.tiny vocabulary (subset construction;
       a renamed 4 KiB document)
     1 / 5 / 1 unbounded [xy]*x[xy]{n} at n = 9 / 10 / 11
       (Bad_grammar; the analysis dominates)       -> open_p90 lands in
                                                      the n = 10 cluster *)

let churn_cycle = 20

(* The size of every op's document. *)
let churn_doc_bytes = 4096

(* Cycles generated per second of run: more than a run can use on a fast
   machine (a cycle takes about a second here, nearly all of it compile). *)
let churn_cycles_per_s = 3.

(* A bounded Grammar_corpus sample, as grammar source, with a token-dense
   document. [None] when the printed form does not round-trip, the DFA is
   large, or the max-TND is unbounded. *)
let corpus_grammar rng =
  let rules = Grammar_corpus.sample rng in
  let spec = source_of_rules rules in
  match Registry.resolve spec with
  | Error _ -> None
  | Ok g ->
      let rules' = Grammar.rules g in
      if not (List.equal Regex.equal rules rules') then None
      else
        let dfa = Dfa.of_rules rules' in
        if Dfa.size dfa > 4096 then None
        else
          match Tnd.max_tnd dfa with
          | Tnd.Infinite -> None
          | Tnd.Finite _ ->
              let text = Fuzz.Gen.token_dense rng dfa ~target_len:churn_doc_bytes in
              Some
                {
                  kind = "corpus";
                  request = W.Open spec;
                  source = Spec spec;
                  ids = false;
                  bounded = true;
                  docs = [| { text; expect = grammar_digest dfa text } |];
                }

let rec bounded_corpus_grammar rng =
  match corpus_grammar rng with Some g -> g | None -> bounded_corpus_grammar rng

(* Text over Trainer.tiny's six letters, as in its training corpus. *)
let tiny_text rng =
  let letters = "abcdef" in
  let b = Buffer.create churn_doc_bytes in
  while Buffer.length b < churn_doc_bytes do
    for _ = 0 to Prng.int rng 4 do
      Buffer.add_char b letters.[Prng.int rng (String.length letters)]
    done;
    if Prng.bool rng then Buffer.add_char b ' '
  done;
  Buffer.contents b

(* A renaming of [base] with the documents [texts] (and their merge-loop
   digests under [base], which renaming preserves) renamed alike. *)
let tiny_grammar rng ~base texts =
  let perm = letter_perm rng in
  let v = rename_vocab perm base in
  {
    kind = "bpe-tiny";
    request = W.Open_bpe { ids = true; vocab = Bpe.Vocab.to_tiktoken v };
    source = Vocab v;
    ids = true;
    bounded = true;
    docs = Array.map (fun d -> { d with text = rename_string perm d.text }) texts;
  }

(* [xy]*x[xy]{n}: the (n+1)-th symbol from the end is fixed, so no
   lookahead bound exists (max-TND is infinite by construction) and the
   analysis explores the whole 2^(n+1)-state DFA before saying so. *)
let unbounded_grammar rng n =
  let x = Char.chr (Char.code 'a' + Prng.int rng 26) in
  let y = Char.chr (Char.code 'a' + ((Char.code x - 97 + 1 + Prng.int rng 25) mod 26)) in
  let spec = Printf.sprintf "[%c%c]*%c[%c%c]{%d}\n" x y x x y n in
  {
    kind = Printf.sprintf "unbounded-%d" n;
    request = W.Open spec;
    source = Spec spec;
    ids = false;
    bounded = false;
    docs = [||];
  }

let cycle_kinds =
  [| `Corpus, 4; `Tiny, 9; `Unbounded 9, 1; `Unbounded 10, 5; `Unbounded 11, 1 |]

let churn_workload ~seed ~seconds =
  let rng = rng_of seed 2 in
  (* one vocabulary and one text for every seed: each renaming costs the
     same, so the seed moves which grammars are drawn, not the cost mix *)
  let base = Bpe.Trainer.tiny ~seed:0x7157L in
  let base_text = tiny_text (Prng.create 0x7e57L) in
  let tiny_docs = [| { text = base_text; expect = bpe_digest base base_text } |] in
  let tiny rng = tiny_grammar rng ~base tiny_docs in
  let seen = Hashtbl.create 512 in
  let fresh = distinct seen in
  let cycle () =
    let kinds =
      Array.concat
        (Array.to_list (Array.map (fun (k, n) -> Array.make n k) cycle_kinds))
    in
    Prng.shuffle rng kinds;
    Array.map
      (fun kind ->
        fresh (fun () ->
            match kind with
            | `Corpus -> bounded_corpus_grammar rng
            | `Tiny -> tiny rng
            | `Unbounded n -> unbounded_grammar rng n))
      kinds
  in
  let cycles = 2 + int_of_float (Float.ceil (churn_cycles_per_s *. seconds)) in
  let grammars = Array.concat (List.init cycles (fun _ -> cycle ())) in
  (* the set-up op compiles a tiny vocabulary: tens of milliseconds of
     subset construction, so setup_s is a compile, not process-spawn noise *)
  let warm = fresh (fun () -> tiny (rng_of seed 3)) in
  (* the renamed references rest on renaming preserving ids: check it on
     one renaming against the merge loop itself *)
  (match (warm.source, warm.docs) with
  | Vocab v, docs when not (digest_equal (bpe_digest v docs.(0).text) docs.(0).expect) ->
      failwith "perfbench: a renamed vocabulary encodes to different ids"
  | _ -> ());
  {
    name = "grammar-churn";
    seed;
    grammars;
    variants = [||];
    warm = Some warm;
    cycle = churn_cycle;
  }

(* [seconds] is the run length: grammar-churn generates enough distinct
   ops for it. *)
let make ~name ~seed ~seconds =
  match name with
  | "json-te" ->
      format_workload ~name ~seed ~spec:"json" (fun ~seed ~target_bytes () ->
          Gen_data.json ~seed ~target_bytes ())
  | "csv-k1" ->
      format_workload ~name ~seed ~spec:"csv" (fun ~seed ~target_bytes () ->
          Gen_data.csv ~seed ~target_bytes ())
  | "bpe-ids" -> bpe_workload ~seed
  | "grammar-churn" -> churn_workload ~seed ~seconds
  | other ->
      failwith
        (Printf.sprintf "perfbench: unknown workload %S (known: %s)" other
           (String.concat ", " names))

(* Digest of every byte the daemon would receive, for the determinism
   self-test. *)
let input_digest t =
  let b = Buffer.create 4096 in
  let add g =
    W.encode_request b g.request;
    Array.iter (fun d -> Buffer.add_string b (Digest.string d.text)) g.docs
  in
  Option.iter add t.warm;
  Array.iter add t.grammars;
  Array.iter add t.variants;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Damage one reference so the parity check must trip (self-test). *)
let corrupt_reference t =
  match Array.find_opt (fun g -> Array.length g.docs > 0) t.grammars with
  | Some g -> g.docs.(0).expect <- { (g.docs.(0).expect) with hash = 0 }
  | None -> ()

let total_doc_bytes g = Array.fold_left (fun a d -> a + String.length d.text) 0 g.docs
