open St_regex
open St_automata
open St_grammars

type witness = { long_token : string; input : string; bpe : int list }

let witness_to_string w =
  Printf.sprintf
    "on input %S longest-match takes %S but the merge loop yields token ids \
     [%s]"
    w.input w.long_token
    (String.concat "; " (List.map string_of_int w.bpe))

(* Munch-consistency audit. A mismatch between longest-match and the
   merge loop exists iff
   (a) some token is "dead" (does not encode to itself), or
   (b) some token v is covered by a pairwise-valid chain u1 u2 ... uk
       whose first token u1 is a proper vocab prefix of v: the chain's
       concatenation w then BPE-encodes to [u1; u2; ...] (2-locality)
       while munch's first token on w has length >= |v| > |u1|.
   The chain search per v runs over (last token, matched position)
   states; pair validity is decided by reference encodes and memoized.
   Every candidate witness is re-verified against the actual encoder
   before being reported, so a reported witness is always real. *)

let audit vocab =
  let n = Vocab.size vocab in
  let toks = Vocab.tokens vocab in
  let dead = ref None in
  (* (a) dead tokens: single bytes trivially self-encode, check the rest *)
  for id = 0 to n - 1 do
    if !dead = None && String.length toks.(id) >= 2 then begin
      let bpe = Encoder.encode vocab toks.(id) in
      if bpe <> [ id ] then
        dead := Some { long_token = toks.(id); input = toks.(id); bpe }
    end
  done;
  match !dead with
  | Some w -> Error w
  | None ->
      (* pair validity, memoized on demand *)
      let valid_tbl = Hashtbl.create 4096 in
      let valid a b =
        let key = (a * n) + b in
        match Hashtbl.find_opt valid_tbl key with
        | Some r -> r
        | None ->
            let r = Encoder.encode vocab (toks.(a) ^ toks.(b)) = [ a; b ] in
            Hashtbl.add valid_tbl key r;
            r
      in
      (* every nonempty prefix of every token -> the tokens extending it
         (used for the chain's final, possibly overhanging token) *)
      let ext_index = Hashtbl.create (4 * n) in
      Array.iteri
        (fun id tok ->
          for l = 1 to String.length tok do
            Hashtbl.add ext_index (String.sub tok 0 l) id
          done)
        toks;
      let longest_vocab_prefix w =
        let rec go l =
          if l <= 0 then 0
          else if Vocab.mem vocab (String.sub w 0 l) then l
          else go (l - 1)
        in
        go (min (String.length w) (Vocab.max_token_len vocab))
      in
      let check_v vid =
        let v = toks.(vid) in
        let lv = String.length v in
        let no_wit = Hashtbl.create 64 in
        (* state: chain concatenates to v[0..p), last token t, 0 < p < lv *)
        let rec dfs t p chain_rev =
          if Hashtbl.mem no_wit ((t * (lv + 1)) + p) then None
          else begin
            let close =
              let suffix = String.sub v p (lv - p) in
              let rec try_closers = function
                | [] -> None
                | t' :: rest ->
                    if valid t t' then begin
                      let w =
                        String.concat ""
                          (List.rev (toks.(t') :: chain_rev))
                      in
                      let bpe = Encoder.encode vocab w in
                      let ml = longest_vocab_prefix w in
                      match bpe with
                      | first :: _ when String.length toks.(first) <> ml ->
                          Some
                            {
                              long_token = String.sub w 0 ml;
                              input = w;
                              bpe;
                            }
                      | _ -> try_closers rest
                    end
                    else try_closers rest
              in
              try_closers (Hashtbl.find_all ext_index suffix)
            in
            match close with
            | Some _ as found -> found
            | None ->
                let rec try_len l =
                  if p + l >= lv then None
                  else
                    let r =
                      match Vocab.rank vocab (String.sub v p l) with
                      | Some t' when valid t t' ->
                          dfs t' (p + l) (toks.(t') :: chain_rev)
                      | _ -> None
                    in
                    (match r with
                    | Some _ as found -> found
                    | None -> try_len (l + 1))
                in
                (match try_len 1 with
                | Some _ as found -> found
                | None ->
                    Hashtbl.add no_wit ((t * (lv + 1)) + p) ();
                    None)
          end
        in
        let rec try_start l =
          if l >= lv then None
          else
            match Vocab.rank vocab (String.sub v 0 l) with
            | Some u1 -> (
                match dfs u1 l [ toks.(u1) ] with
                | Some _ as found -> found
                | None -> try_start (l + 1))
            | None -> try_start (l + 1)
        in
        try_start 1
      in
      let wit = ref None in
      let vid = ref 0 in
      while !wit = None && !vid < n do
        if String.length toks.(!vid) >= 2 then wit := check_v !vid;
        incr vid
      done;
      (match !wit with Some w -> Error w | None -> Ok ())

let rules_of_vocab vocab =
  Array.to_list (Array.map Regex.str (Vocab.tokens vocab))

let rule_name id = Printf.sprintf "t%d" id

let grammar_of_vocab ?(name = "bpe") vocab =
  let pairs =
    Array.to_list
      (Array.mapi
         (fun id tok -> (rule_name id, Regex.to_string (Regex.str tok)))
         (Vocab.tokens vocab))
  in
  match
    Grammar.of_rules ~name
      ~description:
        (Printf.sprintf "BPE vocabulary, %d tokens (rule index = token id)"
           (Vocab.size vocab))
      pairs
  with
  | Ok g -> g
  | Error e ->
      (* literal rules are printer output and always re-parse *)
      failwith ("Compiler.grammar_of_vocab: " ^ e)

let default_max_states = 65536

let admit vocab =
  match audit vocab with
  | Error w ->
      Error ("vocabulary is not munch-consistent — " ^ witness_to_string w)
  | Ok () -> Ok (rules_of_vocab vocab)

let dfa ?(audit = true) ?(max_states = default_max_states) vocab =
  Result.bind
    (if audit then admit vocab else Ok (rules_of_vocab vocab))
    (fun rules ->
      match Dfa.of_rules ~max_states rules with
      | d -> Ok d
      | exception Failure msg -> Error msg)
