(* Streaming log parsing (paper RQ5): convert raw logs to a semi-structured
   TSV representation using only a tokenizer — no stack-based parsing.
   Compares the flex-style backtracking backend with StreamTok on the same
   pipeline, mirroring one row of Table 2.

   Run with: dune exec examples/log_to_tsv.exe [-- <format>]
   where <format> is one of the 12 Table-2 names (default: linux). *)

open Streamtok

let () =
  let format = if Array.length Sys.argv >= 2 then Sys.argv.(1) else "linux" in
  let grammar =
    match Registry.find format with
    | Some g -> g
    | None ->
        Printf.eprintf "unknown format %s; available: %s\n" format
          (String.concat ", " Gen_logs.formats);
        exit 1
  in
  let input = Gen_logs.generate ~format ~target_bytes:5_000_000 () in
  Printf.printf "format %s: %d bytes of generated log\n" format
    (String.length input);

  let app = Log_to_tsv.prepare grammar in
  let run backend =
    let p = Tokenizer_backend.prepare backend grammar in
    let ts = Token_stream.create () in
    let t0 = Unix.gettimeofday () in
    let filled = Token_stream.fill p input ts in
    let t_tok = Unix.gettimeofday () -. t0 in
    assert (filled = Ok ());
    let out = Buffer.create (String.length input) in
    let t1 = Unix.gettimeofday () in
    let records = Log_to_tsv.process app input ts out in
    let t_rest = Unix.gettimeofday () -. t1 in
    (t_tok, t_rest, records, Buffer.length out)
  in
  let flex_tok, rest, records, out_bytes = run Tokenizer_backend.Flex in
  let stk_tok, _, records', _ = run Tokenizer_backend.Streamtok in
  assert (records = records');
  Printf.printf "records: %d, TSV output: %d bytes\n" records out_bytes;
  Printf.printf "tokenization (flex-style): %.3f s\n" flex_tok;
  Printf.printf "tokenization (StreamTok):  %.3f s\n" stk_tok;
  Printf.printf "rest of pipeline:          %.3f s\n" rest;
  Printf.printf "application speedup:       %.2fx\n"
    ((flex_tok +. rest) /. (stk_tok +. rest))
