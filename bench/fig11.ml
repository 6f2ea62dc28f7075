(* Fig. 11 (RQ4): effect of the input-stream buffer capacity (11a) and of
   the average token length (11b) on flex and StreamTok throughput.
   Both tools run through their buffered streaming paths here, so buffer
   refills and tail moves are charged to both. *)

open Streamtok

let capacities = [ 1 lsl 10; 1 lsl 12; 1 lsl 14; 1 lsl 16; 1 lsl 18; 1 lsl 20 ]
let token_lengths = [ 2; 4; 8; 16; 32; 64 ]

(* The stream comes from an actual file via Unix.read so that small buffer
   capacities pay real syscall costs, as in the paper's setup. *)
let with_file_source input f =
  let path = Filename.temp_file "streamtok_bench" ".dat" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc input;
      close_out oc;
      let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          f (fun () ->
              ignore (Unix.lseek fd 0 Unix.SEEK_SET);
              Source.of_fd fd)))

let run_flex_buffered fm ~capacity fresh_source =
  let source = fresh_source () in
  let read buf ~pos ~len = Source.read source buf ~pos ~len in
  ignore
    (Flex_model.run_buffered fm ~capacity ~read ~emit:(fun lex rule ->
         Bench_common.emit_strings lex rule))

let run_streamtok_buffered engine ~capacity fresh_source =
  let source = fresh_source () in
  ignore
    (Buffered.run_streamtok engine ~capacity source ~emit:(fun lex rule ->
         Bench_common.emit_strings lex rule))

let formats_for_rq4 = [ ("csv", Formats.csv); ("json", Formats.json) ]

let run ?(size_mb = 8) () =
  Bench_common.pp_header
    (Printf.sprintf "Fig. 11a (RQ4): throughput (MB/s) vs buffer capacity (%d MB streams)" size_mb);
  let bytes = size_mb * Bench_common.mb in
  List.iter
    (fun (name, g) ->
      let d = Grammar.dfa g in
      let fm = Flex_model.compile d in
      let engine =
        match Engine.compile d with Ok e -> e | Error _ -> assert false
      in
      let gen = Option.get (Gen_data.by_name name) in
      let input = gen ~seed:Bench_common.seed_data ~target_bytes:bytes () in
      with_file_source input (fun fresh_source ->
          Printf.printf "\n-- %s --\n%-12s" name "capacity";
          List.iter
            (fun c -> Printf.printf "%10s" (Printf.sprintf "%dK" (c / 1024)))
            capacities;
          print_newline ();
          Printf.printf "%-12s" "flex";
          List.iter
            (fun capacity ->
              let dt =
                Bench_common.time_best ~repeats:2 (fun () ->
                    run_flex_buffered fm ~capacity fresh_source)
              in
              Printf.printf "%10.1f" (Bench_common.throughput bytes dt))
            capacities;
          print_newline ();
          Printf.printf "%-12s" "streamtok";
          List.iter
            (fun capacity ->
              let dt =
                Bench_common.time_best ~repeats:2 (fun () ->
                    run_streamtok_buffered engine ~capacity fresh_source)
              in
              Printf.printf "%10.1f" (Bench_common.throughput bytes dt))
            capacities;
          print_newline ()))
    formats_for_rq4;
  Bench_common.pp_note
    "(expected shape: throughput rises with capacity and plateaus around \
     64K, the Unix pipe buffer size)";

  Bench_common.pp_header
    "Fig. 11b (RQ4): throughput (MB/s) vs average token length (64K buffer)";
  List.iter
    (fun (name, g) ->
      let d = Grammar.dfa g in
      let fm = Flex_model.compile d in
      let engine =
        match Engine.compile d with Ok e -> e | Error _ -> assert false
      in
      Printf.printf "\n-- %s --\n%-12s" name "tok-len";
      List.iter (fun l -> Printf.printf "%10d" l) token_lengths;
      print_newline ();
      let inputs =
        List.map
          (fun l ->
            let input =
              match name with
              | "csv" ->
                  Gen_data.csv ~seed:Bench_common.seed_data ~avg_token_len:l
                    ~target_bytes:bytes ()
              | _ ->
                  Gen_data.json ~seed:Bench_common.seed_data ~avg_token_len:l
                    ~target_bytes:bytes ()
            in
            (l, input))
          token_lengths
      in
      Printf.printf "%-12s" "flex";
      List.iter
        (fun (_, input) ->
          let dt =
            Bench_common.time_best ~repeats:2 (fun () ->
                run_flex_buffered fm ~capacity:65536 (fun () ->
                    Source.of_string input))
          in
          Printf.printf "%10.1f"
            (Bench_common.throughput (String.length input) dt))
        inputs;
      print_newline ();
      Printf.printf "%-12s" "streamtok";
      List.iter
        (fun (_, input) ->
          let dt =
            Bench_common.time_best ~repeats:2 (fun () ->
                run_streamtok_buffered engine ~capacity:65536 (fun () ->
                    Source.of_string input))
          in
          Printf.printf "%10.1f"
            (Bench_common.throughput (String.length input) dt))
        inputs;
      print_newline ())
    formats_for_rq4;
  Bench_common.pp_note
    "(expected shape: shorter tokens -> lower throughput for both tools)"
