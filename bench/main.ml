(* Evaluation harness: regenerates every table and figure of the paper's
   §6. Run everything with `dune exec bench/main.exe`, or a single
   experiment with e.g. `dune exec bench/main.exe -- fig8`.

   Experiments (see DESIGN.md for the per-experiment index):
     table1  fig7  fig8  fig9 (also prints fig10)  fig11  table2  rq6  micro
   `quick` runs a reduced version of everything. `serve` (the sharded
   pool's scaling sweep, not a paper experiment) and the check.sh gates
   (`smoke`, `*-check`) run only by name. *)

let usage () =
  print_endline
    "usage: main.exe \
     [table1|fig7|fig8|fig9|fig11|table2|rq6|ablation|parallel|micro|fuzz|serve|compress|compress-check|accel|accel-check|swar-check|bpe|bpe-check|smoke|quick|all]";
  exit 2

let all ~quick =
  Table1.run ();
  Fig7.run ?count:(if quick then Some 400 else None) ();
  Fig8.run ?n:(if quick then Some 400_000 else None) ();
  Fig9.run ();
  Fig11.run ?size_mb:(if quick then Some 2 else None) ();
  Table2.run
    ?log_mb:(if quick then Some 1 else None)
    ?conv_mb:(if quick then Some 2 else None)
    ();
  Rq6.run ?size_mb:(if quick then Some 8 else None) ();
  Ablation.run ();
  Parallel_bench.run ?size_mb:(if quick then Some 4 else None) ();
  Compress_bench.run ~throughput:(not quick) ();
  Accel_bench.run ~throughput:(not quick) ();
  Bpe_bench.run ~throughput:(not quick) ();
  Micro.run ()

let () =
  (match if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" with
  | "table1" -> Table1.run ()
  | "fig7" -> Fig7.run ()
  | "fig8" -> Fig8.run ()
  | "fig9" | "fig10" -> Fig9.run ()
  | "fig11" -> Fig11.run ()
  | "table2" -> Table2.run ()
  | "rq6" -> Rq6.run ()
  | "ablation" -> Ablation.run ()
  | "parallel" -> Parallel_bench.run ()
  | "micro" -> Micro.run ()
  | "fuzz" -> Fuzz_bench.run ()
  | "serve" -> Serve_bench.run ()
  | "compress" -> Compress_bench.run ()
  | "compress-check" -> Compress_bench.run ~throughput:false ()
  | "accel" -> Accel_bench.run ()
  | "accel-check" -> Accel_bench.run ~throughput:false ()
  | "swar-check" -> Accel_bench.swar_check ()
  | "bpe" -> Bpe_bench.run ()
  | "bpe-check" -> Bpe_bench.run ~throughput:false ()
  | "smoke" -> Micro.smoke ()
  | "all" -> all ~quick:false
  | "quick" -> all ~quick:true
  | _ -> usage ());
  Bench_common.dump_stats ()
