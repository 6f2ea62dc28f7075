let () =
  Alcotest.run "streamtok"
    [
      ("util", Test_util.suite);
      ("charset", Test_charset.suite);
      ("regex", Test_regex.suite);
      ("automata", Test_automata.suite);
      ("tnd-analysis", Test_tnd.suite);
      ("reduction", Test_reduction.suite);
      ("te-dfa", Test_te_dfa.suite);
      ("engine", Test_engine.suite);
      ("compress", Test_compress.suite);
      ("accel", Test_accel.suite);
      ("swar", Test_swar.suite);
      ("obs", Test_obs.suite);
      ("trace", Test_trace.suite);
      ("streaming-extra", Test_streaming_extra.suite);
      ("parallel", Test_parallel.suite);
      ("extensions", Test_extensions.suite);
      ("baselines", Test_baselines.suite);
      ("grammars", Test_grammars.suite);
      ("workloads", Test_workloads.suite);
      ("stream", Test_stream.suite);
      ("kernel", Test_kernel.suite);
      ("serve", Test_serve.suite);
      ("shard", Test_shard.suite);
      ("apps", Test_apps.suite);
      ("combinator", Test_combinator.suite);
      ("fuzz", Test_fuzz.suite);
      ("bpe", Test_bpe.suite);
    ]
