(** Serialization of compiled engines.

    What flex achieves by generating C source, a library can achieve by
    saving its tables: analyze and compile once (possibly in a build step),
    then load the compiled tokenizer at startup without re-running the
    subset construction or the max-TND analysis.

    The format stores the tokenization DFA and the analyzed max-TND; the
    derived structures (Fig. 5 table, co-accessibility, token-extension
    DFA) are cheap and rebuilt on load. The self-loop acceleration tables
    travel with the DFA, including the per-state SWAR tier classification
    (cross-checked against the stop bitmaps on load; the 64-bit broadcast
    masks are always rederived). The encoding is a versioned,
    self-describing binary format — not [Marshal] — so files are stable
    across compiler versions; only the current {!version} (4) loads, any
    other is rejected as [unsupported version]. *)

val magic : string
val version : int

(** Serialize a compiled engine. *)
val to_string : Engine.t -> string

(** Deserialize. With [verify] (default true) the stored max-TND is
    re-checked against the static analysis of the stored DFA, so a
    corrupted or hand-edited file cannot produce a silently wrong
    tokenizer; [verify:false] trusts the file and makes loading O(tables).
    Errors are reported as [Error message]. *)
val of_string : ?verify:bool -> string -> (Engine.t, string) result
