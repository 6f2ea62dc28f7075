(** Parallel StreamTok — the parallelization sketched in the paper's
    future-work section (§8), implemented with OCaml 5 domains.

    The input is cut into [num_domains] segments. Each worker {e
    speculatively} tokenizes from its segment start (assuming a token
    boundary there) with the ordinary StreamTok engine, recording token
    spans until its tokens spill past the next segment. A sequential
    splice pass then walks the segments: whenever the authoritative next
    token start coincides with a span start recorded by the segment's
    worker, the worker's remaining spans are adopted wholesale; otherwise
    the engine re-tokenizes forward ("catch-up") until positions
    re-synchronize or the segment is exhausted. Bounded max-TND is what
    makes speculation pay off: maximality decisions are local, so
    speculative and authoritative tokenizations re-synchronize at the
    first shared token boundary.

    The result is byte-for-byte identical to the sequential engine
    (differentially tested), including the failure offset. Worst case —
    no boundary ever re-synchronizes — degenerates to the sequential scan
    plus the wasted speculative work. Grammars with quote-delimited tokens
    (CSV, JSON strings) hit this when a segment boundary lands inside a
    quoted token: the speculative run has the wrong quote parity and may
    never re-align, so those segments fall back to catch-up. Quote-free
    grammars (TSV, logs, FASTA) splice essentially always.

    The engine may be shared across workers: its tables are read-only
    after compilation except for lazy token-extension powerstate
    materialization, which is internally serialized. *)

open St_streamtok

type stats = {
  segments : int;
  spliced : int;
      (** segments whose worker's spans were adopted (directly, or after a
          short sequential re-synchronization) *)
  caught_up : int;
      (** segments whose speculation was wasted entirely (re-tokenized) *)
  sync_tokens : int;
      (** tokens re-tokenized sequentially before boundaries aligned —
          the price of speculation; small when max-TND is bounded *)
  speculative_tokens : int;  (** tokens recorded by all workers *)
  emitted_tokens : int;
}

(** [tokenize ?num_domains engine input ~emit] — tokens are emitted in
    stream order from the splice pass. [num_domains] defaults to the
    runtime's recommended domain count, capped at 8.

    [min_input_bytes] (default 4096) is the smallest input that is worth
    cutting into segments; shorter inputs run the sequential engine.
    The fuzz harness lowers it to force segmentation — and hence splice /
    catch-up decisions at adversarial boundaries — on inputs of a few
    dozen bytes. *)
val tokenize :
  ?num_domains:int ->
  ?min_input_bytes:int ->
  Engine.t ->
  string ->
  emit:(pos:int -> len:int -> rule:int -> unit) ->
  Engine.outcome * stats
