(** Shared compile cache for StreamTok engines.

    Compiling a grammar (subset construction, Moore minimization, max-TND
    analysis, engine tables) is the expensive part of serving a new
    session; the result is immutable and reusable. The serving layer keys
    sessions by a canonical grammar hash and compiles each distinct grammar
    once — N clients of the same grammar share one engine.

    Entries are keyed by the MD5 of the parsed rules' structural encoding
    ({!key_of_rules}, in priority order), so two grammar sources that
    parse to the same rule list (whitespace, redundant escapes, inline
    vs. file form) share an entry. Every engine is the default
    build (classed, accelerated): the reference builds the differential
    batteries compare against never go through the cache, so the key
    carries no compile flags. Compile {e failures} (unbounded max-TND)
    are cached too: repeatedly OPENing a non-streamable grammar costs one
    analysis total.

    Domain-safe: every operation (lookup, compile-on-miss, LRU update,
    counter reads) runs under one internal mutex, and the mutex is held
    {e across} a miss's compile — so N domains OPENing the same grammar
    concurrently cost exactly one compile (the racers block, then hit),
    and the LRU clock/table are never torn. The tradeoff — a long compile
    stalls other domains' cache lookups — is measured and discussed in
    DESIGN.md (Sharding): lookups are per-session rare, so the sharded
    server keeps one shared cache rather than per-domain caches. The
    single-threaded daemon pays one uncontended lock per OPEN, which is
    noise. *)

open St_regex

type t

(** [create ?max_entries ()] — [max_entries] (default 64) bounds the
    resident engines; least-recently-used entries are evicted beyond it. *)
val create : ?max_entries:int -> unit -> t

(** The cache key of a rule list: the MD5 (hex) of a prefix-order encoding
    of the rules — a tag per node, the 32 bytes of each class, a separator
    per rule. Keys are equal iff the rule lists are equal ({!Regex.equal}
    rule by rule), up to MD5 collisions. *)
val key_of_rules : Regex.t list -> string

(** [lookup t rules] returns the cached engine (or cached compile error)
    for [rules], compiling on first use, and whether it was a hit — read
    under the same lock as the lookup, so the flag is exact even when
    other domains compile or evict concurrently. [max_states] caps the
    subset construction of a cache-miss compile
    ({!St_automata.Dfa.of_nfa}); the resulting [Failure] propagates and is
    not cached. It is not part of the key: a successful capped build is
    identical to the uncapped one. *)
val lookup :
  t -> ?max_states:int -> Regex.t list -> (Engine.t, Engine.error) result * bool

(** {!lookup} without the hit flag. *)
val find_or_compile :
  t -> ?max_states:int -> Regex.t list -> (Engine.t, Engine.error) result

(** {1 Counters} *)

(** Number of compiles performed (= cache misses). *)
val compiles : t -> int

val hits : t -> int
val evictions : t -> int

(** Resident entries. *)
val size : t -> int
