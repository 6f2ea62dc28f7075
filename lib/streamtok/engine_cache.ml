open St_regex

type entry = {
  result : (Engine.t, Engine.error) result;
  mutable last_used : int;  (* logical clock for LRU eviction *)
}

type t = {
  mu : Mutex.t;
  table : (string, entry) Hashtbl.t;
  max_entries : int;
  mutable clock : int;
  mutable compiles : int;
  mutable hits : int;
  mutable evictions : int;
}

let create ?(max_entries = 64) () =
  {
    mu = Mutex.create ();
    table = Hashtbl.create 16;
    max_entries = max 1 max_entries;
    clock = 0;
    compiles = 0;
    hits = 0;
    evictions = 0;
  }

(* Each rule in prefix order: a tag per node, the 32 bytes of each class,
   and a separator after each rule. Every node has a fixed arity and every
   class a fixed width, so the encoding is injective: equal bytes, equal
   rule lists. *)
let key_of_rules rules =
  let b = Buffer.create 256 in
  let rec node = function
    | Regex.Eps -> Buffer.add_char b 'e'
    | Regex.Cls cs ->
        Buffer.add_char b 'c';
        Charset.add_to_buffer b cs
    | Regex.Alt (x, y) ->
        Buffer.add_char b '|';
        node x;
        node y
    | Regex.Seq (x, y) ->
        Buffer.add_char b '.';
        node x;
        node y
    | Regex.Star x ->
        Buffer.add_char b '*';
        node x
  in
  List.iter
    (fun r ->
      node r;
      Buffer.add_char b ';')
    rules;
  Digest.to_hex (Digest.string (Buffer.contents b))

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun key e ->
      match !victim with
      | Some (_, age) when age <= e.last_used -> ()
      | _ -> victim := Some (key, e.last_used))
    t.table;
  match !victim with
  | None -> ()
  | Some (key, _) ->
      Hashtbl.remove t.table key;
      t.evictions <- t.evictions + 1

let p_hit = St_trace.Trace.probe ~cat:"engine" "cache.hit"
let p_compile = St_trace.Trace.probe ~cat:"engine" "cache.compile"

(* The whole operation — lookup, compile on miss, LRU bookkeeping — runs
   under [t.mu]. Holding the mutex across the compile is what gives the
   exactly-one-compile guarantee when N domains OPEN the same grammar
   simultaneously: the losers of the race block on the lock and then hit.
   The cost is that an expensive compile stalls other domains' cache
   lookups for its duration; compiles are per-distinct-grammar rare (and
   capped by [max_states]: the worst measured under the 65 536-state cap,
   [[xy]*x[xy]{14}] at 32 769 states, compiles to its unbounded-max-TND
   error in 0.06–0.11 s in a fresh process on a 2-vCPU x86-64 host, and
   a build that hits the cap fails in 0.035–0.08 s), while lookups are
   per-session rare, so the simple global lock beats per-key in-progress
   tracking in both code size and measured storm behavior (see DESIGN.md,
   Sharding). The hit
   flag is read under the same lock, so it is exact under any number of
   domains. *)
let lookup t ?max_states rules =
  let key = key_of_rules rules in
  Mutex.lock t.mu;
  match Hashtbl.find_opt t.table key with
  | Some e ->
      if !St_trace.Trace.on then St_trace.Trace.instant p_hit;
      t.hits <- t.hits + 1;
      e.last_used <- tick t;
      let result = e.result in
      Mutex.unlock t.mu;
      (result, true)
  | None -> (
      match
        St_trace.Trace.with_span p_compile (fun () ->
            Engine.compile_rules ?max_states rules)
      with
      | result ->
          t.compiles <- t.compiles + 1;
          if Hashtbl.length t.table >= t.max_entries then evict_lru t;
          Hashtbl.add t.table key { result; last_used = tick t };
          Mutex.unlock t.mu;
          (result, false)
      | exception exn ->
          (* a capped build's Failure propagates and is not cached *)
          Mutex.unlock t.mu;
          raise exn)

let find_or_compile t ?max_states rules = fst (lookup t ?max_states rules)

let with_mu t f =
  Mutex.lock t.mu;
  let r = f () in
  Mutex.unlock t.mu;
  r

let compiles t = with_mu t (fun () -> t.compiles)
let hits t = with_mu t (fun () -> t.hits)
let evictions t = with_mu t (fun () -> t.evictions)
let size t = with_mu t (fun () -> Hashtbl.length t.table)
