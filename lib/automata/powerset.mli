(** The set interner of both subset constructions: {!Dfa.of_nfa}'s subset
    states and the token-extension DFA's powerstates.

    Interned sets are numbered 0, 1, 2, … in the order they are first
    added. Their members are stored back to back in one growable byte
    store, each in the fewest of 1, 2, 4 or 8 bytes that hold every
    member below the bound given to {!create}, and the sets are found
    through one open-addressed table of set ids, kept at most half full
    by doubling. The hash of a set is order-free (a sum of {!mix}ed
    members), so a probe may list its members in any order.

    {!find} checks a candidate's length and hash itself and leaves the
    rest of the comparison to the caller's [same], which knows the
    probe's shape: an unordered closure is compared through a bitset of
    its members, a sorted run position by position. Neither {!find} nor
    {!add} allocates, apart from doubling the store and the tables. *)

type t

(** [create bound]: an empty interner for sets of members in [0, bound). *)
val create : int -> t

(** Sets interned so far; the next new set gets this id. *)
val count : t -> int

(** Members of set [id]. *)
val size : t -> int -> int

(** [members t id buf] writes set [id]'s members into [buf.(0 ..)], in
    the order they were added, and returns how many there are.
    [buf] must hold [size t id] of them. *)
val members : t -> int -> int array -> int

(** [find t ~same buf n]: the id of the interned set whose members are
    [buf.(0 .. n - 1)], or -1 if there is none. A candidate is a set with
    [n] members and the probe's hash; it equals the probe if
    [same buf i x] holds for each of its members [x], [i] being the
    position of [x] in the candidate. A caller whose probes list their
    members in no order answers whether [x] is in the probe; one whose
    probes are sorted, whether [buf.(i) = x]. *)
val find :
  t -> same:(int array -> int -> int -> bool) -> int array -> int -> int

(** [add t buf n] interns [buf.(0 .. n - 1)] as set [count t] and returns
    its id. The set must be the probe of the last {!find}, which missed:
    [add] takes the hash and free slot that call found. *)
val add : t -> int array -> int -> int

(** Heap bytes held, as allocated: the store, the per-set arrays and the
    slot table at capacity, with their headers. *)
val bytes : t -> int

(** The mixing step of the hash: a multiply, then the high bits folded
    down, so every input bit reaches the low bits a slot is picked from.
    Also the hash of {!Dfa}'s minimization signatures. *)
val mix : int -> int
