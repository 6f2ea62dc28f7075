(** Fixed-width bitsets over [0, n), backed by an [int array].

    Used for DFA state sets (co-accessibility, analysis frontiers, subset
    construction) where dense membership tests dominate. *)

type t

val create : int -> t

val mem : t -> int -> bool
val add : t -> int -> unit
val remove : t -> int -> unit
val clear : t -> unit
val copy : t -> t
val is_empty : t -> bool
val cardinal : t -> int
val equal : t -> t -> bool

(** Hash usable for hashtable keys; equal sets hash equally. *)
val hash : t -> int

(** [inter_empty a b] is true iff the intersection of [a] and [b] is empty. *)
val inter_empty : t -> t -> bool

val iter : (int -> unit) -> t -> unit
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val elements : t -> int list
val of_list : int -> int list -> t
