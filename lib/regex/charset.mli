(** Character classes over the byte alphabet Σ = {0, …, 255}.

    A character class is a 256-bit set. The whole library works over bytes:
    formats with non-ASCII content are handled transparently because UTF-8
    multi-byte sequences fall into byte classes. *)

type t

val empty : t
val full : t

(** [singleton c] contains exactly [c]. *)
val singleton : char -> t

(** [range lo hi] contains bytes [lo..hi] inclusive. *)
val range : char -> char -> t

val of_string : string -> t
val of_list : char list -> t
val mem : t -> char -> bool
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t

(** Complement within the byte alphabet. *)
val negate : t -> t

val is_empty : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

(** Append the 256 membership bits as 32 bytes: equal sets, equal bytes. *)
val add_to_buffer : Buffer.t -> t -> unit

val cardinal : t -> int

(** Members in ascending order; the walk allocates nothing. *)
val iter : (char -> unit) -> t -> unit

val fold : (char -> 'a -> 'a) -> t -> 'a -> 'a

(** Least member, if any. *)
val choose : t -> char option

(** Common classes, following PCRE conventions. *)

val digit : t (* [0-9] *)
val word : t (* [A-Za-z0-9_] *)
val space : t (* [ \t\n\r\x0b\x0c] *)
val alpha : t (* [A-Za-z] *)
val any : t (* [^\n]: PCRE '.' excludes newline *)

(** Render as a PCRE-style class body, e.g. ["a-z0-9_"]. Escapes
    metacharacters. Chooses a negated rendering when shorter. *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string
