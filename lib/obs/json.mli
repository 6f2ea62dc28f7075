(** Minimal JSON generator and parser for the observability exports.

    Compact output; non-finite floats serialize as [null] so the output is
    always valid RFC 8259 JSON. The parser exists so downstream tools
    ([streamtok trace report]) can read documents this library
    wrote — it accepts full RFC 8259, mapping integral numerals to [Int]
    and everything else to [Float]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string

(** [of_string s] parses one JSON document spanning the whole string. *)
val of_string : string -> (t, string) result

(** [member k j] is field [k] of object [j], if present. *)
val member : string -> t -> t option

val to_list_opt : t -> t list option
val to_string_opt : t -> string option

(** [Int], or an integral [Float]. *)
val to_int_opt : t -> int option

(** [Float], or any [Int] widened. *)
val to_float_opt : t -> float option
