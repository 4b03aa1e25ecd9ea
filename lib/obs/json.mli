(** The one JSON reader: a small total parser over an explicit value
    type. Run manifests, the baseline manifest, BENCH files, the cache
    index, telemetry scrapes and trace files are all read back through
    it; every writer renders its JSON by hand with
    {!Export.json_string} and {!Export.json_float}. Same dependency
    policy as the rest of the observability stack: machine-written
    documents, no JSON package.

    Strings decode every RFC 8259 escape. A four-digit unicode escape
    becomes the UTF-8 bytes of its code point, and a surrogate (which
    has none) becomes U+FFFD. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one JSON document; trailing garbage after the top-level value
    is an error. Error messages carry the byte offset. *)

(** {1 Accessors} — all return [None] on a shape mismatch. *)

val member : string -> t -> t option
(** First binding of the key in an [Obj]. *)

val as_str : t -> string option
val as_num : t -> float option
val as_int : t -> int option
(** [as_num] truncated; [None] if the number is not integral. *)

val as_arr : t -> t list option
