(** Decode errors of the binary graph container, shared by {!Varint}
    and {!Csr_codec}.

    Decoding is strict: every malformed input maps to one of these
    constructors and nothing is silently repaired — a corpus cache
    treats any {!Error} as a corrupt entry and falls back to
    regeneration (see {!Cache}). *)

type t =
  | Truncated of string  (** input ended inside a field *)
  | Bad_magic  (** the first bytes are not the format magic *)
  | Unsupported_version of int
  | Checksum_mismatch of { stored : int32; computed : int32 }
  | Malformed of string  (** structurally invalid payload *)

exception Error of t

val to_string : t -> string

val fail : t -> 'a
(** Raise {!Error}. *)
