(** LEB128 variable-length integers — the wire primitive of the binary
    protocols and files: the serve wire format, the fabric protocol,
    checkpoints, grid plans and the telemetry relay.

    Unsigned values are written base-128, low group first, high bit of
    every byte but the last set. Signed values go through the zigzag
    map [(n lsl 1) lxor (n asr 62)] first, so small magnitudes of
    either sign stay short.

    All values are OCaml [int]s (63-bit); encodings never exceed nine
    bytes. *)

val write : Buffer.t -> int -> unit
(** Append the unsigned encoding of a non-negative value.
    @raise Invalid_argument on a negative value. *)

val write_signed : Buffer.t -> int -> unit
(** Append the zigzag encoding of any value. *)

val read : string -> pos:int -> int * int
(** [read s ~pos] decodes an unsigned value at [pos] and returns
    [(value, next_pos)].
    @raise Codec_error.Error on truncation, on an encoding longer than
    nine bytes, or on a value that overflows a 63-bit [int]. *)

val read_signed : string -> pos:int -> int * int
(** [read] followed by the inverse zigzag map. *)

val write_string : Buffer.t -> string -> unit
(** Append the length, then the bytes. *)

val read_string : string -> limit:int -> pos:int -> string * int
(** Read a {!write_string} image that must end by [limit].
    @raise Codec_error.Error on truncation. *)
