(** CRC-32 (IEEE 802.3, the zlib polynomial), table-driven — the
    trailing integrity checksum of the binary graph format.

    The checksum detects the failure modes an on-disk corpus actually
    meets (truncated writes, bit rot, concurrent-writer shears); it is
    not a content address — {!Fingerprint} plays that role. *)

val string : ?init:int32 -> string -> int32
(** CRC of a whole string, or a continuation of [init] (the running
    CRC returned by a previous call) over a further chunk. *)

val sub : ?init:int32 -> string -> pos:int -> len:int -> int32
(** CRC of a substring.
    @raise Invalid_argument on an out-of-bounds range. *)

val seal : Buffer.t -> string
(** The buffer's contents followed by their CRC-32, little-endian: the
    trailer every binary format and protocol in the repo ends with. *)

val check_sealed : string -> int
(** Verify a {!seal}ed string (at least 4 bytes); returns where the
    trailer starts.
    @raise Codec_error.Error [Checksum_mismatch] when it disagrees. *)
