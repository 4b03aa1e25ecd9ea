(** Length-prefixed framing over stream sockets: the one codec,
    receive buffer, output queue and [write_all] behind the serve wire
    ({!Sf_serve.Wire}) and the fabric protocol ({!Sf_fabric.Proto}).

    A frame is a 4-byte little-endian payload length, then the payload.
    Each protocol brings its own payload bounds; a declared length
    outside them cannot be resynchronised, so it surfaces as [`Bad] as
    soon as the header is complete. Reassembly is linear in frame
    size. *)

val header_bytes : int
(** [4]. *)

val encode : string -> string
(** Prefix a payload with its length header. *)

val pop :
  min_payload:int ->
  max_payload:int ->
  string ->
  pos:int ->
  [ `Frame of string * int | `Need_more | `Bad of string ]
(** The frame at [pos] of a string: [`Frame (payload, next_pos)],
    [`Need_more] when bytes are missing, or [`Bad msg]. *)

val write_all : Unix.file_descr -> string -> unit
(** Write every byte to a blocking descriptor. [Unix.Unix_error]
    propagates: each caller keeps its own policy for a vanished peer. *)

(** {1 Receive buffer} *)

type reader

val reader : min_payload:int -> max_payload:int -> reader

val read : reader -> Unix.file_descr -> int
(** One [read] into the buffer; returns the byte count, [0] on EOF.
    The read size starts at 4 KiB and doubles, up to 64 KiB, while
    reads fill it. A [Unix.Unix_error] (a receive timeout's EAGAIN)
    loses nothing: the next call resumes the partial frame. *)

val next : reader -> [ `Frame of string | `Need_more | `Bad of string ]
(** Take out the next whole frame's payload. [`Bad] consumes nothing. *)

val buffered : reader -> int
(** Bytes read but not yet taken by {!next}. *)

val clear : reader -> unit
(** Drop every buffered byte. *)

(** {1 Output queue for non-blocking writers} *)

type queue

val queue : unit -> queue

val push : queue -> string -> unit
(** Append one frame carrying the payload. *)

val pending : queue -> int
(** Bytes queued and not yet written. *)

val flush : queue -> Unix.file_descr -> int
(** One [write] of everything queued; returns the bytes taken.
    [Unix.Unix_error] propagates with the queue unchanged. *)
