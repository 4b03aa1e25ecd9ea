(** Blocking client connection to a running {!Server} — used by
    [bin/sfload], the end-to-end tests, and anything else that wants
    to ask a daemon for a search.

    {!send} and {!recv} are independent, so a caller may pipeline:
    keep many requests in flight on one connection and match replies
    to requests by id ({!Wire.response_id}). One connection must not
    be shared between threads without external locking — the receive
    buffer is not synchronised. *)

type t

val connect : Wire.endpoint -> t
(** Open a blocking connection (TCP connections get [TCP_NODELAY]).
    Raises [Unix.Unix_error] when the endpoint is unreachable and
    [Failure] when a TCP host does not resolve. *)

val close : t -> unit
(** Idempotent. *)

val set_receive_timeout : t -> float -> unit
(** Bound every subsequent {!recv} ([SO_RCVTIMEO]); a timed-out read
    surfaces as [Unix.Unix_error (EAGAIN, _, _)]. *)

val send : t -> Wire.request -> unit
(** Frame, encode and write one request (complete write guaranteed). *)

val recv : t -> Wire.response
(** Block until one whole reply frame arrives and decode it.
    @raise End_of_file when the server closes the connection.
    @raise Failure on an unframeable byte stream.
    @raise Sf_store.Codec_error.Error on a mutilated payload. *)

val call : t -> Wire.request -> Wire.response
(** [send] then [recv] — a synchronous round trip. *)
