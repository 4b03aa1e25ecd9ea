(** The coordinator/worker control protocol (version 1) —
    length-prefixed frames carrying versioned, CRC-checked payloads,
    in the codec discipline of the serve wire format: varint bodies, canonical encoding, strict decode where
    every mutilated input raises {!Sf_store.Codec_error.Error}.

    Six message kinds make the whole conversation: a worker opens
    with [Hello pid]; the coordinator answers each idle worker with
    [Assign] (an opaque job body — the grid runner and the experiment
    fan-out define their own) or [Quit]; the worker streams optional
    [Progress] and [Telemetry] (a {!Relay} batch of buffered trace
    events and counter deltas) and ends the job with [Done]. Anything
    else — EOF, a bad frame — is a worker death and triggers
    reassignment (doc/FABRIC.md). *)

type msg =
  | Hello of int  (** worker's pid — how the coordinator learns who to reap *)
  | Assign of { job : int; body : string }
  | Done of { job : int; body : string }
  | Progress of { job : int; body : string }
  | Telemetry of { job : int; body : string }
      (** worker → coordinator, after each checkpoint write: the
          {!Relay}-encoded observability delta since the last relay *)
  | Quit

val max_payload_default : int
(** 64 MiB — [Done] bodies carry whole experiment outputs. *)

val encode : msg -> string
(** Payload bytes (no frame header). Canonical and deterministic. *)

val decode : string -> msg
(** @raise Sf_store.Codec_error.Error on truncation, version or kind
    mismatch, CRC failure, or trailing bytes. *)

val frame : string -> string
(** {!Sf_obs.Frame.encode}. *)

val pop :
  ?max_payload:int ->
  string ->
  pos:int ->
  [ `Frame of string * int | `Need_more | `Bad of string ]
(** {!Sf_obs.Frame.pop} with this protocol's bounds; after [`Bad] the
    connection must be dropped. *)

(** {1 Connections}

    An {!Sf_obs.Frame} reader and writer over a stream socket, used
    blocking by workers and select-driven by the coordinator. *)

type conn

val conn : Unix.file_descr -> conn
val conn_fd : conn -> Unix.file_descr

val send : conn -> msg -> unit
(** Frame, encode and write fully. [Unix.Unix_error] (EPIPE,
    ECONNRESET) propagates — the caller decides whether a vanished
    peer is fatal. *)

val pump : conn -> [ `Msgs of msg list | `Eof | `Bad of string ]
(** One [read(2)] plus every complete frame it finishes, in arrival
    order. [`Eof] on a cleanly closed peer (or reset), [`Bad] on an
    unresynchronisable stream. Call after [select] says readable. *)

val recv_block : conn -> msg option
(** Block until one message arrives ([None] on EOF). Messages beyond
    the first are queued for the next call.
    @raise Failure on a [`Bad] stream. *)
