(** The sfserve wire protocol (version 1) — length-prefixed frames
    carrying versioned, CRC-checked request/response payloads.

    A frame is a 4-byte little-endian payload length followed by the
    payload; a payload is [version byte, kind byte, varint body,
    CRC-32 (little-endian, over everything before it)] — the same
    strict-decode discipline as the binary graph container
    ({!Sf_store.Csr_codec}): every mutilated input raises
    {!Sf_store.Codec_error.Error}, nothing is repaired. The full
    grammar, with the determinism contract it carries, is documented
    in [doc/SERVING.md].

    Encoding is canonical: a message has exactly one wire image, so a
    CRC-32 over re-encoded replies is a digest of the server's actual
    bytes — what the determinism tests and [sfload]'s reply digest
    rely on. *)

val max_payload_default : int
(** Default per-frame payload cap (1 MiB): anything claiming to be
    larger is rejected at the framing layer before allocation. *)

val frame_header_bytes : int
(** [4]. *)

val min_payload : int
(** [7] — version, kind, one body byte and the CRC: the shortest
    payload a frame may declare. *)

(** {1 Endpoints}

    One syntax shared by every flag that names a serving socket
    ([sfserve --listen], [sfload SERVER]): [unix:PATH], [tcp:HOST:PORT],
    or a bare filesystem path (a unix socket, as with [--telemetry]). *)

type endpoint = Unix_path of string | Tcp of string * int

val endpoint_of_string : string -> (endpoint, string) result
val endpoint_to_string : endpoint -> string
(** Round-trips through {!endpoint_of_string}; bare paths render as
    [unix:PATH]. *)

val inet_addr : string -> Unix.inet_addr
(** A TCP endpoint's host: a numeric address, else the first one the
    resolver returns. @raise Failure when it has none. *)

(** {1 Messages} *)

type search = {
  id : int;  (** client-chosen; replies are matched and made deterministic by it *)
  strategy : string;  (** portfolio name, e.g. ["high-degree"] *)
  source : int option;  (** default: vertex 1 (2 when the target is 1) *)
  target : int option;  (** default: the server's [--target] *)
  budget : int option;  (** request budget; default: the server's *)
  stop_at_neighbor : bool;  (** the paper's lenient stopping rule *)
  ctx : Sf_obs.Tctx.t option;
      (** trace context (flag [0x10], two varints): correlates the
          client's span with the server's stage spans. Carried, never
          inspected — replies are identical with or without it. *)
}

type request = Search of search | Ping of int | Stats of int | Shutdown of int

type search_reply = {
  sr_id : int;
  sr_total_requests : int;  (** oracle requests paid — the paper's cost *)
  sr_to_target : int option;
  sr_to_neighbor : int option;
  sr_discovered : int;
  sr_gave_up : bool;
  sr_path_len : int;  (** edges in the certified source→target path; 0 unless found *)
}

type server_stats = {
  ss_id : int;
  ss_n_vertices : int;
  ss_n_edges : int;
  ss_served : int;  (** searches answered since this server started *)
  ss_errors : int;  (** protocol errors seen since this server started *)
  ss_connections : int;  (** connections accepted since this server started *)
  ss_stage_queue_us : int;
      (** cumulative µs requests spent queued before their batch formed *)
  ss_stage_batch_us : int;
      (** cumulative µs between batch formation and the pool starting
          the search *)
  ss_stage_search_us : int;  (** cumulative µs spent searching *)
  ss_stage_reply_us : int;
      (** cumulative µs between reply enqueue and the socket draining *)
}

type error_code = Bad_frame | Unknown_strategy | Bad_vertex | Bad_request

type response =
  | Search_reply of search_reply
  | Pong of int
  | Stats_reply of server_stats
  | Shutdown_ack of int
  | Error of { err_id : int; code : error_code; message : string }

val response_id : response -> int

(** {1 Payload codec} *)

val encode_request : request -> string
(** The payload bytes (no frame header). Canonical and deterministic. *)

val encode_response : response -> string

val decode_request : string -> request
(** @raise Sf_store.Codec_error.Error on any malformed payload:
    truncation, version or kind mismatch, CRC failure, unknown flag
    bits, trailing bytes. *)

val decode_response : string -> response

(** {1 Framing} *)

val frame : string -> string
(** {!Sf_obs.Frame.encode}. *)

val pop :
  ?max_payload:int ->
  string ->
  pos:int ->
  [ `Frame of string * int | `Need_more | `Bad of string ]
(** {!Sf_obs.Frame.pop} between {!min_payload} and [max_payload]
    (default {!max_payload_default}); after [`Bad] the connection must
    be dropped. *)
