(* The sfserve wire protocol: length-prefixed frames carrying
   versioned, CRC-checked request/response payloads, hand-rolled
   (varint bodies, strict decode, a trailing CRC-32 so any corruption
   is an error, never a silently wrong answer).  The grammar is
   documented for humans in doc/SERVING.md. *)

module Varint = Sf_store.Varint
module Crc32 = Sf_store.Crc32
module E = Sf_store.Codec_error

let version = 1
let max_payload_default = 1 lsl 20
let frame_header_bytes = Sf_obs.Frame.header_bytes

(* ------------------------------------------------------------------ *)
(* Endpoints                                                           *)
(* ------------------------------------------------------------------ *)

type endpoint = Unix_path of string | Tcp of string * int

let endpoint_to_string = function
  | Unix_path p -> "unix:" ^ p
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let after_prefix ~prefix s =
  String.sub s (String.length prefix) (String.length s - String.length prefix)

let endpoint_of_string s =
  if s = "" then Error "empty endpoint"
  else if has_prefix ~prefix:"unix:" s then
    let p = after_prefix ~prefix:"unix:" s in
    if p = "" then Error "unix: endpoint needs a path" else Ok (Unix_path p)
  else if has_prefix ~prefix:"tcp:" s then
    let rest = after_prefix ~prefix:"tcp:" s in
    match String.rindex_opt rest ':' with
    | None -> Error (Printf.sprintf "tcp endpoint %S needs HOST:PORT" rest)
    | Some i -> (
      let host = String.sub rest 0 i in
      let port = String.sub rest (i + 1) (String.length rest - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 ->
        Ok (Tcp ((if host = "" then "127.0.0.1" else host), p))
      | Some _ | None -> Error (Printf.sprintf "bad tcp port %S" port))
  else Ok (Unix_path s) (* a bare path is a unix socket, as in --telemetry *)

let inet_addr host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = [||]; _ } -> failwith ("no address for host " ^ host)
    | h -> h.Unix.h_addr_list.(0))

(* ------------------------------------------------------------------ *)
(* Messages                                                            *)
(* ------------------------------------------------------------------ *)

type search = {
  id : int;
  strategy : string;
  source : int option;
  target : int option;
  budget : int option;
  stop_at_neighbor : bool;
  ctx : Sf_obs.Tctx.t option;
      (* trace context: carried verbatim, never inspected by the
         search itself — replies are byte-identical with or without *)
}

type request = Search of search | Ping of int | Stats of int | Shutdown of int

type search_reply = {
  sr_id : int;
  sr_total_requests : int;
  sr_to_target : int option;
  sr_to_neighbor : int option;
  sr_discovered : int;
  sr_gave_up : bool;
  sr_path_len : int;
}

type server_stats = {
  ss_id : int;
  ss_n_vertices : int;
  ss_n_edges : int;
  ss_served : int;
  ss_errors : int;
  ss_connections : int;
  (* cumulative per-request stage totals, microseconds: time spent
     queued before a batch formed, waiting inside a batch for a pool
     slot, searching, and draining the reply to the socket *)
  ss_stage_queue_us : int;
  ss_stage_batch_us : int;
  ss_stage_search_us : int;
  ss_stage_reply_us : int;
}

type error_code = Bad_frame | Unknown_strategy | Bad_vertex | Bad_request

type response =
  | Search_reply of search_reply
  | Pong of int
  | Stats_reply of server_stats
  | Shutdown_ack of int
  | Error of { err_id : int; code : error_code; message : string }

let response_id = function
  | Search_reply r -> r.sr_id
  | Pong id | Shutdown_ack id -> id
  | Stats_reply s -> s.ss_id
  | Error { err_id; _ } -> err_id

let error_code_to_int = function
  | Bad_frame -> 1
  | Unknown_strategy -> 2
  | Bad_vertex -> 3
  | Bad_request -> 4

let error_code_of_int = function
  | 1 -> Some Bad_frame
  | 2 -> Some Unknown_strategy
  | 3 -> Some Bad_vertex
  | 4 -> Some Bad_request
  | _ -> None

(* kind bytes: requests in 0x01-0x0F, responses in 0x11-0x1F *)
let kind_search = 0x01
let kind_ping = 0x02
let kind_stats = 0x03
let kind_shutdown = 0x04
let kind_search_reply = 0x11
let kind_pong = 0x12
let kind_stats_reply = 0x13
let kind_shutdown_ack = 0x14
let kind_error = 0x1F

(* search flags byte *)
let flag_source = 0x01
let flag_target = 0x02
let flag_budget = 0x04
let flag_stop_at_neighbor = 0x08
let flag_trace = 0x10 (* payload carries trace-id and span-id varints *)

(* search-reply flags byte *)
let rflag_to_target = 0x01
let rflag_to_neighbor = 0x02
let rflag_gave_up = 0x04

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let start_payload = Crc32.start_payload ~version

let encode_request req =
  let buf =
    match req with
    | Search s ->
      let buf = start_payload kind_search in
      Varint.write buf s.id;
      Varint.write_string buf s.strategy;
      let flags =
        (if s.source <> None then flag_source else 0)
        lor (if s.target <> None then flag_target else 0)
        lor (if s.budget <> None then flag_budget else 0)
        lor (if s.stop_at_neighbor then flag_stop_at_neighbor else 0)
        lor if s.ctx <> None then flag_trace else 0
      in
      Buffer.add_char buf (Char.chr flags);
      Option.iter (Varint.write buf) s.source;
      Option.iter (Varint.write buf) s.target;
      Option.iter (Varint.write buf) s.budget;
      Option.iter
        (fun (c : Sf_obs.Tctx.t) ->
          Varint.write buf c.trace;
          Varint.write buf c.span)
        s.ctx;
      buf
    | Ping id ->
      let buf = start_payload kind_ping in
      Varint.write buf id;
      buf
    | Stats id ->
      let buf = start_payload kind_stats in
      Varint.write buf id;
      buf
    | Shutdown id ->
      let buf = start_payload kind_shutdown in
      Varint.write buf id;
      buf
  in
  Crc32.seal buf

let encode_response resp =
  let buf =
    match resp with
    | Search_reply r ->
      let buf = start_payload kind_search_reply in
      Varint.write buf r.sr_id;
      let flags =
        (if r.sr_to_target <> None then rflag_to_target else 0)
        lor (if r.sr_to_neighbor <> None then rflag_to_neighbor else 0)
        lor if r.sr_gave_up then rflag_gave_up else 0
      in
      Buffer.add_char buf (Char.chr flags);
      Varint.write buf r.sr_total_requests;
      Option.iter (Varint.write buf) r.sr_to_target;
      Option.iter (Varint.write buf) r.sr_to_neighbor;
      Varint.write buf r.sr_discovered;
      Varint.write buf r.sr_path_len;
      buf
    | Pong id ->
      let buf = start_payload kind_pong in
      Varint.write buf id;
      buf
    | Stats_reply s ->
      let buf = start_payload kind_stats_reply in
      Varint.write buf s.ss_id;
      Varint.write buf s.ss_n_vertices;
      Varint.write buf s.ss_n_edges;
      Varint.write buf s.ss_served;
      Varint.write buf s.ss_errors;
      Varint.write buf s.ss_connections;
      Varint.write buf s.ss_stage_queue_us;
      Varint.write buf s.ss_stage_batch_us;
      Varint.write buf s.ss_stage_search_us;
      Varint.write buf s.ss_stage_reply_us;
      buf
    | Shutdown_ack id ->
      let buf = start_payload kind_shutdown_ack in
      Varint.write buf id;
      buf
    | Error { err_id; code; message } ->
      let buf = start_payload kind_error in
      Varint.write buf err_id;
      Varint.write buf (error_code_to_int code);
      Varint.write_string buf message;
      buf
  in
  Crc32.seal buf

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

let min_payload = Crc32.min_payload

let read_byte s ~payload_end ~pos =
  if pos >= payload_end then E.fail (E.Truncated "flags");
  (Char.code s.[pos], pos + 1)

(* varint reads are bounds-checked against the whole string, so a read
   straying into the CRC tail is caught by [Crc32.finish]'s position check *)
let decode_request s =
  let kind, payload_end = Crc32.check_envelope ~version s in
  if kind = kind_search then begin
    let id, pos = Varint.read s ~pos:2 in
    let strategy, pos = Varint.read_string s ~limit:payload_end ~pos in
    let flags, pos = read_byte s ~payload_end ~pos in
    if
      flags
      land lnot
            (flag_source lor flag_target lor flag_budget lor flag_stop_at_neighbor
           lor flag_trace)
      <> 0
    then E.fail (E.Malformed (Printf.sprintf "unknown search flag bits %#x" flags));
    let opt flag pos =
      if flags land flag = 0 then (None, pos)
      else
        let v, pos = Varint.read s ~pos in
        (Some v, pos)
    in
    let source, pos = opt flag_source pos in
    let target, pos = opt flag_target pos in
    let budget, pos = opt flag_budget pos in
    let ctx, pos =
      if flags land flag_trace = 0 then (None, pos)
      else
        let trace, pos = Varint.read s ~pos in
        let span, pos = Varint.read s ~pos in
        (Some { Sf_obs.Tctx.trace; span }, pos)
    in
    Crc32.finish ~payload_end ~pos
      (Search
         {
           id;
           strategy;
           source;
           target;
           budget;
           stop_at_neighbor = flags land flag_stop_at_neighbor <> 0;
           ctx;
         })
  end
  else if kind = kind_ping || kind = kind_stats || kind = kind_shutdown then begin
    let id, pos = Varint.read s ~pos:2 in
    Crc32.finish ~payload_end ~pos
      (if kind = kind_ping then Ping id else if kind = kind_stats then Stats id else Shutdown id)
  end
  else E.fail (E.Malformed (Printf.sprintf "unknown request kind %#x" kind))

let decode_response s =
  let kind, payload_end = Crc32.check_envelope ~version s in
  if kind = kind_search_reply then begin
    let id, pos = Varint.read s ~pos:2 in
    let flags, pos = read_byte s ~payload_end ~pos in
    if flags land lnot (rflag_to_target lor rflag_to_neighbor lor rflag_gave_up) <> 0 then
      E.fail (E.Malformed (Printf.sprintf "unknown reply flag bits %#x" flags));
    let total, pos = Varint.read s ~pos in
    let opt flag pos =
      if flags land flag = 0 then (None, pos)
      else
        let v, pos = Varint.read s ~pos in
        (Some v, pos)
    in
    let to_target, pos = opt rflag_to_target pos in
    let to_neighbor, pos = opt rflag_to_neighbor pos in
    let discovered, pos = Varint.read s ~pos in
    let path_len, pos = Varint.read s ~pos in
    Crc32.finish ~payload_end ~pos
      (Search_reply
         {
           sr_id = id;
           sr_total_requests = total;
           sr_to_target = to_target;
           sr_to_neighbor = to_neighbor;
           sr_discovered = discovered;
           sr_gave_up = flags land rflag_gave_up <> 0;
           sr_path_len = path_len;
         })
  end
  else if kind = kind_pong || kind = kind_shutdown_ack then begin
    let id, pos = Varint.read s ~pos:2 in
    Crc32.finish ~payload_end ~pos (if kind = kind_pong then Pong id else Shutdown_ack id)
  end
  else if kind = kind_stats_reply then begin
    let id, pos = Varint.read s ~pos:2 in
    let n, pos = Varint.read s ~pos in
    let m, pos = Varint.read s ~pos in
    let served, pos = Varint.read s ~pos in
    let errors, pos = Varint.read s ~pos in
    let connections, pos = Varint.read s ~pos in
    let queue_us, pos = Varint.read s ~pos in
    let batch_us, pos = Varint.read s ~pos in
    let search_us, pos = Varint.read s ~pos in
    let reply_us, pos = Varint.read s ~pos in
    Crc32.finish ~payload_end ~pos
      (Stats_reply
         {
           ss_id = id;
           ss_n_vertices = n;
           ss_n_edges = m;
           ss_served = served;
           ss_errors = errors;
           ss_connections = connections;
           ss_stage_queue_us = queue_us;
           ss_stage_batch_us = batch_us;
           ss_stage_search_us = search_us;
           ss_stage_reply_us = reply_us;
         })
  end
  else if kind = kind_error then begin
    let id, pos = Varint.read s ~pos:2 in
    let code, pos = Varint.read s ~pos in
    let message, pos = Varint.read_string s ~limit:payload_end ~pos in
    match error_code_of_int code with
    | None -> E.fail (E.Malformed (Printf.sprintf "unknown error code %d" code))
    | Some code -> Crc32.finish ~payload_end ~pos (Error { err_id = id; code; message })
  end
  else E.fail (E.Malformed (Printf.sprintf "unknown response kind %#x" kind))

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let frame = Sf_obs.Frame.encode

let pop ?(max_payload = max_payload_default) s ~pos =
  Sf_obs.Frame.pop ~min_payload ~max_payload s ~pos
