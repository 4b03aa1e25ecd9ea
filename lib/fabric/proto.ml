(* The coordinator/worker control protocol: length-prefixed frames
   carrying versioned, CRC-checked payloads — the same codec
   discipline as lib/serve/wire (varint bodies, strict decode,
   trailing CRC-32, canonical encoding), with its own kind space and
   a larger frame cap because Done bodies carry whole experiment
   outputs.  Framing and the connection buffer are
   Sf_obs.Frame; the grammar is documented in doc/FABRIC.md. *)

module Varint = Sf_store.Varint
module Crc32 = Sf_store.Crc32
module E = Sf_store.Codec_error
module Frame = Sf_obs.Frame

let version = 1

(* Done bodies can carry a full experiment table plus counter deltas;
   64 MiB leaves room without admitting garbage lengths. *)
let max_payload_default = 1 lsl 26

type msg =
  | Hello of int  (* worker pid *)
  | Assign of { job : int; body : string }
  | Done of { job : int; body : string }
  | Progress of { job : int; body : string }
  | Telemetry of { job : int; body : string }
    (* worker -> coordinator: a Relay batch of buffered trace events
       and counter deltas, shipped after each checkpoint write *)
  | Quit

let kind_hello = 0x21
let kind_assign = 0x22
let kind_done = 0x23
let kind_progress = 0x24
let kind_quit = 0x25
let kind_telemetry = 0x26

(* ------------------------------------------------------------------ *)
(* Payload codec                                                       *)
(* ------------------------------------------------------------------ *)

let start_payload = Crc32.start_payload ~version

let encode msg =
  let buf =
    match msg with
    | Hello pid ->
      let buf = start_payload kind_hello in
      Varint.write buf pid;
      buf
    | Assign { job; body } ->
      let buf = start_payload kind_assign in
      Varint.write buf job;
      Varint.write_string buf body;
      buf
    | Done { job; body } ->
      let buf = start_payload kind_done in
      Varint.write buf job;
      Varint.write_string buf body;
      buf
    | Progress { job; body } ->
      let buf = start_payload kind_progress in
      Varint.write buf job;
      Varint.write_string buf body;
      buf
    | Telemetry { job; body } ->
      let buf = start_payload kind_telemetry in
      Varint.write buf job;
      Varint.write_string buf body;
      buf
    | Quit ->
      let buf = start_payload kind_quit in
      Varint.write buf 0;
      buf
  in
  Crc32.seal buf

let decode s =
  let kind, payload_end = Crc32.check_envelope ~version s in
  if kind = kind_hello then begin
    let pid, pos = Varint.read s ~pos:2 in
    Crc32.finish ~payload_end ~pos (Hello pid)
  end
  else if
    kind = kind_assign || kind = kind_done || kind = kind_progress
    || kind = kind_telemetry
  then begin
    let job, pos = Varint.read s ~pos:2 in
    let body, pos = Varint.read_string s ~limit:payload_end ~pos in
    Crc32.finish ~payload_end ~pos
      (if kind = kind_assign then Assign { job; body }
       else if kind = kind_done then Done { job; body }
       else if kind = kind_progress then Progress { job; body }
       else Telemetry { job; body })
  end
  else if kind = kind_quit then begin
    let zero, pos = Varint.read s ~pos:2 in
    if zero <> 0 then E.fail (E.Malformed "quit body");
    Crc32.finish ~payload_end ~pos Quit
  end
  else E.fail (E.Malformed (Printf.sprintf "unknown fabric kind %#x" kind))

(* ------------------------------------------------------------------ *)
(* Framing and connections                                             *)
(* ------------------------------------------------------------------ *)

let frame = Frame.encode

let pop ?(max_payload = max_payload_default) s ~pos =
  Frame.pop ~min_payload:Crc32.min_payload ~max_payload s ~pos

type conn = {
  c_fd : Unix.file_descr;
  c_in : Frame.reader;
  mutable c_pending : msg list;  (* decoded but not yet consumed by recv_block *)
}

let conn fd =
  {
    c_fd = fd;
    c_in = Frame.reader ~min_payload:Crc32.min_payload ~max_payload:max_payload_default;
    c_pending = [];
  }

let conn_fd c = c.c_fd
let send c msg = Frame.write_all c.c_fd (frame (encode msg))

(* One read(2) plus every complete frame it finishes.  Distinguishing
   [`Eof] from [`Msgs []] is what lets the coordinator treat a closed
   connection as a worker death. *)
let pump c =
  match Frame.read c.c_in c.c_fd with
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> `Eof
  | 0 -> if Frame.buffered c.c_in > 0 then `Bad "eof inside a frame" else `Eof
  | _ ->
    let rec go acc =
      match Frame.next c.c_in with
      | `Need_more -> `Msgs (List.rev acc)
      | `Bad msg -> `Bad msg
      | `Frame payload -> (
        match decode payload with
        | msg -> go (msg :: acc)
        | exception E.Error e -> `Bad (E.to_string e))
    in
    go []

let rec recv_block c =
  match c.c_pending with
  | m :: rest ->
    c.c_pending <- rest;
    Some m
  | [] -> (
    match pump c with
    | `Eof -> None
    | `Bad msg -> failwith ("fabric protocol: " ^ msg)
    | `Msgs [] -> recv_block c
    | `Msgs (m :: rest) ->
      c.c_pending <- rest;
      Some m)
