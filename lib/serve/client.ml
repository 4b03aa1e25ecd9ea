(* Blocking client for the sfserve protocol — the counterpart of
   Server, used by bin/sfload, the end-to-end tests, and anything
   else that wants to ask a running daemon for a search. Supports
   pipelining: [send] and [recv] are independent, so a caller may
   keep many requests in flight on one connection and match replies
   by id. *)

module Frame = Sf_obs.Frame

(* [send] only writes the descriptor and [recv] alone owns the reader,
   so one thread may send while another receives *)
type t = { fd : Unix.file_descr; rd : Frame.reader }

let connect ep =
  let fd =
    match ep with
    | Wire.Unix_path path -> Sf_obs.Sock.connect_unix path
    | Wire.Tcp (host, port) ->
      Sf_obs.Sock.stream Unix.PF_INET (fun fd ->
          Unix.connect fd (Unix.ADDR_INET (Wire.inet_addr host, port));
          Unix.setsockopt fd Unix.TCP_NODELAY true)
  in
  { fd; rd = Frame.reader ~min_payload:Wire.min_payload ~max_payload:Wire.max_payload_default }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let set_receive_timeout t seconds =
  Unix.setsockopt_float t.fd Unix.SO_RCVTIMEO seconds

let send t req = Frame.write_all t.fd (Wire.frame (Wire.encode_request req))

(* a timed-out read raises out of here with the partial frame still
   buffered, so the next call resumes it *)
let rec recv_payload t =
  match Frame.next t.rd with
  | `Frame payload -> payload
  | `Bad msg -> failwith ("malformed frame from server: " ^ msg)
  | `Need_more -> if Frame.read t.rd t.fd = 0 then raise End_of_file else recv_payload t

let recv t = Wire.decode_response (recv_payload t)

let call t req =
  send t req;
  recv t
