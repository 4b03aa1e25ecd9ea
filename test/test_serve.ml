(* The serving battery: the wire codec (round trips, canonical bytes,
   truncation and bit-flip fuzz mirroring test_store.ml), the framing
   layer, and the daemon end to end — an in-process Server on a temp
   unix socket driven by real Client connections.

   The load-bearing case is determinism: a reply is a pure function of
   (server seed, graph, request), so the same request ids must produce
   byte-identical reply payloads whether the server runs --jobs 1 or
   --jobs 4, whether the requests share one connection or three, and
   in whatever order the batches formed. *)

module Wire = Sf_serve.Wire
module Server = Sf_serve.Server
module Client = Sf_serve.Client
module Load = Sf_serve.Load
module E = Sf_store.Codec_error
module Registry = Sf_obs.Registry
module Counter = Sf_obs.Counter
module Rng = Sf_prng.Rng
module Ugraph = Sf_graph.Ugraph
module Searchability = Sf_core.Searchability
module Bench_file = Sf_perf.Bench_file

let temp_counter = ref 0

let temp_sock () =
  incr temp_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "sf-serve-%d-%d.sock" (Unix.getpid ()) !temp_counter)

let contains_sub haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let raw_connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let raw_write fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write fd b off (n - off)) in
  go 0

(* read one reply frame off a raw socket and decode it *)
let raw_read_response fd =
  let buf = Bytes.create 4096 in
  let rec go acc =
    match Wire.pop acc ~pos:0 with
    | `Frame (payload, _) -> Wire.decode_response payload
    | `Bad msg -> Alcotest.failf "unframeable reply: %s" msg
    | `Need_more -> (
      match Unix.read fd buf 0 4096 with
      | 0 -> Alcotest.fail "connection closed before a reply arrived"
      | n -> go (acc ^ Bytes.sub_string buf 0 n))
  in
  go ""

(* one small mori instance shared by the end-to-end cases *)
let graph, _graph_target =
  let rng = Rng.of_seed 11 in
  Searchability.mori_instance ~p:0.5 ~m:1 rng 600

let with_server_on path ?(jobs = 1) ?(seed = 5) body =
  let cfg = Server.config ~jobs ~seed graph in
  let server = Server.create cfg ~listen:[ Wire.Unix_path path ] in
  let th = Thread.create (fun () -> Server.run ~tick:0.01 server) () in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Thread.join th)
    (fun () -> body path server)

let with_server ?jobs ?seed body = with_server_on (temp_sock ()) ?jobs ?seed body

let with_client path body =
  let c = Client.connect (Wire.Unix_path path) in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> body c)

(* ---------------------------------------------------------------- *)
(* endpoints                                                         *)
(* ---------------------------------------------------------------- *)

let test_endpoint_parsing () =
  let ok s = match Wire.endpoint_of_string s with Ok e -> e | Error m -> Alcotest.fail m in
  Alcotest.(check bool) "unix:" true (ok "unix:/tmp/x.sock" = Wire.Unix_path "/tmp/x.sock");
  Alcotest.(check bool) "bare path" true (ok "/tmp/x.sock" = Wire.Unix_path "/tmp/x.sock");
  Alcotest.(check bool) "tcp" true (ok "tcp:10.0.0.1:7440" = Wire.Tcp ("10.0.0.1", 7440));
  Alcotest.(check bool) "tcp empty host" true (ok "tcp::7440" = Wire.Tcp ("127.0.0.1", 7440));
  List.iter
    (fun bad ->
      match Wire.endpoint_of_string bad with
      | Ok _ -> Alcotest.failf "parsed %S" bad
      | Error _ -> ())
    [ ""; "tcp:host"; "tcp:host:nope"; "tcp:host:-1"; "tcp:host:70000" ];
  List.iter
    (fun e ->
      match Wire.endpoint_of_string (Wire.endpoint_to_string e) with
      | Ok e' -> Alcotest.(check bool) "printer round trip" true (e = e')
      | Error m -> Alcotest.fail m)
    [ Wire.Unix_path "/a/b.sock"; Wire.Tcp ("example.org", 80) ]

(* ---------------------------------------------------------------- *)
(* payload codec                                                     *)
(* ---------------------------------------------------------------- *)

let sample_requests =
  [
    Wire.Search
      { Wire.id = 1; strategy = "high-degree"; source = None; target = None;
        budget = None; stop_at_neighbor = false; ctx = None };
    Wire.Search
      { Wire.id = 900_000; strategy = "rand-walk"; source = Some 17; target = Some 1;
        budget = Some 12_345; stop_at_neighbor = true;
        ctx = Some (Sf_obs.Tctx.derive ~seed:42 ~id:900_000) };
    Wire.Ping 0;
    Wire.Ping max_int;
    Wire.Stats 3;
    Wire.Shutdown 42;
  ]

let sample_responses =
  [
    Wire.Search_reply
      { Wire.sr_id = 1; sr_total_requests = 0; sr_to_target = None;
        sr_to_neighbor = None; sr_discovered = 2; sr_gave_up = false; sr_path_len = 0 };
    Wire.Search_reply
      { Wire.sr_id = 77; sr_total_requests = 4_096; sr_to_target = Some 4_000;
        sr_to_neighbor = Some 12; sr_discovered = 512; sr_gave_up = true; sr_path_len = 9 };
    Wire.Pong 5;
    Wire.Stats_reply
      { Wire.ss_id = 9; ss_n_vertices = 1_000_000; ss_n_edges = 2_000_000;
        ss_served = 123; ss_errors = 4; ss_connections = 56;
        ss_stage_queue_us = 1_500; ss_stage_batch_us = 0; ss_stage_search_us = 987_654;
        ss_stage_reply_us = 31 };
    Wire.Shutdown_ack 0;
    Wire.Error { err_id = 3; code = Wire.Bad_frame; message = "boom" };
    Wire.Error { err_id = 0; code = Wire.Unknown_strategy; message = "" };
    Wire.Error { err_id = 1; code = Wire.Bad_vertex; message = "v" };
    Wire.Error { err_id = 2; code = Wire.Bad_request; message = "b" };
  ]

let test_request_roundtrip () =
  List.iter
    (fun r ->
      let enc = Wire.encode_request r in
      Alcotest.(check bool) "request round-trips" true (Wire.decode_request enc = r);
      Alcotest.(check string) "encoding is canonical" enc (Wire.encode_request r))
    sample_requests

let test_response_roundtrip () =
  List.iter
    (fun r ->
      let enc = Wire.encode_response r in
      Alcotest.(check bool) "response round-trips" true (Wire.decode_response enc = r);
      Alcotest.(check string) "encoding is canonical" enc (Wire.encode_response r))
    sample_responses

let qcheck_search_roundtrip =
  QCheck.Test.make ~count:200 ~name:"random search requests round-trip exactly"
    QCheck.(make Gen.(int_bound 1_000_000_000))
    (fun seed ->
      let rng = Rng.of_seed seed in
      let opt gen = if Rng.bool rng then Some (gen ()) else None in
      let s =
        {
          Wire.id = Rng.int rng 1_000_000;
          strategy =
            String.init (Rng.int rng 12) (fun _ -> Char.chr (32 + Rng.int rng 95));
          source = opt (fun () -> 1 + Rng.int rng 1_000_000);
          target = opt (fun () -> 1 + Rng.int rng 1_000_000);
          budget = opt (fun () -> 1 + Rng.int rng 1_000_000);
          stop_at_neighbor = Rng.bool rng;
          ctx =
            opt (fun () ->
                Sf_obs.Tctx.derive ~seed:(Rng.int rng 1_000_000) ~id:(Rng.int rng 1_000_000));
        }
      in
      Wire.decode_request (Wire.encode_request (Wire.Search s)) = Wire.Search s)

let qcheck_reply_roundtrip =
  QCheck.Test.make ~count:200 ~name:"random search replies round-trip exactly"
    QCheck.(make Gen.(int_bound 1_000_000_000))
    (fun seed ->
      let rng = Rng.of_seed seed in
      let opt gen = if Rng.bool rng then Some (gen ()) else None in
      let r =
        {
          Wire.sr_id = Rng.int rng 1_000_000;
          sr_total_requests = Rng.int rng 10_000_000;
          sr_to_target = opt (fun () -> Rng.int rng 10_000_000);
          sr_to_neighbor = opt (fun () -> Rng.int rng 10_000_000);
          sr_discovered = Rng.int rng 1_000_000;
          sr_gave_up = Rng.bool rng;
          sr_path_len = Rng.int rng 1_000;
        }
      in
      Wire.decode_response (Wire.encode_response (Wire.Search_reply r))
      = Wire.Search_reply r)

let test_decode_rejects_truncations () =
  List.iter
    (fun r ->
      let enc = Wire.encode_request r in
      for len = 0 to String.length enc - 1 do
        match Wire.decode_request (String.sub enc 0 len) with
        | _ ->
          Alcotest.failf "accepted a %d-byte prefix of %d bytes" len (String.length enc)
        | exception E.Error _ -> ()
      done)
    sample_requests;
  List.iter
    (fun r ->
      let enc = Wire.encode_response r in
      for len = 0 to String.length enc - 1 do
        match Wire.decode_response (String.sub enc 0 len) with
        | _ -> Alcotest.fail "accepted a truncated response"
        | exception E.Error _ -> ()
      done)
    sample_responses

let test_decode_rejects_bit_flips () =
  List.iter
    (fun r ->
      let enc = Wire.encode_request r in
      for i = 0 to String.length enc - 1 do
        for bit = 0 to 7 do
          let mutated = Bytes.of_string enc in
          Bytes.set mutated i (Char.chr (Char.code enc.[i] lxor (1 lsl bit)));
          match Wire.decode_request (Bytes.to_string mutated) with
          | _ -> Alcotest.failf "accepted bit %d of byte %d flipped" bit i
          | exception E.Error _ -> ()
        done
      done)
    sample_requests

let test_decode_rejects_trailing_bytes () =
  let enc = Wire.encode_request (Wire.Ping 7) in
  match Wire.decode_request (enc ^ "\x00") with
  | _ -> Alcotest.fail "accepted trailing bytes"
  | exception E.Error _ -> ()

(* ---------------------------------------------------------------- *)
(* framing                                                           *)
(* ---------------------------------------------------------------- *)

let test_frame_pop () =
  let p1 = Wire.encode_request (Wire.Ping 1) in
  let p2 = Wire.encode_request (Wire.Stats 2) in
  let buf = Wire.frame p1 ^ Wire.frame p2 in
  (* incremental: every strict prefix of the first frame wants more *)
  for len = 0 to Wire.frame_header_bytes + String.length p1 - 1 do
    match Wire.pop (String.sub buf 0 len) ~pos:0 with
    | `Need_more -> ()
    | `Frame _ -> Alcotest.failf "framed out of a %d-byte prefix" len
    | `Bad m -> Alcotest.failf "rejected a prefix: %s" m
  done;
  (* then both frames pop in sequence *)
  (match Wire.pop buf ~pos:0 with
  | `Frame (payload, next) -> (
    Alcotest.(check string) "first frame" p1 payload;
    match Wire.pop buf ~pos:next with
    | `Frame (payload2, next2) ->
      Alcotest.(check string) "second frame" p2 payload2;
      Alcotest.(check int) "buffer exhausted" (String.length buf) next2
    | _ -> Alcotest.fail "second frame missing")
  | _ -> Alcotest.fail "first frame missing");
  (* a declared length outside the legal range is unrecoverable *)
  let header_of len =
    let b = Bytes.create 4 in
    Bytes.set_int32_le b 0 (Int32.of_int len);
    Bytes.to_string b
  in
  (match Wire.pop (header_of 3 ^ "xxx") ~pos:0 with
  | `Bad _ -> ()
  | _ -> Alcotest.fail "accepted a below-minimum frame");
  (match Wire.pop (header_of 2_000_000) ~pos:0 with
  | `Bad _ -> ()
  | _ -> Alcotest.fail "accepted an oversized frame");
  (match Wire.pop ~max_payload:4_000_000 (header_of 2_000_000) ~pos:0 with
  | `Need_more -> ()
  | _ -> Alcotest.fail "max_payload override ignored");
  (* the same streams through the shared receive buffer in 1-byte
     reads: a frame surfaces exactly when its last byte lands, a bad
     length as soon as its header is complete *)
  let drip ?(max_payload = Wire.max_payload_default) s =
    Drip.frames ~min_payload:Wire.min_payload ~max_payload s
  in
  let bad_at_header = function [ (4, `Bad _) ] -> true | _ -> false in
  Alcotest.(check bool) "1-byte reads: each frame on its last byte" true
    (drip buf
    = [ (String.length (Wire.frame p1), `Frame p1); (String.length buf, `Frame p2) ]);
  Alcotest.(check bool) "1-byte reads: below-minimum length" true
    (bad_at_header (drip (header_of 3 ^ "xxx")));
  Alcotest.(check bool) "1-byte reads: oversized length" true
    (bad_at_header (drip (header_of 2_000_000)));
  Alcotest.(check bool) "1-byte reads: max_payload override" true
    (drip ~max_payload:4_000_000 (header_of 2_000_000) = [])

(* ---------------------------------------------------------------- *)
(* the daemon, end to end                                            *)
(* ---------------------------------------------------------------- *)

let test_ping_and_stats () =
  with_server (fun path _ ->
      with_client path (fun c ->
          (match Client.call c (Wire.Ping 41) with
          | Wire.Pong 41 -> ()
          | _ -> Alcotest.fail "expected Pong 41");
          match Client.call c (Wire.Stats 9) with
          | Wire.Stats_reply s ->
            Alcotest.(check int) "stats id" 9 s.Wire.ss_id;
            Alcotest.(check int) "stats n" (Ugraph.n_vertices graph) s.Wire.ss_n_vertices;
            Alcotest.(check int) "stats m" (Ugraph.n_edges graph) s.Wire.ss_n_edges
          | _ -> Alcotest.fail "expected Stats_reply"))

let search_req id strategy =
  Wire.Search
    { Wire.id = id; strategy; source = None; target = None; budget = Some 200;
      stop_at_neighbor = false; ctx = None }

(* fire [ids] across [n_conns] connections (request i on connection
   i mod n_conns, pipelined), return encoded replies keyed by id *)
let fire_searches path ~n_conns ids =
  let conns = Array.init n_conns (fun _ -> Client.connect (Wire.Unix_path path)) in
  Fun.protect
    ~finally:(fun () -> Array.iter Client.close conns)
    (fun () ->
      let counts = Array.make n_conns 0 in
      List.iteri
        (fun i id ->
          let strategy = if id mod 2 = 0 then "rand-walk" else "high-degree" in
          Client.send conns.(i mod n_conns) (search_req id strategy);
          counts.(i mod n_conns) <- counts.(i mod n_conns) + 1)
        ids;
      let tbl = Hashtbl.create 64 in
      Array.iteri
        (fun ci count ->
          for _ = 1 to count do
            let resp = Client.recv conns.(ci) in
            Hashtbl.replace tbl (Wire.response_id resp) (Wire.encode_response resp)
          done)
        counts;
      tbl)

let test_deterministic_replies_across_jobs () =
  let ids = List.init 24 (fun i -> i + 1) in
  let c_requests = Registry.counter "serve.requests" in
  let before = Counter.value c_requests in
  let replies1 = with_server ~jobs:1 (fun path _ -> fire_searches path ~n_conns:1 ids) in
  Alcotest.(check int)
    "serve.requests counted every search exactly once"
    (before + List.length ids) (Counter.value c_requests);
  (* same ids, reversed send order, three connections, four domains *)
  let replies4 =
    with_server ~jobs:4 (fun path _ -> fire_searches path ~n_conns:3 (List.rev ids))
  in
  List.iter
    (fun id ->
      match (Hashtbl.find_opt replies1 id, Hashtbl.find_opt replies4 id) with
      | Some a, Some b ->
        Alcotest.(check string) (Printf.sprintf "reply %d byte-identical" id) a b
      | _ -> Alcotest.failf "reply %d missing" id)
    ids;
  (* the same id asked twice gets the same bytes — the contract that
     makes the reply a pure function of the request *)
  with_server ~jobs:2 (fun path _ ->
      with_client path (fun c ->
          let a = Wire.encode_response (Client.call c (search_req 7 "high-degree")) in
          let b = Wire.encode_response (Client.call c (search_req 7 "high-degree")) in
          Alcotest.(check string) "idempotent reply" a b))

let test_search_reply_is_plausible () =
  with_server (fun path _ ->
      with_client path (fun c ->
          match Client.call c (search_req 1 "high-degree") with
          | Wire.Search_reply sr ->
            Alcotest.(check int) "id echoed" 1 sr.Wire.sr_id;
            Alcotest.(check bool) "paid at least one request" true
              (sr.Wire.sr_total_requests >= 1);
            Alcotest.(check bool) "budget respected" true
              (sr.Wire.sr_total_requests <= 200);
            (match sr.Wire.sr_to_target with
            | Some r ->
              Alcotest.(check bool) "path certified when found" true
                (sr.Wire.sr_path_len >= 1);
              Alcotest.(check bool) "to_target within total" true
                (r <= sr.Wire.sr_total_requests)
            | None -> ())
          | _ -> Alcotest.fail "expected Search_reply"))

let test_request_validation_errors () =
  with_server (fun path _ ->
      with_client path (fun c ->
          (match Client.call c (search_req 5 "no-such-strategy") with
          | Wire.Error { err_id = 5; code = Wire.Unknown_strategy; message } ->
            Alcotest.(check bool) "names the portfolio" true
              (contains_sub message "high-degree")
          | _ -> Alcotest.fail "expected Unknown_strategy");
          (match
             Client.call c
               (Wire.Search
                  { Wire.id = 6; strategy = "high-degree"; source = None;
                    target = Some 99_999_999; budget = None; stop_at_neighbor = false;
                    ctx = None })
           with
          | Wire.Error { err_id = 6; code = Wire.Bad_vertex; _ } -> ()
          | _ -> Alcotest.fail "expected Bad_vertex");
          (match
             Client.call c
               (Wire.Search
                  { Wire.id = 7; strategy = "high-degree"; source = None;
                    target = None; budget = Some 0; stop_at_neighbor = false;
                    ctx = None })
           with
          | Wire.Error { err_id = 7; code = Wire.Bad_request; _ } -> ()
          | _ -> Alcotest.fail "expected Bad_request");
          (* the connection survived all of it *)
          match Client.call c (Wire.Ping 8) with
          | Wire.Pong 8 -> ()
          | _ -> Alcotest.fail "connection should have survived the errors"))

(* ---------------------------------------------------------------- *)
(* robustness: socket lifecycle                                      *)
(* ---------------------------------------------------------------- *)

let test_mid_frame_disconnect () =
  with_server (fun path _ ->
      let whole = Wire.frame (Wire.encode_request (Wire.Ping 1)) in
      let half = String.sub whole 0 (String.length whole / 2) in
      let raw = raw_connect path in
      raw_write raw half;
      Thread.delay 0.05;
      Unix.close raw;
      Thread.delay 0.05;
      (* the daemon shrugs: a fresh client still gets answered *)
      with_client path (fun c2 ->
          match Client.call c2 (Wire.Ping 2) with
          | Wire.Pong 2 -> ()
          | _ -> Alcotest.fail "server should survive a mid-frame disconnect"))

let test_garbage_payload_keeps_connection () =
  with_server (fun path _ ->
      with_client path (fun bystander ->
          let raw = raw_connect path in
          Fun.protect
            ~finally:(fun () -> try Unix.close raw with Unix.Unix_error _ -> ())
            (fun () ->
              (* well-framed, but the payload is noise: the server
                 reports Bad_frame and keeps the connection *)
              raw_write raw (Wire.frame (String.make 16 'X'));
              (match raw_read_response raw with
              | Wire.Error { code = Wire.Bad_frame; _ } -> ()
              | _ -> Alcotest.fail "expected a Bad_frame error");
              (* the same connection still answers a real request *)
              raw_write raw (Wire.frame (Wire.encode_request (Wire.Ping 3)));
              match raw_read_response raw with
              | Wire.Pong 3 -> ()
              | _ -> Alcotest.fail "expected Pong after the garbage frame");
          (* and bystanders never noticed *)
          match Client.call bystander (Wire.Ping 4) with
          | Wire.Pong 4 -> ()
          | _ -> Alcotest.fail "bystander connection broken"))

let test_oversized_frame_drops_connection_only () =
  with_server (fun path _ ->
      let raw = raw_connect path in
      Fun.protect
        ~finally:(fun () -> try Unix.close raw with Unix.Unix_error _ -> ())
        (fun () ->
          (* a header declaring 64 MiB: unrecoverable, the server
             answers once and closes this connection *)
          let b = Bytes.create 4 in
          Bytes.set_int32_le b 0 (Int32.of_int (64 * 1024 * 1024));
          raw_write raw (Bytes.to_string b);
          (match raw_read_response raw with
          | Wire.Error { code = Wire.Bad_frame; _ } -> ()
          | _ -> Alcotest.fail "expected Bad_frame for the oversized header");
          (* then EOF: the server hung up on this connection *)
          let buf = Bytes.create 64 in
          match Unix.read raw buf 0 64 with
          | 0 -> ()
          | _ -> Alcotest.fail "expected the connection to be closed");
      (* the daemon itself is fine *)
      with_client path (fun c ->
          match Client.call c (Wire.Ping 5) with
          | Wire.Pong 5 -> ()
          | _ -> Alcotest.fail "server should survive an oversized frame"))

(* A receive timeout mid-frame loses nothing: the next recv resumes
   the partial frame (sfload and the end-to-end benchmark poll with
   short timeouts). *)
let test_client_timeout_resumes_frame () =
  let path = temp_sock () in
  let lfd = Sf_obs.Sock.bind_unix ~who:"test" path in
  Fun.protect
    ~finally:(fun () ->
      Unix.close lfd;
      Sys.remove path)
    (fun () ->
      with_client path (fun c ->
          let srv, _ = Unix.accept lfd in
          Fun.protect
            ~finally:(fun () -> Unix.close srv)
            (fun () ->
              Client.set_receive_timeout c 0.05;
              let whole = Wire.frame (Wire.encode_response (Wire.Pong 6)) in
              let cut = String.length whole / 2 in
              raw_write srv (String.sub whole 0 cut);
              (match Client.recv c with
              | _ -> Alcotest.fail "a half frame was decoded"
              | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
              raw_write srv (String.sub whole cut (String.length whole - cut));
              match Client.recv c with
              | Wire.Pong 6 -> ()
              | _ -> Alcotest.fail "expected Pong 6 after the timeout")))

(* 1,100 clients from this one thread push the server's descriptors
   past select's limit: the connections it cannot watch are closed at
   once and counted, and everyone else is still served *)
let test_connection_flood () =
  let path = temp_sock () in
  let server = Server.create (Server.config ~jobs:1 ~seed:5 graph) ~listen:[ Wire.Unix_path path ] in
  let died = Atomic.make None in
  let th =
    Thread.create
      (fun () -> try Server.run ~tick:0.01 server with e -> Atomic.set died (Some e))
      ()
  in
  let refused = Counter.value (Registry.counter "serve.connections_refused") in
  let clients = ref [] in
  let alive () =
    match Atomic.get died with
    | None -> ()
    | Some e -> Alcotest.failf "server thread died: %s" (Printexc.to_string e)
  in
  let flood () =
    clients := Fds.open_up_to 1100 (fun () -> raw_connect path);
    alive ();
    if Fds.reached_limit !clients then begin
      (* the newest client's server end was past the limit: EOF, not a hang *)
      let last = List.hd !clients in
      Unix.setsockopt_float last Unix.SO_RCVTIMEO 5.;
      (match Unix.read last (Bytes.create 1) 0 1 with
      | 0 -> ()
      | _ -> Alcotest.fail "refused client read data"
      | exception Unix.Unix_error (e, _, _) ->
        (* EAGAIN here is the 5 s receive timeout: a hang *)
        Alcotest.failf "refused client read %s, not EOF" (Unix.error_message e));
      alive ();
      Alcotest.(check bool) "refusals counted" true
        (Counter.value (Registry.counter "serve.connections_refused") > refused)
    end;
    List.iter Unix.close !clients;
    clients := [];
    with_client path (fun c ->
        match Client.call c (Wire.Ping 9) with
        | Wire.Pong 9 -> ()
        | _ -> Alcotest.fail "server should answer after the flood");
    alive ()
  in
  let outcome = try Ok (flood ()) with e -> Error e in
  List.iter Unix.close !clients;
  Server.stop server;
  Thread.join th;
  (* a server that died mid-flood is the failure, whatever it broke *)
  alive ();
  match outcome with Ok () -> () | Error e -> raise e

let test_socket_claim_lifecycle () =
  (* stale socket: a bound-then-abandoned path is reclaimed *)
  let path = temp_sock () in
  let stale = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind stale (Unix.ADDR_UNIX path);
  Unix.close stale;
  Alcotest.(check bool) "stale file exists" true (Sys.file_exists path);
  with_server_on path (fun p _ ->
      with_client p (fun c ->
          match Client.call c (Wire.Ping 1) with
          | Wire.Pong 1 -> ()
          | _ -> Alcotest.fail "reclaimed server does not answer"));
  (* non-socket path: refused *)
  let file = temp_sock () in
  let oc = open_out file in
  output_string oc "not a socket";
  close_out oc;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
    (fun () ->
      match
        Server.create (Server.config ~jobs:1 ~seed:1 graph)
          ~listen:[ Wire.Unix_path file ]
      with
      | _ -> Alcotest.fail "bound over a regular file"
      | exception Invalid_argument msg ->
        Alcotest.(check bool) "names the offence" true
          (contains_sub msg "not a socket"));
  (* live socket: refused while a server holds it *)
  with_server (fun live_path _ ->
      match
        Server.create (Server.config ~jobs:1 ~seed:1 graph)
          ~listen:[ Wire.Unix_path live_path ]
      with
      | _ -> Alcotest.fail "bound over a live server"
      | exception Invalid_argument msg ->
        Alcotest.(check bool) "names the live process" true
          (contains_sub msg "in use by a live process"))

let test_shutdown_request () =
  let path = temp_sock () in
  let cfg = Server.config ~jobs:1 ~seed:5 graph in
  let server = Server.create cfg ~listen:[ Wire.Unix_path path ] in
  let th = Thread.create (fun () -> Server.run ~tick:0.01 server) () in
  with_client path (fun c ->
      match Client.call c (Wire.Shutdown 13) with
      | Wire.Shutdown_ack 13 -> ()
      | _ -> Alcotest.fail "expected Shutdown_ack");
  Thread.join th;
  Alcotest.(check bool) "socket unlinked on exit" false (Sys.file_exists path)

(* ---------------------------------------------------------------- *)
(* sfload                                                            *)
(* ---------------------------------------------------------------- *)

let load_cfg path ~connections ~seed =
  Load.config ~connections ~concurrency:8
    ~mix:[ ("high-degree", 2.); ("rand-walk", 1.) ]
    ~budget:150 ~timeout:30. ~seed ~requests:48 (Wire.Unix_path path)

(* CRC-32 reply digest of [load_cfg ~connections:2 ~seed:9] against
   the shared 600-vertex graph at server seed 5.  If a legitimate
   change moves search outcomes (rng stream, strategy semantics),
   update it together with the golden-output fixtures. *)
let pinned_reply_crc = 0xef55f335l

let test_load_determinism () =
  let summary1, digest1 =
    with_server ~jobs:1 (fun path _ ->
        let o = Load.run (load_cfg path ~connections:2 ~seed:9) in
        Alcotest.(check int) "every request answered" 48 o.Load.o_replies;
        Alcotest.(check int) "no errors" 0 o.Load.o_errors;
        Alcotest.(check int) "no missing" 0 o.Load.o_missing;
        (Load.summary o, o.Load.o_reply_crc))
  in
  let summary2, digest2 =
    with_server ~jobs:4 (fun path _ ->
        let o = Load.run (load_cfg path ~connections:3 ~seed:9) in
        (Load.summary o, o.Load.o_reply_crc))
  in
  Alcotest.(check string)
    "summary byte-identical across jobs and connection counts" summary1 summary2;
  Alcotest.(check bool) "reply digests agree" true (digest1 = digest2);
  (* the cross-PR golden: the same reply bytes as every earlier
     transport, not merely the same across --jobs *)
  Alcotest.(check int32) "reply digest pinned" pinned_reply_crc digest1;
  (* A different seed is a different plan — and the digest must see it.
     Regression: a CRC over whole payloads (self-checksummed blocks)
     collapses to a content-independent constant per reply, making the
     digest blind to reply bytes; it must exclude the checksum tails. *)
  let summary3, digest3 =
    with_server ~jobs:1 (fun path _ ->
        let o = Load.run (load_cfg path ~connections:2 ~seed:10) in
        (Load.summary o, o.Load.o_reply_crc))
  in
  Alcotest.(check bool) "distinct seed, distinct summary" true (summary1 <> summary3);
  Alcotest.(check bool) "distinct seed, distinct reply digest" true
    (digest1 <> digest3)

let test_load_bench_file_validates () =
  with_server ~jobs:2 (fun path _ ->
      let o = Load.run (load_cfg path ~connections:2 ~seed:3) in
      let bench =
        Load.to_bench ~date:"2026-08-08T00:00:00Z" ~commit:"test" ~mode:"load" o
      in
      let dir =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "sf-load-bench-%d-%d" (Unix.getpid ()) !temp_counter)
      in
      Unix.mkdir dir 0o755;
      let file = Filename.concat dir "BENCH_load.json" in
      Fun.protect
        ~finally:(fun () ->
          if Sys.file_exists file then Sys.remove file;
          if Sys.file_exists dir then Unix.rmdir dir)
        (fun () ->
          Bench_file.write ~path:file bench;
          match Bench_file.read ~path:file with
          | Error msg -> Alcotest.failf "bench file invalid: %s" msg
          | Ok t ->
            Alcotest.(check (list string))
              "both sample sets present"
              [ "serve/load: request latency"; "serve/load: service cost" ]
              (Bench_file.names t);
            let cost = Option.get (Bench_file.find t "serve/load: service cost") in
            Alcotest.(check int) "one cost sample per reply" o.Load.o_replies
              (Array.length cost.Bench_file.samples)))

let test_open_loop_poisson () =
  (* a paced open-loop run completes and reports sane numbers *)
  with_server ~jobs:2 (fun path _ ->
      let cfg =
        Load.config ~rate:400. ~connections:2
          ~mix:[ ("high-degree", 1.) ]
          ~budget:100 ~timeout:30. ~seed:5 ~requests:40 (Wire.Unix_path path)
      in
      let o = Load.run cfg in
      Alcotest.(check int) "all answered" 40 o.Load.o_replies;
      Alcotest.(check bool) "took at least the schedule span" true
        (o.Load.o_elapsed_s > 0.04);
      Alcotest.(check int) "latencies recorded" 40 (Array.length o.Load.o_wall_ns);
      Array.iter
        (fun ns ->
          Alcotest.(check bool) "latency non-negative and finite" true
            (Float.is_finite ns && ns >= 0.))
        o.Load.o_wall_ns)

let test_load_rejects_bad_config () =
  let ep = Wire.Unix_path "/tmp/never-used.sock" in
  List.iter
    (fun f ->
      match f () with
      | (_ : Load.config) -> Alcotest.fail "accepted a bad config"
      | exception Invalid_argument _ -> ())
    [
      (fun () -> Load.config ~seed:1 ~requests:0 ep);
      (fun () -> Load.config ~seed:1 ~requests:1 ~connections:0 ep);
      (fun () -> Load.config ~seed:1 ~requests:1 ~rate:(-1.) ep);
      (fun () -> Load.config ~seed:1 ~requests:1 ~mix:[] ep);
      (fun () -> Load.config ~seed:1 ~requests:1 ~mix:[ ("x", 0.) ] ep);
      (fun () -> Load.config ~seed:1 ~requests:1 ~budget:0 ep);
    ]

(* ---- the capacity ramp, against a synthetic probe ------------------- *)

(* ramp never opens sockets itself — the probe closure does — so the
   climb/bisect logic is testable as a pure function of a simulated
   server with a known capacity cliff *)
let fake_outcome ?(errors = 0) ?(missing = 0) ~lat_ms n =
  let replies = max 0 (n - missing - errors) in
  {
    Load.o_requests = n;
    o_connections = 1;
    o_rate = 0.;
    o_seed = 1;
    o_n_vertices = 100;
    o_sent = n;
    o_replies = replies;
    o_errors = errors;
    o_missing = missing;
    o_found = replies;
    o_exhausted = 0;
    o_gave_up = 0;
    o_mix_counts = [ ("high-degree", n) ];
    o_costs = Array.make replies 10;
    o_wall_ns = Array.make replies (lat_ms *. 1e6);
    o_reply_crc = 0l;
    o_elapsed_s = 1.;
    o_achieved_rate = float_of_int replies;
  }

let test_ramp_brackets_capacity () =
  (* a hard cliff at 1000 req/s: fast below, hopeless above *)
  let offered = ref [] in
  let probe ~rate =
    offered := rate :: !offered;
    if rate <= 1000. then fake_outcome ~lat_ms:5. 20
    else fake_outcome ~lat_ms:200. 20
  in
  let r = Load.ramp ~start:50. ~factor:2. ~p99_ms:50. ~max_steps:10 ~bisect:2 probe in
  (* geometric climb 50..800 holds, 1600 blows, two geometric-mean
     bisection rounds tighten the bracket around the cliff *)
  (match r.Load.r_capacity with
  | Some c ->
    Alcotest.(check bool) "capacity above last good climb" true (c >= 800.);
    Alcotest.(check bool) "capacity below the cliff" true (c <= 1000.)
  | None -> Alcotest.fail "no capacity found");
  (match r.Load.r_ceiling with
  | Some c ->
    Alcotest.(check bool) "ceiling above the cliff" true (c > 1000.);
    Alcotest.(check bool) "ceiling tightened by bisection" true (c < 1600.)
  | None -> Alcotest.fail "no ceiling found");
  Alcotest.(check int) "6 climb + 2 bisect probes" 8 (List.length r.Load.r_steps);
  (* the climb really was geometric from start *)
  (match List.rev !offered with
  | a :: b :: c :: _ ->
    Alcotest.(check (float 1e-9)) "first rate" 50. a;
    Alcotest.(check (float 1e-9)) "second rate" 100. b;
    Alcotest.(check (float 1e-9)) "third rate" 200. c
  | _ -> Alcotest.fail "too few probes");
  (* the report renders every step and a capacity line *)
  let report = Load.ramp_report r in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "report mentions capacity" true (contains report "capacity")

let test_ramp_edge_cases () =
  (* even the first rate fails: no capacity, ceiling = start *)
  let r = Load.ramp ~start:50. ~p99_ms:50. (fun ~rate:_ -> fake_outcome ~lat_ms:200. 10) in
  Alcotest.(check bool) "no capacity" true (r.Load.r_capacity = None);
  Alcotest.(check bool) "ceiling is the first rate" true (r.Load.r_ceiling = Some 50.);
  (* nothing fails within max_steps: capacity is the last climb, no ceiling *)
  let r = Load.ramp ~start:50. ~factor:2. ~p99_ms:50. ~max_steps:3 (fun ~rate:_ -> fake_outcome ~lat_ms:5. 10) in
  Alcotest.(check bool) "capacity is the last climb" true (r.Load.r_capacity = Some 200.);
  Alcotest.(check bool) "no ceiling" true (r.Load.r_ceiling = None);
  Alcotest.(check int) "exactly max_steps probes" 3 (List.length r.Load.r_steps);
  (* errors and missing replies fail a step regardless of latency *)
  let r = Load.ramp ~start:50. ~bisect:0 (fun ~rate ->
      if rate <= 50. then fake_outcome ~lat_ms:5. 10
      else fake_outcome ~errors:1 ~lat_ms:5. 10)
  in
  Alcotest.(check bool) "errors blow the step" true (r.Load.r_ceiling = Some 100.);
  (* a step with no replies at all is p99 = infinity, a failure *)
  let r = Load.ramp ~start:50. ~bisect:0 (fun ~rate:_ -> fake_outcome ~missing:10 ~lat_ms:5. 10) in
  Alcotest.(check bool) "silent server fails the first step" true (r.Load.r_capacity = None);
  (match r.Load.r_steps with
  | [ s ] -> Alcotest.(check bool) "p99 is infinite" true (s.Load.r_p99_ms = infinity)
  | _ -> Alcotest.fail "expected one step");
  (* validation *)
  List.iter
    (fun f -> match f () with
      | (_ : Load.ramp_result) -> Alcotest.fail "bad ramp config accepted"
      | exception Invalid_argument _ -> ())
    [
      (fun () -> Load.ramp ~start:0. (fun ~rate:_ -> fake_outcome ~lat_ms:1. 1));
      (fun () -> Load.ramp ~factor:1. (fun ~rate:_ -> fake_outcome ~lat_ms:1. 1));
      (fun () -> Load.ramp ~p99_ms:0. (fun ~rate:_ -> fake_outcome ~lat_ms:1. 1));
      (fun () -> Load.ramp ~max_steps:0 (fun ~rate:_ -> fake_outcome ~lat_ms:1. 1));
      (fun () -> Load.ramp ~bisect:(-1) (fun ~rate:_ -> fake_outcome ~lat_ms:1. 1));
    ]

let suite =
  [
    ("endpoint parsing", `Quick, test_endpoint_parsing);
    ("codec: request round trips", `Quick, test_request_roundtrip);
    ("codec: response round trips", `Quick, test_response_roundtrip);
    QCheck_alcotest.to_alcotest qcheck_search_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_reply_roundtrip;
    ("codec: truncations rejected", `Quick, test_decode_rejects_truncations);
    ("codec: bit flips rejected", `Quick, test_decode_rejects_bit_flips);
    ("codec: trailing bytes rejected", `Quick, test_decode_rejects_trailing_bytes);
    ("framing: pop state machine", `Quick, test_frame_pop);
    ("e2e: ping and stats", `Quick, test_ping_and_stats);
    ("e2e: deterministic replies across jobs", `Slow, test_deterministic_replies_across_jobs);
    ("e2e: search reply sanity", `Quick, test_search_reply_is_plausible);
    ("e2e: validation errors", `Quick, test_request_validation_errors);
    ("robustness: mid-frame disconnect", `Quick, test_mid_frame_disconnect);
    ("robustness: garbage payload", `Quick, test_garbage_payload_keeps_connection);
    ("robustness: oversized frame", `Quick, test_oversized_frame_drops_connection_only);
    ("robustness: client timeout resumes a frame", `Quick, test_client_timeout_resumes_frame);
    ("robustness: socket claim lifecycle", `Quick, test_socket_claim_lifecycle);
    ("robustness: shutdown request", `Quick, test_shutdown_request);
    ("load: determinism", `Slow, test_load_determinism);
    ("load: bench file validates", `Quick, test_load_bench_file_validates);
    ("load: open loop", `Quick, test_open_loop_poisson);
    ("load: config validation", `Quick, test_load_rejects_bad_config);
    ("ramp: brackets a capacity cliff", `Quick, test_ramp_brackets_capacity);
    ("ramp: edge cases and validation", `Quick, test_ramp_edge_cases);
    ("robustness: connection flood past FD_SETSIZE", `Quick, test_connection_flood);
  ]
