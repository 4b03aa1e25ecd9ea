(* sfload: open-loop load generator for a running sfserve daemon.

   Examples:
     sfload unix:/tmp/sf.sock --requests 10000 --rate 500 --connections 4
     sfload tcp:127.0.0.1:7440 --requests 5000 --mix high-degree:3,rand-walk:1 \
            --summary load.txt --bench BENCH_load.json --stop-server

   With --rate 0 (the default) the run is a closed-loop saturation
   probe windowed by --concurrency; with --rate R requests arrive on a
   Poisson schedule and latency is measured from each request's
   scheduled arrival (doc/SERVING.md, "Capacity planning"). The
   summary block is deterministic for a fixed --seed; the wall-clock
   report is not and does not try to be. *)

open Cmdliner

let mix_conv : (string * float) list Arg.conv =
  let parse s =
    try
      let items = String.split_on_char ',' s in
      if items = [] then failwith "empty mix";
      Ok
        (List.map
           (fun item ->
             match String.index_opt item ':' with
             | None ->
               if item = "" then failwith "empty strategy name";
               (item, 1.)
             | Some i ->
               let name = String.sub item 0 i in
               let w =
                 float_of_string
                   (String.sub item (i + 1) (String.length item - i - 1))
               in
               if name = "" then failwith "empty strategy name";
               if w <= 0. then failwith "weights must be positive";
               (name, w))
           items)
    with Failure msg ->
      Error (`Msg (Printf.sprintf "bad mix %S (NAME[:WEIGHT],...): %s" s msg))
  in
  let print fmt mix =
    Format.pp_print_string fmt
      (String.concat ","
         (List.map (fun (n, w) -> Printf.sprintf "%s:%g" n w) mix))
  in
  Arg.conv (parse, print)

let target_conv : Sf_serve.Load.target_spec Arg.conv =
  let parse = function
    | "server" -> Ok Sf_serve.Load.Server_default
    | "uniform" -> Ok Sf_serve.Load.Uniform_target
    | s -> (
      match int_of_string_opt s with
      | Some v when v >= 1 -> Ok (Sf_serve.Load.Fixed_target v)
      | _ -> Error (`Msg (Printf.sprintf "bad target %S (server | uniform | VERTEX)" s)))
  in
  let print fmt = function
    | Sf_serve.Load.Server_default -> Format.pp_print_string fmt "server"
    | Sf_serve.Load.Uniform_target -> Format.pp_print_string fmt "uniform"
    | Sf_serve.Load.Fixed_target v -> Format.pp_print_int fmt v
  in
  Arg.conv (parse, print)

let iso_utc_now () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

(* --ramp: geometric rate escalation until p99 blows the threshold,
   then bisect — one capacity number out (doc/SERVING.md) *)
let run_ramp ~server ~requests ~connections ~concurrency ~mix ~target ~budget
    ~stop_at_neighbor ~seed ~timeout ~ramp_start ~ramp_factor ~ramp_p99_ms ~ramp_steps
    ~ramp_bisect =
  let probe ~rate =
    let cfg =
      Sf_serve.Load.config ~rate ~connections ~concurrency ~mix ~target ?budget
        ~stop_at_neighbor ~timeout ~seed ~requests server
    in
    let o = Sf_serve.Load.run cfg in
    Sf_serve.Load.record_metrics o;
    o
  in
  let r =
    Sf_serve.Load.ramp ~start:ramp_start ~factor:ramp_factor ~p99_ms:ramp_p99_ms
      ~max_steps:ramp_steps ~bisect:ramp_bisect probe
  in
  print_string (Sf_serve.Load.ramp_report r);
  match r.Sf_serve.Load.r_capacity with
  | Some c ->
    ( 0,
      [
        ("ramp_capacity_rps", Printf.sprintf "%.1f" c);
        ("ramp_probes", string_of_int (List.length r.Sf_serve.Load.r_steps));
      ] )
  | None -> (1, [ ("ramp_probes", string_of_int (List.length r.Sf_serve.Load.r_steps)) ])

let run server requests rate connections concurrency mix target budget
    stop_at_neighbor seed summary_file bench_file stop_server timeout ramp
    ramp_start ramp_factor ramp_p99_ms ramp_steps ramp_bisect (obs : Obs_cli.t) =
  let extra = ref [] in
  Obs_cli.with_session obs ~process:"load" ~extra:(fun () -> !extra) ~tool:"sfload" ~seed
    ~mode:(if ramp then "ramp" else "load")
  @@ fun () ->
  (* a server that is not there, hangs up or sends a reply that fails
     its decode or is of the wrong kind is one line, not a crash *)
  let fail msg =
    Printf.eprintf "sfload: %s: %s\n%!" (Sf_serve.Wire.endpoint_to_string server) msg;
    1
  in
  try
  if ramp then begin
    let code, kv =
      run_ramp ~server ~requests ~connections ~concurrency ~mix ~target ~budget
        ~stop_at_neighbor ~seed ~timeout ~ramp_start ~ramp_factor ~ramp_p99_ms
        ~ramp_steps ~ramp_bisect
    in
    extra := List.map (fun (k, v) -> (k, v)) kv;
    if stop_server then begin
      let c = Sf_serve.Client.connect server in
      Fun.protect
        ~finally:(fun () -> Sf_serve.Client.close c)
        (fun () -> ignore (Sf_serve.Client.call c (Sf_serve.Wire.Shutdown 0)))
    end;
    code
  end
  else begin
  let cfg =
    Sf_serve.Load.config ~rate ~connections ~concurrency ~mix ~target ?budget
      ~stop_at_neighbor ~timeout ~seed ~requests server
  in
  let o = Sf_serve.Load.run cfg in
  Sf_serve.Load.record_metrics o;
  print_string (Sf_serve.Load.report o);
  let summary = Sf_serve.Load.summary o in
  print_string summary;
  Option.iter (fun path -> write_file path summary) summary_file;
  Option.iter
    (fun path ->
      Sf_perf.Bench_file.write ~path
        (Sf_serve.Load.to_bench ~date:(iso_utc_now ()) ~commit:"unknown"
           ~mode:"load" o);
      Printf.printf "wrote bench file %s\n" path)
    bench_file;
  if stop_server then begin
    let c = Sf_serve.Client.connect server in
    Fun.protect
      ~finally:(fun () -> Sf_serve.Client.close c)
      (fun () ->
        match Sf_serve.Client.call c (Sf_serve.Wire.Shutdown 0) with
        | Sf_serve.Wire.Shutdown_ack _ -> print_endline "server shutdown acknowledged"
        | other ->
          Printf.eprintf "unexpected shutdown reply (kind id %d)\n"
            (Sf_serve.Wire.response_id other))
  end;
  extra :=
    [
      ("requests", string_of_int o.Sf_serve.Load.o_requests);
      ("replies", string_of_int o.Sf_serve.Load.o_replies);
      ("errors", string_of_int o.Sf_serve.Load.o_errors);
      ("missing", string_of_int o.Sf_serve.Load.o_missing);
      ("n", string_of_int o.Sf_serve.Load.o_n_vertices);
      ( "reply_crc32",
        Sf_obs.Export.json_string
          (Printf.sprintf "0x%08lx" o.Sf_serve.Load.o_reply_crc) );
    ];
  if o.Sf_serve.Load.o_errors > 0 || o.Sf_serve.Load.o_missing > 0 then 1 else 0
  end
  with
  | Unix.Unix_error (e, _, _) -> fail (Unix.error_message e)
  | Sf_store.Codec_error.Error e -> fail (Sf_store.Codec_error.to_string e)
  | Failure msg -> fail msg
  | End_of_file -> fail "connection closed by the server"

let server_arg =
  Arg.(
    required
    & pos 0 (some Obs_cli.endpoint_conv) None
    & info [] ~docv:"SERVER" ~doc:"The daemon to load (unix:PATH or tcp:HOST:PORT)")

let requests_arg =
  Arg.(value & opt int 1000 & info [ "requests" ] ~doc:"Total search requests to send")

let rate_arg =
  Arg.(
    value & opt float 0.
    & info [ "rate" ]
        ~doc:
          "Poisson arrival rate in requests/second (open loop); 0 runs a \
           closed-loop saturation probe windowed by --concurrency")

let connections_arg =
  Arg.(value & opt int 1 & info [ "connections" ] ~doc:"Concurrent connections")

let concurrency_arg =
  Arg.(
    value & opt int 32
    & info [ "concurrency" ] ~doc:"Closed-loop in-flight request window")

let mix_arg =
  Arg.(
    value
    & opt mix_conv [ ("high-degree", 1.) ]
    & info [ "mix" ] ~docv:"NAME[:WEIGHT],..."
        ~doc:"Strategy mix, e.g. high-degree:3,rand-walk:1")

let target_arg =
  Arg.(
    value
    & opt target_conv Sf_serve.Load.Server_default
    & info [ "target" ] ~doc:"server (daemon default), uniform, or a vertex id")

let budget_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "budget" ] ~doc:"Oracle budget per request (default: the server's)")

let stop_at_arg =
  Arg.(
    value & flag
    & info [ "stop-at-neighbor" ]
        ~doc:"Count success on reaching a neighbor of the target (the lenient rule)")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Load-plan seed (request ids, mix picks, arrivals)")

let summary_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "summary" ] ~docv:"FILE" ~doc:"Write the deterministic summary block to $(docv)")

let bench_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "bench" ] ~docv:"FILE"
        ~doc:"Write a scalefree.bench/1 results file with the raw latency and cost samples")

let stop_server_arg =
  Arg.(value & flag & info [ "stop-server" ] ~doc:"Send Shutdown to the daemon after the run")

let timeout_arg =
  Arg.(value & opt float 30. & info [ "timeout" ] ~doc:"Per-read drain timeout in seconds")

let ramp_arg =
  Arg.(
    value & flag
    & info [ "ramp" ]
        ~doc:
          "Capacity ramp: escalate the open-loop rate geometrically until p99 \
           blows --ramp-p99-ms, bisect, and print one sustainable-rate \
           estimate. --requests is the probe length per step; --rate is \
           ignored. Exit 1 when no rate holds.")

let ramp_start_arg =
  Arg.(value & opt float 50. & info [ "ramp-start" ] ~doc:"First offered rate (req/s)")

let ramp_factor_arg =
  Arg.(value & opt float 2. & info [ "ramp-factor" ] ~doc:"Rate multiplier per climb step")

let ramp_p99_arg =
  Arg.(value & opt float 50. & info [ "ramp-p99-ms" ] ~doc:"p99 latency threshold (milliseconds)")

let ramp_steps_arg =
  Arg.(value & opt int 10 & info [ "ramp-steps" ] ~doc:"Maximum climb steps")

let ramp_bisect_arg =
  Arg.(value & opt int 2 & info [ "ramp-bisect" ] ~doc:"Geometric-mean bisection rounds after the bracket")

let cmd =
  let doc = "drive open-loop search load against a running sfserve daemon" in
  Cmd.v
    (Cmd.info "sfload" ~doc)
    Term.(
      const run $ server_arg $ requests_arg $ rate_arg $ connections_arg
      $ concurrency_arg $ mix_arg $ target_arg $ budget_arg $ stop_at_arg
      $ seed_arg $ summary_arg $ bench_arg $ stop_server_arg $ timeout_arg
      $ ramp_arg $ ramp_start_arg $ ramp_factor_arg $ ramp_p99_arg
      $ ramp_steps_arg $ ramp_bisect_arg $ Obs_cli.term)

let () = exit (Cmd.eval' cmd)
