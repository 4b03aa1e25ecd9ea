(* sfserve: the long-lived search-query daemon. Loads or generates a
   graph once, then answers framed search requests (doc/SERVING.md)
   over unix-domain and/or TCP sockets until stopped, batching every
   select round's in-flight searches across the domain pool.

   Examples:
     sfserve --graph corpus.sfgb --listen unix:/tmp/sf.sock
     sfserve --model mori -n 100000 --listen tcp:127.0.0.1:7440 \
             --telemetry /tmp/sf.telem --metrics serve.obs.json
     sfload unix:/tmp/sf.sock --requests 10000 --rate 500 *)

open Cmdliner

let run model n p m alpha exponent graph_file listen seed target default_budget
    max_frame (obs : Obs_cli.t) =
  let extra = ref [] in
  Obs_cli.with_session obs ~process:"server" ~extra:(fun () -> !extra) ~tool:"sfserve" ~seed
    ~mode:"serve"
  @@ fun () ->
  if listen = [] then begin
    prerr_endline
      "sfserve: no --listen endpoint (give at least one unix:PATH or tcp:HOST:PORT)";
    2
  end
  else begin
    let rng = Sf_prng.Rng.of_seed seed in
    let graph =
      match graph_file with
      | Some path -> Obs_cli.load_graph path
      | None ->
        (match Sf_core.Searchability.instance_of_model model ~p ~m ~alpha ~exponent with
        | Ok make -> fst (make rng n)
        | Error msg -> failwith msg)
    in
    let cfg =
      Sf_serve.Server.config ?default_target:target ?default_budget
        ?jobs:obs.Obs_cli.jobs ~max_payload:max_frame ~seed graph
    in
    let server = Sf_serve.Server.create cfg ~listen in
    let stop _ = Sf_serve.Server.stop server in
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    Printf.printf "sfserve: %s vertices, %s edges; listening on %s\n%!"
      (Sf_stats.Table.fmt_int_grouped (Sf_graph.Ugraph.n_vertices graph))
      (Sf_stats.Table.fmt_int_grouped (Sf_graph.Ugraph.n_edges graph))
      (String.concat " "
         (List.map Sf_serve.Wire.endpoint_to_string
            (Sf_serve.Server.endpoints server)));
    Sf_serve.Server.run server;
    let served = Sf_serve.Server.served server in
    let errors = Sf_serve.Server.protocol_errors server in
    let conns = Sf_serve.Server.connections_accepted server in
    Printf.printf
      "sfserve: served %d searches over %d connections (%d protocol errors)\n"
      served conns errors;
    extra :=
      [
        ( "listen",
          Sf_obs.Export.json_string
            (String.concat " "
               (List.map Sf_serve.Wire.endpoint_to_string
                  (Sf_serve.Server.endpoints server))) );
        ("n", string_of_int (Sf_graph.Ugraph.n_vertices graph));
        ("served", string_of_int served);
        ("connections", string_of_int conns);
      ];
    0
  end

let model_arg =
  Arg.(
    value & opt string "mori"
    & info [ "model" ] ~doc:"mori | cooper-frieze | config")

let n_arg =
  Arg.(value & opt int 10_000 & info [ "n" ] ~doc:"Generated graph size")

let p_arg = Arg.(value & opt float 0.5 & info [ "p" ] ~doc:"Mori parameter")
let m_arg = Arg.(value & opt int 1 & info [ "m" ] ~doc:"Mori merge factor")

let alpha_arg =
  Arg.(value & opt float 0.5 & info [ "alpha" ] ~doc:"Cooper-Frieze alpha")

let exponent_arg =
  Arg.(value & opt float 2.3 & info [ "exponent" ] ~doc:"Config-model exponent")

let graph_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "graph" ]
        ~doc:
          "Serve a graph file (an SFGB v2 container, mapped, or a text edge list) \
           instead of generating")

let listen_arg =
  Arg.(
    value
    & opt_all Obs_cli.endpoint_conv []
    & info [ "listen" ] ~docv:"ENDPOINT"
        ~doc:
          "Listen on $(docv) (unix:PATH, tcp:HOST:PORT, or a bare socket path); \
           repeatable. Stale unix sockets are reclaimed, live ones refused")

let seed_arg =
  Arg.(
    value & opt int 1
    & info [ "seed" ]
        ~doc:
          "Master seed of the per-request reply streams: fixed seed means every \
           request id gets the same reply, at any --jobs")

let target_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "target" ]
        ~doc:"Default search target (default: vertex n, the newest vertex)")

let budget_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "default-budget" ]
        ~doc:"Oracle budget for requests that name none (default: 4n + 64)")

let max_frame_arg =
  Arg.(
    value
    & opt int Sf_serve.Wire.max_payload_default
    & info [ "max-frame" ] ~doc:"Per-frame payload cap in bytes")

let cmd =
  let doc = "serve local-knowledge search queries from a long-lived daemon" in
  Cmd.v
    (Cmd.info "sfserve" ~doc)
    Term.(
      const run $ model_arg $ n_arg $ p_arg $ m_arg $ alpha_arg $ exponent_arg
      $ graph_arg $ listen_arg $ seed_arg $ target_arg $ budget_arg
      $ max_frame_arg $ Obs_cli.term)

let () =
  Minor_heap.shrink ();
  exit (Cmd.eval' cmd)
