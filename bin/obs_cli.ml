(* Shared observability plumbing for the command-line tools: the
   --metrics / --no-obs / --trace / --progress / --jobs flag set and
   the session bracket that turns them into attached sinks, an armed
   flight recorder, and a run manifest.

   Usage in a tool:

     let run ... (obs : Obs_cli.t) =
       Obs_cli.with_session obs ~tool:"sfgen" ~seed ~mode:model
         (fun () -> ... the tool body, returning an exit code ...)

   The bracket attaches the trace sinks before the body runs, dumps
   the flight recorder if the body raises or a strategy gives up,
   detaches (finalising the trace file) afterwards, and writes the
   manifest last so it sees every metric the body touched. *)

open Cmdliner

type t = {
  metrics : string option;
  no_obs : bool;
  trace : string option;
  progress : bool;
  jobs : int option;
  corpus : string option;
  telemetry : string option;
  telemetry_tick : float;
}

let term =
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Write an obs.json run manifest to $(docv); $(b,-) writes it to stdout so a \
             caller can capture it without a temp file")
  in
  let no_obs =
    Arg.(
      value & flag
      & info [ "no-obs" ]
          ~doc:"Disable all instrumentation (counters, timers, spans, trace events)")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write the structured event trace to $(docv): a .jsonl suffix streams one \
             JSON object per event; any other suffix writes Chrome trace-event JSON \
             loadable in ui.perfetto.dev")
  in
  let progress =
    Arg.(value & flag & info [ "progress" ] ~doc:"Report live progress on stderr")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for the parallel sections (trial grids, experiment \
             fan-out). Output is identical at any value for a fixed seed. Default: \
             $(b,SCALEFREE_JOBS) if set, else the machine's recommended domain count \
             capped at 8")
  in
  let corpus =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Content-addressed graph corpus cache (doc/STORAGE.md): generated graphs \
             are stored under $(docv) and replayed on later runs with byte-identical \
             results. Default: $(b,SCALEFREE_CORPUS) if set, else no cache")
  in
  let telemetry =
    Arg.(
      value
      & opt (some string) None
      & info [ "telemetry" ] ~docv:"PATH"
          ~doc:
            "Serve live telemetry on a unix-domain socket at $(docv) while the run is \
             in flight: $(b,sftop) $(docv) attaches a dashboard, and the socket \
             answers $(b,metrics) (Prometheus text), $(b,json) and $(b,series) \
             commands (doc/OBSERVABILITY.md). Default: $(b,SCALEFREE_TELEMETRY) if \
             set, else off")
  in
  let telemetry_tick =
    Arg.(
      value & opt float 0.5
      & info [ "telemetry-tick" ] ~docv:"SECONDS"
          ~doc:"Background sampling period for the telemetry time series")
  in
  Term.(
    const (fun metrics no_obs trace progress jobs corpus telemetry telemetry_tick ->
        { metrics; no_obs; trace; progress; jobs; corpus; telemetry; telemetry_tick })
    $ metrics $ no_obs $ trace $ progress $ jobs $ corpus $ telemetry $ telemetry_tick)

(* One endpoint syntax for every flag that names a serving socket
   (sfserve --listen, sfload SERVER), so the tools cannot drift:
   unix:PATH | tcp:HOST:PORT | bare filesystem path. *)
let endpoint_conv : Sf_serve.Wire.endpoint Arg.conv =
  let parse s =
    match Sf_serve.Wire.endpoint_of_string s with
    | Ok e -> Ok e
    | Error msg -> Error (`Msg msg)
  in
  let print fmt e =
    Format.pp_print_string fmt (Sf_serve.Wire.endpoint_to_string e)
  in
  Arg.conv (parse, print)

type session = {
  flight : Sf_obs.Flight.t option;
  sink_ids : Sf_obs.Trace.id list;
  telem : (Sf_obs.Series.t * Sf_obs.Expose.listener) option;
  wall0 : float;
  cpu0 : float;
}

(* --telemetry beats SCALEFREE_TELEMETRY beats off, mirroring how
   --jobs/SCALEFREE_JOBS and --corpus/SCALEFREE_CORPUS resolve *)
let telemetry_path (t : t) =
  match t.telemetry with
  | Some _ as p -> p
  | None -> (
    match Sys.getenv_opt "SCALEFREE_TELEMETRY" with Some "" | None -> None | Some _ as p -> p)

let start_telemetry (t : t) =
  match telemetry_path t with
  | None -> None
  | Some path when t.no_obs ->
    Printf.eprintf
      "observability is disabled (--no-obs); not serving telemetry on %s\n" path;
    None
  | Some path ->
    let series = Sf_obs.Series.create ~tick_s:t.telemetry_tick () in
    let listener = Sf_obs.Expose.serve ~series ~path () in
    Sf_obs.Series.start series;
    Printf.eprintf "serving live telemetry on %s (attach with: sftop %s)\n%!" path path;
    Some (series, listener)

let stop_telemetry session =
  match session.telem with
  | None -> ()
  | Some (series, listener) ->
    (* listener first: a scrape arriving mid-shutdown would race the
       sampler join; after [stop] the socket is gone *)
    Sf_obs.Expose.stop listener;
    Sf_obs.Series.stop series

let start ?process (t : t) =
  (* phase timings must not depend on Unix.gettimeofday: inject
     bechamel's CLOCK_MONOTONIC stub before anything reads the clock *)
  Sf_obs.Timer.set_clock (fun () -> Int64.to_float (Monotonic_clock.now ()) /. 1e9);
  (match t.jobs with
  | Some j when j < 1 -> invalid_arg "--jobs: need at least 1"
  | Some j -> Sf_parallel.Pool.set_default_jobs j
  | None -> ());
  (* before any domains spawn: the corpus handle is a process global *)
  Sf_store.Corpus.configure ?dir:t.corpus ();
  if t.no_obs then Sf_obs.Registry.set_enabled false;
  let telem = start_telemetry t in
  (* Sys.time sums CPU across all domains, so cpu/wall is the achieved
     parallel speedup recorded in the manifest *)
  let session sinks flight =
    { flight; sink_ids = sinks; telem; wall0 = Unix.gettimeofday (); cpu0 = Sys.time () }
  in
  match t.trace with
  | None -> session [] None
  | Some path when t.no_obs ->
    Printf.eprintf
      "observability is disabled (--no-obs); not writing an event trace to %s\n" path;
    session [] None
  | Some path ->
    (* the recorder rides along only when tracing is on, so untraced
       runs keep the stream inactive and pay nothing per event *)
    let flight = Sf_obs.Flight.create () in
    Sf_obs.Flight.arm flight
      ~trigger:(fun e -> e.Sf_obs.Trace.name = "search.gave_up")
      ~action:(fun f ->
        Printf.eprintf "flight recorder: a strategy gave up; recent events:\n";
        Sf_obs.Flight.dump f);
    (* kill -USR1 <pid> dumps the same ring, for runs that are stuck
       rather than raising *)
    ignore (Sf_obs.Flight.install_sigusr1 flight);
    let flight_id = Sf_obs.Trace.attach (Sf_obs.Flight.sink flight) in
    let file_id = Sf_obs.Trace_export.attach_file ?process path in
    session [ flight_id; file_id ] (Some flight)

let close_sinks session = List.iter Sf_obs.Trace.detach session.sink_ids

let perf_extra session =
  let wall_s = Unix.gettimeofday () -. session.wall0 in
  let cpu_s = Sys.time () -. session.cpu0 in
  [
    ("jobs", string_of_int (Sf_parallel.Pool.default_jobs ()));
    ("wall_s", Sf_obs.Export.json_float wall_s);
    ("cpu_s", Sf_obs.Export.json_float cpu_s);
    ("parallel_speedup", Sf_obs.Export.json_float (if wall_s > 0. then cpu_s /. wall_s else 1.));
  ]

(* recorded in the manifest so a warm-cache run is auditable: the
   cache.hit/miss counters say what happened, corpus_dir says where *)
let corpus_extra () =
  match Sf_store.Corpus.cache () with
  | None -> []
  | Some cache ->
    [
      ("corpus_dir", Sf_obs.Export.json_string (Sf_store.Cache.dir cache));
      ("corpus_entries", string_of_int (List.length (Sf_store.Cache.entries cache)));
      ("corpus_bytes", string_of_int (Sf_store.Cache.total_bytes cache));
    ]

(* [extra] is a thunk: manifest extras (instance sizes, strategy
   names) are typically computed inside the body, after the session
   has already started. *)
let finish (t : t) session ?(extra = fun () -> []) ~tool ~seed ~mode code =
  (* telemetry stops before the manifest is written, so the final
     rss_peak/scrape figures cover the whole body *)
  stop_telemetry session;
  close_sinks session;
  (match t.trace with
  | Some path when not t.no_obs -> Printf.printf "wrote event trace to %s\n" path
  | Some _ | None -> ());
  match t.metrics with
  | None -> code
  | Some path -> (
    match
      Sf_obs.Export.write_manifest_checked
        ~extra:
          (perf_extra session
          @ Sf_obs.Expose.manifest_extras
              ?listener:(Option.map snd session.telem)
              ()
          @ corpus_extra () @ extra ())
        ~tool ~seed ~mode ~path ()
    with
    | `Written ->
      (* stdout manifests (--metrics -) get their confirmation on
         stderr so the captured document stays clean *)
      let print = if path = "-" then Printf.eprintf else Printf.printf in
      print "wrote run manifest to %s (%d metrics)\n"
        (if path = "-" then "stdout" else path)
        (List.length (Sf_obs.Registry.names ()));
      code
    | `Skipped_disabled -> code (* the warning is already on stderr *)
    | `Error msg ->
      Printf.eprintf "cannot write run manifest: %s\n" msg;
      if code = 0 then 1 else code)

exception Bad_graph of string

let load_graph path =
  let bad msg =
    (* Sys_error and Gio's parse failures already lead with the path *)
    let prefix = path ^ ": " in
    let msg =
      if String.starts_with ~prefix msg then
        String.sub msg (String.length prefix) (String.length msg - String.length prefix)
      else msg
    in
    raise (Bad_graph (prefix ^ msg))
  in
  try Sf_store.Csr_codec.load_ugraph ~path () with
  | Sf_store.Codec_error.Error e -> bad (Sf_store.Codec_error.to_string e)
  | Sys_error msg | Failure msg -> bad msg

let with_session (t : t) ?process ?extra ~tool ~seed ~mode body =
  let session = start ?process t in
  match body () with
  | code -> finish t session ?extra ~tool ~seed ~mode code
  | exception Bad_graph msg ->
    Printf.eprintf "%s: %s\n%!" tool msg;
    finish t session ?extra ~tool ~seed ~mode 1
  | exception exn ->
    (match session.flight with
    | Some f when Sf_obs.Flight.seen f > 0 ->
      Printf.eprintf "flight recorder: run raised (%s); recent events:\n"
        (Printexc.to_string exn);
      Sf_obs.Flight.dump f
    | Some _ | None -> ());
    stop_telemetry session;
    close_sinks session;
    raise exn
