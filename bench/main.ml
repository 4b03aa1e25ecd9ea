(* The full benchmark harness.

   Part 1 prints the paper-verification certificate and regenerates
   every experiment table of EXPERIMENTS.md (T1-T22)
   and reports each table's shape checks - the paper's qualitative
   claims.  Part 2 runs bechamel microbenchmarks of the hot paths
   behind those tables.

   Usage:
     main.exe                 full experiments + microbenchmarks
     main.exe --quick         reduced sizes (CI-speed) + baseline shape check
     main.exe --only T1,T5    a subset of experiments
     main.exe --seed 42       change the master seed
     main.exe --no-micro      skip the microbenchmarks
     main.exe --no-exp        skip the experiment tables
     main.exe --metrics F     write the obs.json run manifest to F
                              (- writes it to stdout)
     main.exe --no-obs        disable all instrumentation
     main.exe --trace F       write the event trace to F (.jsonl
                              streams; else Perfetto JSON)
     main.exe --progress      live per-experiment progress on stderr
     main.exe --jobs N        worker domains for the experiment fan-out
                              and the trial grids inside experiments
     main.exe --workers N     worker processes for the experiment
                              fan-out (the fabric swarm) instead of
                              the --jobs domain pool; same tables,
                              same shape checks
     main.exe --corpus DIR    content-addressed graph corpus cache
                              (default: SCALEFREE_CORPUS if set)
     main.exe --baseline F    metric-name baseline for --quick
                              (default bench/baseline_quick.json)
     main.exe --telemetry P   serve live telemetry on a unix socket at P
                              (default: SCALEFREE_TELEMETRY if set);
                              attach with sftop P
     main.exe --telemetry-tick S
                              telemetry sampling period (default 0.5) *)

type options = {
  quick : bool;
  ids : string list option;
  seed : int;
  micro : bool;
  experiments : bool;
  metrics : string option;
  obs : bool;
  trace : string option;
  progress : bool;
  jobs : int;
  workers : int;
  worker_connect : string option;
  corpus : string option;
  baseline : string;
  telemetry : string option;
  telemetry_tick : float;
}

let parse_args () =
  let quick = ref false
  and only = ref ""
  and seed = ref 20070615
  and micro = ref true
  and experiments = ref true
  and metrics = ref ""
  and obs = ref true
  and trace = ref ""
  and progress = ref false
  and jobs = ref 0
  and workers = ref 0
  and worker_connect = ref ""
  and corpus = ref ""
  and baseline = ref "bench/baseline_quick.json"
  and telemetry = ref ""
  and telemetry_tick = ref 0.5 in
  let spec =
    [
      ("--quick", Arg.Set quick, "reduced problem sizes");
      ("--only", Arg.Set_string only, "comma-separated experiment ids (e.g. T1,T5)");
      ("--seed", Arg.Set_int seed, "master seed (default 20070615)");
      ("--no-micro", Arg.Clear micro, "skip microbenchmarks");
      ("--no-exp", Arg.Clear experiments, "skip experiment tables");
      ( "--metrics",
        Arg.Set_string metrics,
        "write the obs.json run manifest to FILE (- for stdout)" );
      ("--no-obs", Arg.Clear obs, "disable all instrumentation (no counters, no manifest)");
      ( "--trace",
        Arg.Set_string trace,
        "write the event trace to FILE (.jsonl streams; else Perfetto JSON)" );
      ("--progress", Arg.Set progress, "live per-experiment progress on stderr");
      ( "--jobs",
        Arg.Set_int jobs,
        "worker domains for the parallel sections (default: SCALEFREE_JOBS or the \
         recommended domain count, capped at 8); output is identical at any value" );
      ( "--workers",
        Arg.Set_int workers,
        "worker processes for the experiment fan-out (the fabric swarm, \
         doc/FABRIC.md) instead of the --jobs domain pool; tables, shape checks \
         and counter totals are identical either way" );
      ( "--worker-connect",
        Arg.Set_string worker_connect,
        "internal: run as an experiment worker attached to the coordinator socket \
         at PATH (spawned by --workers)" );
      ( "--corpus",
        Arg.Set_string corpus,
        "content-addressed graph corpus cache directory (doc/STORAGE.md; default: \
         SCALEFREE_CORPUS if set); generated instance graphs are stored and replayed \
         with byte-identical results" );
      ( "--baseline",
        Arg.Set_string baseline,
        "metric-name baseline diffed against in --quick mode" );
      ( "--telemetry",
        Arg.Set_string telemetry,
        "serve live telemetry on a unix-domain socket at PATH while the run is in \
         flight (doc/OBSERVABILITY.md; attach with sftop PATH; default: \
         SCALEFREE_TELEMETRY if set)" );
      ( "--telemetry-tick",
        Arg.Set_float telemetry_tick,
        "background sampling period of the telemetry time series (default 0.5)" );
    ]
  in
  Arg.parse spec (fun s -> raise (Arg.Bad ("unexpected argument " ^ s))) "bench/main.exe";
  let ids =
    if !only = "" then None
    else Some (String.split_on_char ',' !only |> List.map String.trim)
  in
  {
    quick = !quick;
    ids;
    seed = !seed;
    micro = !micro;
    experiments = !experiments;
    metrics = (if !metrics = "" then None else Some !metrics);
    obs = !obs;
    trace = (if !trace = "" then None else Some !trace);
    progress = !progress;
    jobs = !jobs;
    workers = !workers;
    worker_connect = (if !worker_connect = "" then None else Some !worker_connect);
    corpus = (if !corpus = "" then None else Some !corpus);
    baseline = !baseline;
    telemetry =
      (if !telemetry <> "" then Some !telemetry
       else
         match Sys.getenv_opt "SCALEFREE_TELEMETRY" with
         | Some "" | None -> None
         | Some _ as p -> p);
    telemetry_tick = !telemetry_tick;
  }

(* ------------------------------------------------------------------ *)
(* Part 1: experiment tables                                           *)
(* ------------------------------------------------------------------ *)

let run_experiments ~quick ~seed ~progress ~workers ~corpus ids =
  let selected =
    match ids with
    | None -> Sf_experiments.Registry.all
    | Some wanted ->
      List.filter_map
        (fun id ->
          match Sf_experiments.Registry.find id with
          | Some e -> Some e
          | None ->
            Printf.eprintf "unknown experiment id %s (known: %s)\n" id
              (String.concat ", " (Sf_experiments.Registry.ids ()));
            None)
        wanted
  in
  let failures = ref 0 in
  let reporter =
    if progress then
      Some (Sf_obs.Progress.create ~label:"experiments" ~total:(List.length selected) ())
    else None
  in
  (* the fan-out: one pool task per experiment (or, with --workers, one
     fabric swarm job per experiment in its own process), results
     printed in registry order after the join — tables and checks are
     independent of the job and worker counts; only the [%.1fs] stamps
     (that experiment's own wall time, measured inside the task) vary
     run to run, and the distributed path omits them *)
  let results =
    if workers > 0 && List.length selected > 1 then begin
      let sock_path =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "sfbench-grid-%d.sock" (Unix.getpid ()))
      in
      let argv =
        [ Sys.executable_name; "--worker-connect"; sock_path; "--seed"; string_of_int seed ]
        @ (if quick then [ "--quick" ] else [])
        @ (match corpus with Some d -> [ "--corpus"; d ] | None -> [])
      in
      let spawn () = Sf_fabric.Swarm.spawn_exec (Array.of_list argv) in
      List.map
        (fun (e, r) -> (e, r, None))
        (Sf_experiments.Distrib.run_all_processes ~sock_path ~workers ~spawn selected)
    end
    else
      List.map (fun (e, r, dt) -> (e, r, Some dt)) (Sf_experiments.Registry.run_all ~quick ~seed selected)
  in
  List.iter
    (fun ((_ : Sf_experiments.Registry.entry), result, dt) ->
      (match dt with
      | Some dt ->
        Printf.printf "\n######## %s - %s  [%.1fs]\n\n" result.Sf_experiments.Exp.id
          result.Sf_experiments.Exp.title dt
      | None ->
        Printf.printf "\n######## %s - %s\n\n" result.Sf_experiments.Exp.id
          result.Sf_experiments.Exp.title);
      print_string result.Sf_experiments.Exp.output;
      print_newline ();
      List.iter
        (fun (name, ok) ->
          if not ok then incr failures;
          Printf.printf "  [%s] %s\n" (if ok then "ok" else "SHAPE MISMATCH") name)
        result.Sf_experiments.Exp.checks;
      flush stdout;
      Option.iter
        (fun pr -> Sf_obs.Progress.step pr ~detail:result.Sf_experiments.Exp.id)
        reporter)
    results;
  Option.iter Sf_obs.Progress.finish reporter;
  Printf.printf "\n================================================================\n";
  if !failures = 0 then
    Printf.printf "All shape checks passed across %d experiments.\n" (List.length selected)
  else Printf.printf "%d shape check(s) FAILED.\n" !failures;
  flush stdout

(* ------------------------------------------------------------------ *)
(* Part 2: bechamel microbenchmarks                                    *)
(* ------------------------------------------------------------------ *)

open Bechamel

let run_microbenchmarks ~quick =
  Printf.printf "\n######## Microbenchmarks (bechamel, monotonic clock)\n\n%!";
  (* the definitions live in Sf_perf.Suite so that `sfbench record`
     times exactly the same closures with the same configuration *)
  let tests = Sf_perf.Suite.tests ~quick in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Sf_perf.Suite.micro_cfg ~quick in
  let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"sf" tests) in
  let results = Analyze.all ols instance raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (est :: _) -> est
        | _ -> nan
      in
      let r2 = Option.value ~default:nan (Analyze.OLS.r_square ols_result) in
      rows := (name, ns, r2) :: !rows)
    results;
  let rows = List.sort (fun (a, _, _) (b, _, _) -> compare a b) !rows in
  let fmt_time ns =
    if Float.is_nan ns then "-"
    else if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
    else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
    else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
    else Printf.sprintf "%.0f ns" ns
  in
  print_string
    (Sf_stats.Table.render
       ~aligns:[ Sf_stats.Table.Left; Sf_stats.Table.Right; Sf_stats.Table.Right ]
       ~headers:[ "benchmark"; "time/run"; "r2" ]
       ~rows:
         (List.map (fun (name, ns, r2) -> [ name; fmt_time ns; Printf.sprintf "%.3f" r2 ]) rows)
       ())

(* ------------------------------------------------------------------ *)
(* Part 3: the run manifest and the baseline shape check               *)
(* ------------------------------------------------------------------ *)

let write_manifest opts ~wall0 ~cpu0 ~telem path =
  let wall_s = Unix.gettimeofday () -. wall0 in
  let cpu_s = Sys.time () -. cpu0 in
  let extra =
    [
      ("timestamp_s", Sf_obs.Export.json_float (Unix.time ()));
      ("quick", string_of_bool opts.quick);
      ("jobs", string_of_int (Sf_parallel.Pool.default_jobs ()));
      ("wall_s", Sf_obs.Export.json_float wall_s);
      ("cpu_s", Sf_obs.Export.json_float cpu_s);
      (* Sys.time sums CPU across domains, so cpu/wall is the achieved
         parallel speedup of the whole run *)
      ( "parallel_speedup",
        Sf_obs.Export.json_float (if wall_s > 0. then cpu_s /. wall_s else 1.) );
    ]
    @ Sf_obs.Expose.manifest_extras ?listener:(Option.map snd telem) ()
    @
    (* a warm-cache run is auditable from the manifest alone: cache.hit
       / cache.miss say what happened, corpus_dir says where *)
    (match Sf_store.Corpus.cache () with
    | None -> []
    | Some cache ->
      [
        ("corpus_dir", Sf_obs.Export.json_string (Sf_store.Cache.dir cache));
        ("corpus_entries", string_of_int (List.length (Sf_store.Cache.entries cache)));
        ("corpus_bytes", string_of_int (Sf_store.Cache.total_bytes cache));
      ])
  in
  match
    Sf_obs.Export.write_manifest_checked ~extra ~tool:"bench/main.exe" ~seed:opts.seed
      ~mode:(if opts.quick then "quick" else "full")
      ~path ()
  with
  | `Written ->
    (* the confirmation goes to stderr when the manifest itself went to
       stdout (--metrics -) *)
    let print = if path = "-" then Printf.eprintf else Printf.printf in
    print "wrote run manifest to %s (%d metrics, %d top-level spans)\n"
      (if path = "-" then "stdout" else path)
      (List.length (Sf_obs.Registry.names ()))
      (List.length (Sf_obs.Span.roots ()))
  | `Skipped_disabled -> () (* the warning is already on stderr *)
  | `Error msg ->
    Printf.eprintf "cannot write run manifest: %s\n" msg;
    exit 1

(* Shape check only: every metric name of the committed baseline must
   have been registered by this run — a missing name means an
   instrumentation site was lost.  Values and timings are never
   compared.  Extra names are fine (new instrumentation lands before
   the baseline is refreshed).  A baseline that does not parse, or has
   no "metrics" object, fails the check. *)
let baseline_metric_names path =
  let module Json = Sf_obs.Json in
  match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Error msg -> Error ("not valid JSON: " ^ msg)
  | Ok doc -> (
    match Json.member "metrics" doc with
    | Some (Json.Obj fields) -> Ok (List.map fst fields)
    | _ -> Error "no \"metrics\" object")

let baseline_shape_check path =
  if not (Sys.file_exists path) then begin
    Printf.printf "baseline %s not found; skipping the metric shape check\n" path;
    true
  end
  else
    match baseline_metric_names path with
    | Error msg ->
      Printf.printf "baseline %s: %s\n" path msg;
      false
    | Ok wanted ->
      let have = Sf_obs.Registry.names () in
      let missing = List.filter (fun n -> not (List.mem n have)) wanted in
      let extra = List.filter (fun n -> not (List.mem n wanted)) have in
      if extra <> [] then
        Printf.printf "baseline: %d new metric(s) not yet in %s: %s\n" (List.length extra) path
          (String.concat ", " extra);
      if missing = [] then begin
        Printf.printf "baseline: all %d metric names from %s present.\n" (List.length wanted)
          path;
        true
      end
      else begin
        Printf.printf "baseline: %d metric name(s) MISSING vs %s: %s\n" (List.length missing)
          path (String.concat ", " missing);
        false
      end

(* The [--trace] sinks: the file exporter plus a flight recorder armed
   to dump on the first gave-up run; the top-level handler below dumps
   it again if the harness raises. *)
let attach_trace_sinks opts =
  match opts.trace with
  | None -> (None, [])
  | Some path when not opts.obs ->
    Printf.eprintf
      "observability is disabled (--no-obs); not writing an event trace to %s\n" path;
    (None, [])
  | Some path ->
    let flight = Sf_obs.Flight.create () in
    Sf_obs.Flight.arm flight
      ~trigger:(fun e -> e.Sf_obs.Trace.name = "search.gave_up")
      ~action:(fun f ->
        Printf.eprintf "flight recorder: a strategy gave up; recent events:\n";
        Sf_obs.Flight.dump f);
    (* kill -USR1 <pid> dumps the same ring for stuck runs *)
    ignore (Sf_obs.Flight.install_sigusr1 flight);
    ( Some flight,
      [ Sf_obs.Trace.attach (Sf_obs.Flight.sink flight); Sf_obs.Trace_export.attach_file path ]
    )

(* The --telemetry bracket: a Series sampler plus the socket listener,
   stopped before the manifest is written so the final rss_peak and
   scrape figures cover the whole run. *)
let start_telemetry opts =
  match opts.telemetry with
  | None -> None
  | Some path when not opts.obs ->
    Printf.eprintf
      "observability is disabled (--no-obs); not serving telemetry on %s\n" path;
    None
  | Some path ->
    let series = Sf_obs.Series.create ~tick_s:opts.telemetry_tick () in
    let listener = Sf_obs.Expose.serve ~series ~path () in
    Sf_obs.Series.start series;
    Printf.eprintf "serving live telemetry on %s (attach with: sftop %s)\n%!" path path;
    Some (series, listener)

let stop_telemetry = function
  | None -> ()
  | Some (series, listener) ->
    Sf_obs.Expose.stop listener;
    Sf_obs.Series.stop series

let () =
  let opts = parse_args () in
  (* all phase timings (Timer, Span, manifest wall_s) read bechamel's
     CLOCK_MONOTONIC stub instead of Unix.gettimeofday from here on *)
  Sf_obs.Timer.set_clock (fun () -> Int64.to_float (Monotonic_clock.now ()) /. 1e9);
  (match opts.worker_connect with
  | Some connect ->
    (* an experiment worker spawned by --workers: serve assignments and
       exit without touching the harness machinery *)
    Sf_store.Corpus.configure ?dir:opts.corpus ();
    (match Sf_experiments.Distrib.worker_main ~connect ~quick:opts.quick ~seed:opts.seed with
    | () -> exit 0
    | exception e ->
      Printf.eprintf "bench worker: %s\n" (Printexc.to_string e);
      exit 1)
  | None -> ());
  let wall0 = Unix.gettimeofday () and cpu0 = Sys.time () in
  if opts.jobs <> 0 then Sf_parallel.Pool.set_default_jobs opts.jobs;
  (* before any domains spawn: the corpus handle is a process global *)
  Sf_store.Corpus.configure ?dir:opts.corpus ();
  if not opts.obs then Sf_obs.Registry.set_enabled false;
  let flight, sink_ids = attach_trace_sinks opts in
  let telem = start_telemetry opts in
  let close_trace () =
    List.iter Sf_obs.Trace.detach sink_ids;
    match opts.trace with
    | Some path when opts.obs -> Printf.printf "wrote event trace to %s\n" path
    | Some _ | None -> ()
  in
  Printf.printf "Non-searchability of random scale-free graphs - experiment harness\n";
  Printf.printf "mode: %s, seed: %d, jobs: %d%s\n"
    (if opts.quick then "quick" else "full")
    opts.seed
    (Sf_parallel.Pool.default_jobs ())
    (if opts.obs then "" else ", observability off");
  (try
     if opts.experiments && opts.ids = None then
       Sf_obs.Span.with_span "verify" (fun () ->
           (* the statement-by-statement certificate heads the full run *)
           let reports = Sf_core.Paper.verify ~seed:opts.seed in
           print_newline ();
           print_string (Sf_core.Paper.render reports);
           if not (Sf_core.Paper.all_pass reports) then
             print_endline "WARNING: some paper statements failed their self-check.");
     if opts.experiments then
       Sf_obs.Span.with_span "experiments" (fun () ->
           run_experiments ~quick:opts.quick ~seed:opts.seed ~progress:opts.progress
             ~workers:opts.workers ~corpus:opts.corpus opts.ids);
     if opts.micro then
       Sf_obs.Span.with_span "microbench" (fun () -> run_microbenchmarks ~quick:opts.quick)
   with exn ->
     (match flight with
     | Some f when Sf_obs.Flight.seen f > 0 ->
       Printf.eprintf "flight recorder: run raised (%s); recent events:\n"
         (Printexc.to_string exn);
       Sf_obs.Flight.dump f
     | Some _ | None -> ());
     stop_telemetry telem;
     close_trace ();
     (* a partial trace file is still written *)
     raise exn);
  stop_telemetry telem;
  close_trace ();
  Option.iter (write_manifest opts ~wall0 ~cpu0 ~telem) opts.metrics;
  let shape_ok =
    (* the check needs the full default metric surface: skip it when a
       subset of the work ran, or when instrumentation is off *)
    if opts.quick && opts.obs && opts.ids = None && opts.experiments && opts.micro then
      baseline_shape_check opts.baseline
    else true
  in
  if not shape_ok then exit 1
