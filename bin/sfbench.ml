(* sfbench: record, compare, and gate the performance trajectory
   (doc/OBSERVABILITY.md, "Performance trajectory").

   Examples:
     sfbench record --quick                      # append BENCH_<n>.json to bench/history/
     sfbench compare bench/history/BENCH_0001.json bench/history/BENCH_0002.json
     sfbench report                              # trend table + log-scale trend plot
     sfbench gate --against bench/history/BENCH_0001.json --max-regression 10

   `gate` is the CI command: it exits non-zero on a confirmed
   regression beyond the cap, a lost benchmark, or a mode mismatch. *)

open Cmdliner

let default_dir = "bench/history"

(* the commit hash is impure context, so it enters here at the CLI
   layer and never inside lib/perf: CI exports GITHUB_SHA, local runs
   can set SFBENCH_COMMIT or pass --commit *)
let default_commit () =
  match Sys.getenv_opt "GITHUB_SHA" with
  | Some s when s <> "" -> s
  | _ -> (
    match Sys.getenv_opt "SFBENCH_COMMIT" with
    | Some s when s <> "" -> s
    | _ -> "unknown")

let default_date () =
  let tm = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec

let read_file_or_die path =
  match Sf_perf.Bench_file.read ~path with
  | Ok f -> f
  | Error msg ->
    Printf.eprintf "sfbench: %s: %s\n" path msg;
    exit 2

(* ------------------------------------------------------------------ *)
(* record                                                              *)
(* ------------------------------------------------------------------ *)

(* The full experiment registry [repeats] times on the default pool;
   per experiment, the wall-clock ns of each pass, named "exp.<id>" and
   sorted by name. Results and observability side effects are the
   deterministic ones of Registry.run_all; only the timings vary. *)
let run_phases ~quick ~seed ~repeats =
  if repeats < 1 then invalid_arg "sfbench record: need --repeats >= 1";
  let acc : (string, float list ref) Hashtbl.t = Hashtbl.create 32 in
  for _ = 1 to repeats do
    List.iter
      (fun ((entry : Sf_experiments.Registry.entry), _result, dt) ->
        let name = "exp." ^ entry.Sf_experiments.Registry.id in
        match Hashtbl.find_opt acc name with
        | Some cell -> cell := (dt *. 1e9) :: !cell
        | None -> Hashtbl.add acc name (ref [ dt *. 1e9 ]))
      (Sf_experiments.Registry.run_all ~quick ~seed Sf_experiments.Registry.all)
  done;
  Hashtbl.fold (fun name cell rows -> (name, Array.of_list (List.rev !cell)) :: rows) acc []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let record quick seed repeats out commit date (obs : Obs_cli.t) =
  let mode = if quick then "quick" else "full" in
  Obs_cli.with_session obs ~tool:"sfbench" ~seed ~mode @@ fun () ->
  let commit = match commit with Some c -> c | None -> default_commit () in
  let date = match date with Some d -> d | None -> default_date () in
  Printf.eprintf "running experiment phases (%d repeat(s))...\n%!" repeats;
  let benchmarks =
    List.map
      (fun (name, samples) -> { Sf_perf.Bench_file.name; unit_label = "ns"; samples })
      (run_phases ~quick ~seed ~repeats)
  in
  let file =
    {
      Sf_perf.Bench_file.commit;
      date;
      host = Sf_perf.Bench_file.current_host ();
      jobs = Sf_parallel.Pool.default_jobs ();
      seed;
      mode;
      benchmarks;
    }
  in
  Sf_fabric.Grid.mkdir_p out;
  let index = Sf_perf.Bench_file.next_index ~dir:out in
  let path = Filename.concat out (Sf_perf.Bench_file.filename index) in
  Sf_perf.Bench_file.write ~path file;
  print_string
    (Sf_stats.Table.render
       ~aligns:[ Sf_stats.Table.Left; Sf_stats.Table.Right; Sf_stats.Table.Right ]
       ~headers:[ "benchmark"; "samples"; "median" ]
       ~rows:
         (List.map
            (fun (b : Sf_perf.Bench_file.benchmark) ->
              [
                b.Sf_perf.Bench_file.name;
                string_of_int (Array.length b.Sf_perf.Bench_file.samples);
                Sf_perf.Compare.fmt_value ~unit_label:b.Sf_perf.Bench_file.unit_label
                  (Sf_stats.Quantile.median b.Sf_perf.Bench_file.samples);
              ])
            benchmarks)
       ());
  Printf.printf "recorded %d benchmark(s) to %s (commit %s, %s, jobs %d)\n"
    (List.length benchmarks) path commit mode
    (Sf_parallel.Pool.default_jobs ());
  0

(* ------------------------------------------------------------------ *)
(* compare                                                             *)
(* ------------------------------------------------------------------ *)

let compare_cmd_run noise_floor alpha base_path cand_path =
  let policy =
    {
      Sf_perf.Compare.default_policy with
      Sf_perf.Compare.noise_floor_pct = noise_floor;
      alpha;
    }
  in
  let base = read_file_or_die base_path and cand = read_file_or_die cand_path in
  let c = Sf_perf.Compare.files policy ~base ~cand in
  print_string (Sf_perf.Compare.render c.Sf_perf.Compare.results);
  List.iter
    (fun n -> Printf.printf "only in %s: %s\n" base_path n)
    c.Sf_perf.Compare.only_base;
  List.iter
    (fun n -> Printf.printf "only in %s: %s\n" cand_path n)
    c.Sf_perf.Compare.only_cand;
  0

(* ------------------------------------------------------------------ *)
(* report                                                              *)
(* ------------------------------------------------------------------ *)

let report dir only plot_width plot_height =
  let entries, errors = Sf_perf.History.load ~dir in
  List.iter (fun msg -> Printf.eprintf "warning: %s\n" msg) errors;
  if entries = [] then begin
    Printf.printf "%s: no BENCH_*.json history\n" dir;
    if errors = [] then 0 else 1
  end
  else begin
    print_string (Sf_perf.History.trend_table entries);
    print_newline ();
    let only = if only = [] then None else Some only in
    print_string
      (Sf_perf.History.trend_plot ~width:plot_width ~height:plot_height ?only entries);
    0
  end

(* ------------------------------------------------------------------ *)
(* gate                                                                *)
(* ------------------------------------------------------------------ *)

let newest_in dir =
  match List.rev (Sf_perf.Bench_file.list_dir ~dir) with
  | (_, path) :: _ -> path
  | [] ->
    Printf.eprintf "sfbench gate: no candidate given and %s has no BENCH_*.json\n" dir;
    exit 2

let gate against candidate dir max_regression noise_floor alpha =
  let policy =
    {
      Sf_perf.Gate.compare =
        {
          Sf_perf.Compare.default_policy with
          Sf_perf.Compare.noise_floor_pct = noise_floor;
          alpha;
        };
      max_regression_pct = max_regression;
    }
  in
  let cand_path = match candidate with Some p -> p | None -> newest_in dir in
  let base = read_file_or_die against and cand = read_file_or_die cand_path in
  Printf.printf "baseline:  %s (commit %s, %s, jobs %d)\n" against
    base.Sf_perf.Bench_file.commit base.Sf_perf.Bench_file.mode
    base.Sf_perf.Bench_file.jobs;
  Printf.printf "candidate: %s (commit %s, %s, jobs %d)\n" cand_path
    cand.Sf_perf.Bench_file.commit cand.Sf_perf.Bench_file.mode
    cand.Sf_perf.Bench_file.jobs;
  let outcome = Sf_perf.Gate.run policy ~base ~cand in
  print_string (Sf_perf.Gate.render outcome);
  if Sf_perf.Gate.passed outcome then 0 else 1

(* ------------------------------------------------------------------ *)
(* command line                                                        *)
(* ------------------------------------------------------------------ *)

let quick_arg =
  Arg.(
    value & flag
    & info [ "quick" ]
        ~doc:
          "Time the experiments at their quick scale. Quick and full recordings are \
           never gated against each other")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Master seed of the experiment phases")

let repeats_arg =
  Arg.(
    value & opt int 3
    & info [ "repeats" ] ~docv:"N"
        ~doc:"Full experiment-registry passes; each pass contributes one phase sample")

let out_arg =
  Arg.(
    value & opt string default_dir
    & info [ "out" ] ~docv:"DIR"
        ~doc:"History directory; the run is written as the next free BENCH_$(i,n).json")

let commit_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "commit" ] ~docv:"HASH"
        ~doc:
          "Commit recorded in the file. Default: $(b,GITHUB_SHA), else \
           $(b,SFBENCH_COMMIT), else $(b,unknown)")

let date_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "date" ] ~docv:"ISO8601" ~doc:"Timestamp recorded in the file. Default: now (UTC)")

let dir_arg =
  Arg.(
    value & opt string default_dir
    & info [ "dir" ] ~docv:"DIR" ~doc:"History directory of BENCH_*.json files")

let noise_floor_arg =
  Arg.(
    value
    & opt float Sf_perf.Compare.default_policy.Sf_perf.Compare.noise_floor_pct
    & info [ "noise-floor" ] ~docv:"PCT"
        ~doc:"Median drifts below this magnitude are always classified unchanged")

let alpha_arg =
  Arg.(
    value
    & opt float Sf_perf.Compare.default_policy.Sf_perf.Compare.alpha
    & info [ "alpha" ] ~docv:"A" ~doc:"Mann-Whitney significance level")

let record_cmd =
  Cmd.v
    (Cmd.info "record"
       ~doc:"run the benchmark suite and append a BENCH_<n>.json to the history")
    Term.(
      const record $ quick_arg $ seed_arg $ repeats_arg $ out_arg $ commit_arg $ date_arg
      $ Obs_cli.term)

let compare_cmd =
  let base =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BASE" ~doc:"Baseline BENCH file")
  in
  let cand =
    Arg.(
      required & pos 1 (some string) None & info [] ~docv:"CANDIDATE" ~doc:"Candidate BENCH file")
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"statistically compare two recorded BENCH files")
    Term.(const compare_cmd_run $ noise_floor_arg $ alpha_arg $ base $ cand)

let report_cmd =
  let only =
    Arg.(
      value & opt_all string []
      & info [ "only" ] ~docv:"NAME" ~doc:"Restrict the trend plot to these benchmarks (repeatable)")
  in
  let width = Arg.(value & opt int 72 & info [ "plot-width" ] ~docv:"COLS" ~doc:"Trend plot width") in
  let height =
    Arg.(value & opt int 24 & info [ "plot-height" ] ~docv:"ROWS" ~doc:"Trend plot height")
  in
  Cmd.v
    (Cmd.info "report" ~doc:"render the trend table and plot of the recorded history")
    Term.(const report $ dir_arg $ only $ width $ height)

let gate_cmd =
  let against =
    Arg.(
      required
      & opt (some string) None
      & info [ "against" ] ~docv:"FILE" ~doc:"Baseline BENCH file the candidate must not regress")
  in
  let candidate =
    Arg.(
      value
      & opt (some string) None
      & info [ "candidate" ] ~docv:"FILE"
          ~doc:"Candidate BENCH file. Default: the newest file in $(b,--dir)")
  in
  let max_regression =
    Arg.(
      value
      & opt float Sf_perf.Gate.default_policy.Sf_perf.Gate.max_regression_pct
      & info [ "max-regression" ] ~docv:"PCT"
          ~doc:"Confirmed median slowdowns beyond this fail the gate")
  in
  Cmd.v
    (Cmd.info "gate"
       ~doc:
         "fail (exit 1) if the candidate confirms a regression beyond the cap, lost a \
          benchmark, or mixes modes")
    Term.(
      const gate $ against $ candidate $ dir_arg $ max_regression $ noise_floor_arg
      $ alpha_arg)

let cmd =
  let doc = "record, compare, and gate the repository's performance trajectory" in
  Cmd.group (Cmd.info "sfbench" ~doc) [ record_cmd; compare_cmd; report_cmd; gate_cmd ]

let () = exit (Cmd.eval' cmd)
