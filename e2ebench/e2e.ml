(* e2e: the end-to-end benchmark (README.md in this directory).

     e2e --workload NAME|all --seed S [--seconds N] [--trace 0|1|FILE] [--smoke]
         [--bin-dir DIR] [--record FILE]

   Runs the real sfgen, sfserve and sffabric binaries as children,
   drives them, checks their outputs, and prints every metric as
   "workload metric value unit" (with "n=" for a percentile's sample
   count), then one JSON result line. A traced run (--trace 1 or FILE)
   also replays the workload in-process with a span around every layer
   call, reports the per-layer metrics, and writes the spans as
   Perfetto JSON. Exits 1 when any check fails. *)

let workloads =
  List.map (fun (t : Serve_wl.t) -> t.Serve_wl.name) Serve_wl.all @ [ Fabric_wl.name ]

let run_one env name ~spans_out =
  match List.find_opt (fun (t : Serve_wl.t) -> t.Serve_wl.name = name) Serve_wl.all with
  | Some t -> Serve_wl.run env t ~spans_out
  | None -> Fabric_wl.run env ~spans_out

let git_head () =
  match Unix.open_process_args_in "git" [| "git"; "rev-parse"; "HEAD" |] with
  | ic ->
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    if Unix.close_process_in ic = Unix.WEXITED 0 && line <> "" then line else "unknown"
  | exception Unix.Unix_error _ -> "unknown"

(* Runs per workload that --record writes. *)
let record_runs = 3

(* A scalefree.bench/1 file at [path]: every end-to-end metric of every
   run as a lower-is-better series (mode "e2e", so sfbench gate never
   compares it with the microbenchmark files). *)
let record ~path ~seed reports =
  let module B = Sf_perf.Bench_file in
  let benchmarks =
    List.concat_map
      (fun name ->
        List.filter_map
          (fun metric ->
            let series =
              List.filter_map
                (fun (r : Report.t) ->
                  if r.Report.workload = name then Report.history_sample r metric else None)
                reports
            in
            match series with
            | [] -> None
            | (unit_label, _) :: _ ->
              Some
                { B.name = Printf.sprintf "e2e/%s: %s" name metric; unit_label;
                  samples = Array.concat (List.map snd series) })
          Report.e2e_names)
      workloads
  in
  let tm = Unix.gmtime (Unix.time ()) in
  let file =
    { B.commit = git_head ();
      date =
        Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
          tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec;
      host = B.current_host (); jobs = 2; seed; mode = "e2e"; benchmarks }
  in
  Util.mkdir_p (Filename.dirname path);
  B.write ~path file;
  Printf.eprintf "recorded %d series to %s\n%!" (List.length benchmarks) path

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30. and trace = ref "0" in
  let smoke = ref false and bins = ref "_build/default/bin" in
  let record_path = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME|all  " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "S  workload seed (graphs, request plans, grids)");
      ("--seconds", Arg.Set_float seconds, "N  measured length of a run (default 30)");
      ("--trace", Arg.Set_string trace, "0|1|FILE  traced run; spans to FILE or WORK/trace.<workload>.json");
      ("--smoke", Arg.Set smoke, " 1/50 of the length, every check still on");
      ("--bin-dir", Arg.Set_string bins, "DIR  where sfgen.exe, sfserve.exe, sffabric.exe live");
      ( "--record",
        Arg.Set_string record_path,
        "FILE  run each workload 3 times; write the end-to-end metrics as a BENCH file" );
    ]
  in
  let usage = "e2e --workload NAME|all --seed S [options]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let names = if !workload = "all" then workloads else [ !workload ] in
  if not (List.for_all (fun n -> List.mem n workloads) names) then begin
    prerr_endline ("e2e: --workload must be one of: all, " ^ String.concat ", " workloads);
    exit 2
  end;
  List.iter
    (fun b ->
      if not (Sys.file_exists (Filename.concat !bins (b ^ ".exe"))) then begin
        Printf.eprintf "e2e: %s.exe not found in %s (build it, or pass --bin-dir)\n" b !bins;
        exit 2
      end)
    [ "sfgen"; "sfserve"; "sffabric" ];
  Sf_obs.Timer.set_clock Util.now;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let bail _ = exit 3 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle bail);
  Sys.set_signal Sys.sigint (Sys.Signal_handle bail);
  at_exit Util.reap_all;
  (* graphs, sockets, logs and run directories, inside dune's build
     directory, which the checkout already ignores *)
  let work = "_build/e2ebench" in
  Util.mkdir_p work;
  let traced = !trace <> "0" && !record_path = "" in
  let env =
    { Util.bins = !bins; work; seed = !seed;
      seconds = (if !smoke then !seconds /. 50. else !seconds); smoke = !smoke; traced }
  in
  let spans_out name =
    match !trace with
    | "0" | "1" -> Util.in_work env (Printf.sprintf "trace.%s.json" name)
    | file when List.length names = 1 -> file
    | file -> Printf.sprintf "%s.%s.json" (Filename.remove_extension file) name
  in
  let runs = if !record_path = "" then 1 else record_runs in
  let reports =
    List.concat_map
      (fun name ->
        List.init runs (fun _ ->
            let r =
              try run_one env name ~spans_out:(spans_out name)
              with e ->
                Printf.eprintf "e2e: %s failed: %s\n%!" name (Printexc.to_string e);
                exit 1
            in
            List.iter print_endline (Report.lines ~checks_only:!smoke r);
            flush stdout;
            r))
      names
  in
  if !record_path <> "" then record ~path:!record_path ~seed:!seed reports;
  (* with --record, the result line carries each workload's first run *)
  print_endline (Report.result_json ~traced (List.filteri (fun i _ -> i mod runs = 0) reports));
  exit (if List.for_all Report.correct reports then 0 else 1)
