(* sfexp: run one experiment (or all) from the registry by id.

   Examples:
     sfexp list
     sfexp run T5
     sfexp run T1 --quick --seed 99
     sfexp run all *)

open Cmdliner

let list_experiments () =
  List.iter
    (fun (e : Sf_experiments.Registry.entry) ->
      Printf.printf "%-4s %s\n" e.Sf_experiments.Registry.id e.Sf_experiments.Registry.title)
    Sf_experiments.Registry.all;
  0

let print_result (result : Sf_experiments.Exp.result) =
  Printf.printf "\n######## %s - %s\n\n" result.Sf_experiments.Exp.id
    result.Sf_experiments.Exp.title;
  print_string result.Sf_experiments.Exp.output;
  print_newline ();
  List.iter
    (fun (name, ok) -> Printf.printf "  [%s] %s\n" (if ok then "ok" else "SHAPE MISMATCH") name)
    result.Sf_experiments.Exp.checks;
  Sf_experiments.Exp.all_pass result

(* --workers > 1: fan the experiments out across worker processes on
   the fabric swarm instead of the --jobs domain pool; same results,
   same output bytes, same counter totals (doc/PARALLELISM.md) *)
let run_distributed ~workers ~quick ~seed (obs : Obs_cli.t) entries =
  let sock_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "sfexp-%d.sock" (Unix.getpid ()))
  in
  let argv =
    [ Sys.executable_name; "worker"; "--connect"; sock_path; "--seed"; string_of_int seed ]
    @ (if quick then [ "--quick" ] else [])
    @ (match obs.Obs_cli.corpus with Some d -> [ "--corpus"; d ] | None -> [])
  in
  let spawn () = Sf_fabric.Swarm.spawn_exec (Array.of_list argv) in
  Sf_experiments.Distrib.run_all_processes ~sock_path ~workers ~spawn entries

let run_experiment id quick seed workers (obs : Obs_cli.t) =
  Obs_cli.with_session obs ~tool:"sfexp"
    ~extra:(fun () -> [ ("experiment", Sf_obs.Export.json_string id) ])
    ~seed
    ~mode:(if quick then "quick" else "full")
  @@ fun () ->
  let entries =
    if String.lowercase_ascii id = "all" then Some Sf_experiments.Registry.all
    else
      match Sf_experiments.Registry.find id with
      | Some e -> Some [ e ]
      | None -> None
  in
  match entries with
  | None ->
    Printf.eprintf "unknown experiment %s; try 'sfexp list'\n" id;
    1
  | Some entries ->
    let progress =
      if obs.Obs_cli.progress then
        Some (Sf_obs.Progress.create ~label:"experiments" ~total:(List.length entries) ())
      else None
    in
    let results =
      match entries with
      | [ e ] ->
        (* one experiment runs on the calling domain, so its exp.<id>
           span still lands in the manifest's span forest *)
        [ (e, e.Sf_experiments.Registry.run ~quick ~seed) ]
      | entries when workers > 0 ->
        (* worker processes over the fabric swarm *)
        run_distributed ~workers ~quick ~seed obs entries
      | entries ->
        (* 'all' fans out across the --jobs pool; output order and
           bytes are independent of the job count *)
        List.map
          (fun (e, result, _elapsed) -> (e, result))
          (Sf_experiments.Registry.run_all ~quick ~seed entries)
    in
    let ok =
      List.for_all
        (fun ((e : Sf_experiments.Registry.entry), result) ->
          let ok = print_result result in
          Option.iter
            (fun pr -> Sf_obs.Progress.step pr ~detail:e.Sf_experiments.Registry.id)
            progress;
          ok)
        results
    in
    Option.iter Sf_obs.Progress.finish progress;
    if ok then 0 else 2

let id_arg =
  let ids = String.concat ", " (Sf_experiments.Registry.ids ()) in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"ID"
         ~doc:(Printf.sprintf "Experiment id (%s) or 'all'" ids))
let quick_arg = Arg.(value & flag & info [ "quick" ] ~doc:"Reduced problem sizes")
let seed_arg = Arg.(value & opt int 20070615 & info [ "seed" ] ~doc:"Master seed")

let workers_arg =
  Arg.(value & opt int 0 & info [ "workers" ] ~docv:"N"
         ~doc:"Run 'all' on N worker processes (the fabric swarm) instead of the --jobs \
               domain pool. Same results, same bytes.")

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:"run an experiment by id")
    Term.(const run_experiment $ id_arg $ quick_arg $ seed_arg $ workers_arg $ Obs_cli.term)

(* internal: one experiment worker process, spawned by run --workers *)
let worker_main connect quick seed corpus =
  Sf_store.Corpus.configure ?dir:corpus ();
  match Sf_experiments.Distrib.worker_main ~connect ~quick ~seed with
  | () -> 0
  | exception e ->
    Printf.eprintf "sfexp worker: %s\n" (Printexc.to_string e);
    1

let worker_cmd =
  let connect_arg =
    Arg.(required & opt (some string) None & info [ "connect" ] ~docv:"PATH"
           ~doc:"Coordinator control socket.")
  in
  let corpus_arg =
    Arg.(value & opt (some string) None & info [ "corpus" ] ~docv:"DIR"
           ~doc:"Content-addressed graph corpus cache.")
  in
  Cmd.v
    (Cmd.info "worker" ~doc:"internal: an experiment worker process (spawned by run --workers)")
    Term.(const worker_main $ connect_arg $ quick_arg $ seed_arg $ corpus_arg)

let list_cmd = Cmd.v (Cmd.info "list" ~doc:"list experiment ids") Term.(const list_experiments $ const ())

let verify_statements seed =
  let reports = Sf_core.Paper.verify ~seed in
  print_string (Sf_core.Paper.render reports);
  if Sf_core.Paper.all_pass reports then begin
    Printf.printf "All %d statements verified.\n" (List.length reports);
    0
  end
  else begin
    Printf.printf "Some statements FAILED verification.\n";
    2
  end

let verify_cmd =
  Cmd.v
    (Cmd.info "verify" ~doc:"run the statement-by-statement paper verification certificate")
    Term.(const verify_statements $ seed_arg)

let cmd =
  let doc = "reproduce the paper's experiment tables" in
  Cmd.group (Cmd.info "sfexp" ~doc) [ list_cmd; run_cmd; verify_cmd; worker_cmd ]

let () = exit (Cmd.eval' cmd)
