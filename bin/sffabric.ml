(* sffabric: the distributed experiment fabric (doc/FABRIC.md).

   A run directory holds the persisted grid plan, one resumable
   checkpoint per shard, and the merged outputs.  The outputs are
   byte-identical at any --workers count and across any crash/resume
   history — including runs where --fault-rate SIGKILLs workers
   mid-shard.

   Examples:
     sffabric run --dir /tmp/fab --sizes 256,512 --strategies high-degree,rand-walk \
       --trials 16 --workers 4
     sffabric run --dir /tmp/fab2 --workers 4 --fault-rate 0.2   # survives its own crashes
     sffabric status --dir /tmp/fab
     sffabric resume --dir /tmp/fab --workers 8 *)

open Cmdliner
module Fab = Sf_fabric

let split_commas s = String.split_on_char ',' s |> List.filter (fun x -> x <> "")

let sizes_conv =
  let parse s =
    try Ok (List.map int_of_string (split_commas s))
    with Failure _ -> Error (`Msg (Printf.sprintf "bad size list %S" s))
  in
  Arg.conv (parse, fun ppf v -> Format.pp_print_string ppf (String.concat "," (List.map string_of_int v)))

let strings_conv =
  Arg.conv
    ( (fun s -> Ok (split_commas s)),
      fun ppf v -> Format.pp_print_string ppf (String.concat "," v) )

(* --- grid flags (run only; resume/status read the persisted plan) --- *)

let model_arg =
  Arg.(value & opt string "mori" & info [ "model" ] ~docv:"MODEL"
         ~doc:"Graph model: mori | cooper-frieze | config.")

let p_arg = Arg.(value & opt float 0.5 & info [ "p" ] ~doc:"Mori preferential-attachment weight")
let m_arg = Arg.(value & opt int 1 & info [ "m" ] ~doc:"Mori out-degree / merge factor")
let alpha_arg = Arg.(value & opt float 0.5 & info [ "alpha" ] ~doc:"Cooper-Frieze NEW-step probability")
let exponent_arg = Arg.(value & opt float 2.3 & info [ "exponent" ] ~doc:"Configuration-model exponent")

let sizes_arg =
  Arg.(value & opt sizes_conv [ 256; 512 ] & info [ "sizes" ] ~docv:"N,N,..."
         ~doc:"Comma-separated graph sizes.")

let strategies_arg =
  Arg.(value & opt strings_conv [ "high-degree"; "rand-walk" ]
       & info [ "strategies" ] ~docv:"S,S,..." ~doc:"Comma-separated strategy names.")

let trials_arg = Arg.(value & opt int 16 & info [ "trials" ] ~doc:"Trials per (size, strategy) cell")

let metric_arg =
  Arg.(value & opt (enum [ ("neighbor", `Neighbor); ("target", `Target) ]) `Neighbor
       & info [ "metric" ] ~doc:"Success metric: reach a neighbor of the target, or the target itself.")

let source_arg =
  Arg.(value & opt (enum [ ("oldest", `Oldest); ("random", `Random) ]) `Oldest
       & info [ "source" ] ~doc:"Search source vertex: oldest | random.")

let budget_mul_arg = Arg.(value & opt int 4 & info [ "budget-mul" ] ~doc:"Request budget: MUL*n + ADD")
let budget_add_arg = Arg.(value & opt int 0 & info [ "budget-add" ] ~doc:"Request budget: MUL*n + ADD")
let seed_arg = Arg.(value & opt int 20070615 & info [ "seed" ] ~doc:"Master seed")

let spec_term =
  let mk model p m alpha exponent sizes strategies trials metric source budget_mul budget_add
      seed =
    {
      Fab.Grid.gs_model = model;
      gs_p = p;
      gs_m = m;
      gs_alpha = alpha;
      gs_exponent = exponent;
      gs_sizes = sizes;
      gs_strategies = strategies;
      gs_trials = trials;
      gs_metric = metric;
      gs_source = source;
      gs_budget_mul = budget_mul;
      gs_budget_add = budget_add;
      gs_seed = seed;
    }
  in
  Term.(
    const mk $ model_arg $ p_arg $ m_arg $ alpha_arg $ exponent_arg $ sizes_arg
    $ strategies_arg $ trials_arg $ metric_arg $ source_arg $ budget_mul_arg $ budget_add_arg
    $ seed_arg)

(* --- fabric flags --------------------------------------------------- *)

let dir_arg =
  Arg.(required & opt (some string) None & info [ "dir" ] ~docv:"DIR" ~doc:"Fabric run directory.")

let workers_arg =
  Arg.(value & opt int 0 & info [ "workers" ] ~docv:"N"
         ~doc:"Worker processes; 0 runs the shards in-process (same checkpoints, same outputs).")

let shards_arg =
  Arg.(value & opt (some int) None & info [ "shards" ] ~docv:"N"
         ~doc:"Shard count (default: 4x the worker count, capped at the task count).")

let ckpt_every_arg =
  Arg.(value & opt int 16 & info [ "ckpt-every" ] ~docv:"K" ~doc:"Checkpoint every K trials.")

let fault_rate_arg =
  Arg.(value & opt float 0. & info [ "fault-rate" ] ~docv:"R"
         ~doc:"Deterministic fault injection: after each checkpoint the worker SIGKILLs itself \
               with probability R (a pure function of seed, shard and position). Outputs are \
               still byte-identical.")

let stop_after_arg =
  Arg.(value & opt (some int) None & info [ "stop-after-shards" ] ~docv:"K"
         ~doc:"Stop after K shards complete, SIGKILLing in-flight workers — leaves a crashed, \
               resumable run directory (exit code 3).")

let max_spawns_arg =
  Arg.(value & opt (some int) None & info [ "max-spawns" ] ~docv:"N"
         ~doc:"Abort after N process spawns (backstop against a poison shard).")

let sock_arg =
  Arg.(value & opt (some string) None & info [ "sock" ] ~docv:"PATH"
         ~doc:"Coordinator control socket (default DIR/fabric.sock).")

let quiet_arg = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Suppress the rendered points.")

(* workers exec the same binary; forward the flags that shape their run *)
let spawn_worker ~dir ~ckpt_every ~fault_rate ~corpus ~sock_path =
  let argv =
    [
      Sys.executable_name; "worker"; "--dir"; dir; "--connect"; sock_path; "--ckpt-every";
      string_of_int ckpt_every; "--fault-rate"; string_of_float fault_rate;
    ]
    @ (match corpus with Some d -> [ "--corpus"; d ] | None -> [])
  in
  Fab.Swarm.spawn_exec (Array.of_list argv)

let drive ~dir ~workers ~ckpt_every ~fault_rate ~stop_after ~max_spawns ~sock_path ~quiet
    (obs : Obs_cli.t) loaded =
  let spawn = spawn_worker ~dir ~ckpt_every ~fault_rate ~corpus:obs.Obs_cli.corpus in
  (* one consolidated progress line for the whole fleet: workers
     suppress their own output and report through Proto.Progress, so
     nothing interleaves on the shared terminal *)
  let plan = fst loaded in
  let n_tasks = Fab.Grid.n_tasks plan.Fab.Grid.p_spec in
  let reporter =
    if obs.Obs_cli.progress && workers > 0 then begin
      let p = Sf_obs.Progress.create ~label:"fabric" ~total:n_tasks () in
      let seen : (int, int) Hashtbl.t = Hashtbl.create 16 in
      (* resumed work counts from the checkpoints it already holds *)
      List.iter
        (fun st ->
          if st.Fab.Coordinator.st_done > 0 then begin
            Hashtbl.replace seen st.Fab.Coordinator.st_shard st.Fab.Coordinator.st_done;
            for _ = 1 to st.Fab.Coordinator.st_done do
              Sf_obs.Progress.step p
            done
          end)
        (Fab.Coordinator.status ~dir loaded);
      Some (p, seen)
    end
    else None
  in
  let on_shard_progress ~shard ~done_tasks ~total =
    match reporter with
    | None -> ()
    | Some (p, seen) ->
      let prev = Option.value (Hashtbl.find_opt seen shard) ~default:0 in
      if done_tasks > prev then begin
        Hashtbl.replace seen shard done_tasks;
        let detail = Printf.sprintf "shard %d %d/%d" shard done_tasks total in
        for _ = 1 to done_tasks - prev do
          Sf_obs.Progress.step ~detail p
        done
      end
  in
  let result =
    Fab.Coordinator.run ~dir ~workers ~ckpt_every ~fault_rate ?stop_after ?max_spawns
      ?sock_path
      ~trace:(obs.Obs_cli.trace <> None && not obs.Obs_cli.no_obs)
      ~on_shard_progress ~spawn loaded
  in
  (match reporter with Some (p, _) -> Sf_obs.Progress.finish p | None -> ());
  match result with
  | `Complete (points, report) ->
    if not quiet then print_string (Sf_experiments.Exp.render_points points);
    Printf.printf
      "fabric: %d shards done (%d spawned, %d deaths, %d reassigned); outputs in %s\n"
      report.Fab.Swarm.sw_completed report.Fab.Swarm.sw_spawned report.Fab.Swarm.sw_deaths
      report.Fab.Swarm.sw_reassigned dir;
    0
  | `Stopped_early report ->
    Printf.printf "fabric: stopped early after %d shards; resume with `sffabric resume --dir %s`\n"
      report.Fab.Swarm.sw_completed dir;
    3

let seed_of_loaded ((plan, _) : Fab.Grid.plan * int32) = plan.Fab.Grid.p_spec.Fab.Grid.gs_seed

let run_main spec dir workers shards ckpt_every fault_rate stop_after max_spawns sock_path
    quiet obs =
  let shards =
    Option.value shards ~default:(Fab.Coordinator.default_shards ~workers spec)
  in
  match Fab.Coordinator.prepare ~dir ~shards spec with
  | exception (Failure msg | Invalid_argument msg) ->
    Printf.eprintf "sffabric: %s\n" msg;
    1
  | loaded ->
    Obs_cli.with_session obs ~process:"coordinator" ~tool:"sffabric"
      ~seed:(seed_of_loaded loaded)
      ~mode:(Printf.sprintf "run-w%d" workers)
    @@ fun () ->
    drive ~dir ~workers ~ckpt_every ~fault_rate ~stop_after ~max_spawns ~sock_path ~quiet obs
      loaded

let resume_main dir workers ckpt_every fault_rate stop_after max_spawns sock_path quiet obs =
  match Fab.Coordinator.load ~dir with
  | exception Failure msg ->
    Printf.eprintf "sffabric: %s\n" msg;
    1
  | loaded ->
    Obs_cli.with_session obs ~process:"coordinator" ~tool:"sffabric"
      ~seed:(seed_of_loaded loaded)
      ~mode:(Printf.sprintf "resume-w%d" workers)
    @@ fun () ->
    drive ~dir ~workers ~ckpt_every ~fault_rate ~stop_after ~max_spawns ~sock_path ~quiet obs
      loaded

let status_main dir =
  match Fab.Coordinator.load ~dir with
  | exception Failure msg ->
    Printf.eprintf "sffabric: %s\n" msg;
    1
  | (plan, _) as loaded ->
    let sts = Fab.Coordinator.status ~dir loaded in
    print_string (Fab.Coordinator.render_status plan sts);
    if List.for_all (fun st -> st.Fab.Coordinator.st_state = `Complete) sts then 0 else 3

let worker_main dir connect ckpt_every fault_rate corpus =
  (* workers inherit the coordinator's terminal: no per-trial progress
     lines from here (the coordinator renders one consolidated line
     from Proto.Progress), and the same monotonic clock the
     coordinator injects, so relayed trace timestamps land on one
     comparable axis in the merged timeline *)
  Sf_obs.Timer.set_clock (fun () -> Int64.to_float (Monotonic_clock.now ()) /. 1e9);
  Sf_obs.Progress.set_enabled false;
  Sf_store.Corpus.configure ?dir:corpus ();
  match Fab.Worker.main ~dir ~connect ~fault_rate ~ckpt_every () with
  | () -> 0
  | exception e ->
    Printf.eprintf "sffabric worker: %s\n" (Printexc.to_string e);
    1

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:"plan a grid and run it to completion")
    Term.(
      const run_main $ spec_term $ dir_arg $ workers_arg $ shards_arg $ ckpt_every_arg
      $ fault_rate_arg $ stop_after_arg $ max_spawns_arg $ sock_arg $ quiet_arg $ Obs_cli.term)

let resume_cmd =
  Cmd.v
    (Cmd.info "resume" ~doc:"continue a crashed or stopped run from its checkpoints")
    Term.(
      const resume_main $ dir_arg $ workers_arg $ ckpt_every_arg $ fault_rate_arg
      $ stop_after_arg $ max_spawns_arg $ sock_arg $ quiet_arg $ Obs_cli.term)

let status_cmd =
  Cmd.v
    (Cmd.info "status" ~doc:"per-shard checkpoint progress (exit 0 iff complete)")
    Term.(const status_main $ dir_arg)

let connect_arg =
  Arg.(required & opt (some string) None & info [ "connect" ] ~docv:"PATH"
         ~doc:"Coordinator control socket.")

let corpus_arg =
  Arg.(value & opt (some string) None & info [ "corpus" ] ~docv:"DIR"
         ~doc:"Content-addressed graph corpus cache.")

let worker_cmd =
  Cmd.v
    (Cmd.info "worker" ~doc:"internal: a fabric worker process (spawned by run/resume)")
    Term.(
      const worker_main $ dir_arg $ connect_arg $ ckpt_every_arg $ fault_rate_arg $ corpus_arg)

let cmd =
  let doc = "distributed experiment fabric: sharded grids, resumable checkpoints, deterministic merge" in
  Cmd.group (Cmd.info "sffabric" ~doc) [ run_cmd; resume_cmd; status_cmd; worker_cmd ]

let () =
  Minor_heap.shrink ();
  exit (Cmd.eval' cmd)
