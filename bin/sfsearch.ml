(* sfsearch: run one local search on a generated or loaded graph and
   print its outcome next to the paper's lower bound.

   Examples:
     sfsearch --model mori -n 10000 -p 0.5 --strategy high-degree
     sfsearch --model cooper-frieze -n 4000 --strategy bfs --trials 20
     sfsearch --graph g.edges --strategy rand-walk --target 500 *)

open Cmdliner

let strategy_of_name name =
  let all =
    Sf_search.Strategies.weak_portfolio ()
    @ Sf_search.Strategies.strong_portfolio ()
    @ [ Sf_search.Strategies.random_edge ~skip_known:false ]
  in
  List.find_opt (fun s -> s.Sf_search.Strategy.name = name) all

let strategy_names () =
  Sf_search.Strategies.weak_portfolio () @ Sf_search.Strategies.strong_portfolio ()
  |> List.map (fun s -> s.Sf_search.Strategy.name)
  |> String.concat ", "

let run model n p m alpha exponent strategy_name source target trials budget seed graph_file
    trace_csv (obs : Obs_cli.t) =
  let extra = ref [] in
  Obs_cli.with_session obs ~extra:(fun () -> !extra) ~tool:"sfsearch" ~seed ~mode:model
  @@ fun () ->
  let rng = Sf_prng.Rng.of_seed seed in
  let graph, default_target =
    match graph_file with
    | Some path ->
      (* SFGB v2 files are mmap-backed CSR (no decode pass,
         doc/SCALING.md); text edge lists are parsed *)
      let u = Sf_store.Csr_codec.load_ugraph ~path () in
      (u, Sf_graph.Ugraph.n_vertices u)
    | None -> (
      match Sf_core.Searchability.instance_of_model model ~p ~m ~alpha ~exponent with
      | Ok make -> make rng n
      | Error msg -> failwith msg)
  in
  match strategy_of_name strategy_name with
  | None ->
    Printf.eprintf "unknown strategy %s (known: %s)\n" strategy_name (strategy_names ());
    1
  | Some strategy ->
    let target = Option.value ~default:default_target target in
    let n_vertices = Sf_graph.Ugraph.n_vertices graph in
    let source = Option.value ~default:(if target = 1 then 2 else 1) source in
    Printf.printf "graph: %s vertices, %s edges; source %d -> target %d; strategy %s (%s model)\n"
      (Sf_stats.Table.fmt_int_grouped n_vertices)
      (Sf_stats.Table.fmt_int_grouped (Sf_graph.Ugraph.n_edges graph))
      source target strategy.Sf_search.Strategy.name
      (match strategy.Sf_search.Strategy.model with
      | Sf_search.Oracle.Weak -> "weak"
      | Sf_search.Oracle.Strong -> "strong");
    let to_target = Sf_stats.Summary.create () in
    let to_neighbor = Sf_stats.Summary.create () in
    let timeouts = ref 0 in
    let progress =
      if obs.Obs_cli.progress then
        Some (Sf_obs.Progress.create ~label:"trials" ~total:trials ())
      else None
    in
    (* every trial owns the split stream [split_at rng trial], so the
       pooled run below aggregates exactly what the old sequential
       loop did, at any --jobs value *)
    let run_one trial =
      let trial_rng = Sf_prng.Rng.split_at rng trial in
      Sf_search.Runner.search ?budget ~rng:trial_rng graph strategy ~source ~target
    in
    let record outcome =
      (match outcome.Sf_search.Runner.to_target with
      | Some r -> Sf_stats.Summary.add_int to_target r
      | None -> incr timeouts);
      (match outcome.Sf_search.Runner.to_neighbor with
      | Some r -> Sf_stats.Summary.add_int to_neighbor r
      | None -> ());
      Option.iter
        (fun pr ->
          Sf_obs.Progress.step pr
            ~detail:
              (Printf.sprintf "%d requests" outcome.Sf_search.Runner.total_requests))
        progress
    in
    Sf_obs.Span.with_span "trials" (fun () ->
        let traced_first =
          match trace_csv with
          | Some path when trials >= 1 ->
            (* the traced trial stays on the calling domain:
               run_traced attaches a temporary collector sink, which a
               parallel task must not do *)
            let trial_rng = Sf_prng.Rng.split_at rng 1 in
            let oracle =
              Sf_search.Oracle.start ~rng:trial_rng strategy.Sf_search.Strategy.model
                graph ~source ~target
            in
            let outcome, trace =
              Sf_search.Runner.run_traced ?budget ~rng:trial_rng strategy oracle
            in
            Sf_search.Oracle.release oracle;
            let oc = open_out path in
            output_string oc (Sf_search.Runner.trace_to_csv trace);
            close_out oc;
            Printf.printf "wrote trace of trial 1 to %s (%d events)\n" path
              (List.length trace);
            [ outcome ]
          | Some _ | None -> []
        in
        let already = List.length traced_first in
        let rest =
          if trials > already then
            Sf_parallel.Pool.with_pool (fun pool ->
                Sf_parallel.Pool.mapi pool (trials - already) (fun i ->
                    run_one (already + 1 + i)))
            |> Array.to_list
          else []
        in
        List.iter record (traced_first @ rest));
    Option.iter Sf_obs.Progress.finish progress;
    Printf.printf "trials: %d (timeouts: %d)\n" trials !timeouts;
    if Sf_stats.Summary.count to_target > 0 then
      Printf.printf "requests to target:    mean %.1f  (min %.0f, max %.0f)\n"
        (Sf_stats.Summary.mean to_target)
        (Sf_stats.Summary.min_value to_target)
        (Sf_stats.Summary.max_value to_target);
    if Sf_stats.Summary.count to_neighbor > 0 then
      Printf.printf "requests to neighbor:  mean %.1f  (min %.0f, max %.0f)\n"
        (Sf_stats.Summary.mean to_neighbor)
        (Sf_stats.Summary.min_value to_neighbor)
        (Sf_stats.Summary.max_value to_neighbor);
    if model = "mori" && graph_file = None then begin
      let bound = Sf_core.Lower_bound.theorem1 ~p ~m ~n in
      Printf.printf "Theorem 1 bound for this instance: >= %.1f expected requests\n"
        bound.Sf_core.Lower_bound.requests
    end;
    extra :=
      [
        ("strategy", Sf_obs.Export.json_string strategy.Sf_search.Strategy.name);
        ("n", string_of_int n_vertices);
        ("trials", string_of_int trials);
      ];
    0

let model_arg =
  Arg.(
    value & opt string "mori"
    & info [ "model" ] ~doc:"mori | cooper-frieze | config")
let n_arg = Arg.(value & opt int 10_000 & info [ "n" ] ~doc:"Target vertex / problem size")
let p_arg = Arg.(value & opt float 0.5 & info [ "p" ] ~doc:"Mori parameter")
let m_arg = Arg.(value & opt int 1 & info [ "m" ] ~doc:"Mori merge factor")
let alpha_arg = Arg.(value & opt float 0.5 & info [ "alpha" ] ~doc:"Cooper-Frieze alpha")
let exponent_arg = Arg.(value & opt float 2.3 & info [ "exponent" ] ~doc:"Config-model exponent")
let strategy_arg = Arg.(value & opt string "high-degree" & info [ "strategy"; "s" ] ~doc:"Strategy name")
let source_arg = Arg.(value & opt (some int) None & info [ "source" ] ~doc:"Start vertex (default 1)")
let target_arg = Arg.(value & opt (some int) None & info [ "target" ] ~doc:"Target vertex (default: model-specific)")
let trials_arg = Arg.(value & opt int 10 & info [ "trials" ] ~doc:"Independent searches")
let budget_arg = Arg.(value & opt (some int) None & info [ "budget" ] ~doc:"Request budget per search")
let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed")
let graph_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "graph" ]
        ~doc:"Load a graph file (an SFGB v2 container, mapped, or a text edge list) instead of generating")
let trace_csv_arg =
  Arg.(value & opt (some string) None & info [ "trace-csv" ] ~doc:"Write the first trial's request trace to this CSV file")

let cmd =
  let doc = "run local-knowledge searches against the paper's lower bounds" in
  Cmd.v
    (Cmd.info "sfsearch" ~doc)
    Term.(
      const run $ model_arg $ n_arg $ p_arg $ m_arg $ alpha_arg $ exponent_arg $ strategy_arg
      $ source_arg $ target_arg $ trials_arg $ budget_arg $ seed_arg $ graph_arg
      $ trace_csv_arg $ Obs_cli.term)

let () = exit (Cmd.eval' cmd)
