(* sfanalyze: structural report for a generated or loaded graph -
   degree laws, correlations, clustering, cores, distances.  The
   one-stop diagnostic behind experiments T9, T10 and T15.

   Examples:
     sfanalyze --model mori -n 20000 -p 0.75
     sfanalyze --graph g.edges
     sfanalyze --model config -n 50000 --exponent 2.3 --distances *)

open Cmdliner

(* The report is Ugraph-native: an mmap-loaded corpus graph (SFGB v2)
   is analysed directly from its CSR sections, never materialising a
   boxed copy (doc/SCALING.md). *)
let report ?(distances = false) ~seed u =
  let rng = Sf_prng.Rng.of_seed seed in
  let n = Sf_graph.Ugraph.n_vertices u in
  let in_deg = Sf_graph.Metrics.u_in_degrees u in
  let total_deg = Sf_graph.Metrics.u_total_degrees u in
  Printf.printf "== size ==\n";
  Printf.printf "vertices            %s\n" (Sf_stats.Table.fmt_int_grouped n);
  Printf.printf "edges               %s\n" (Sf_stats.Table.fmt_int_grouped (Sf_graph.Ugraph.n_edges u));
  Printf.printf "self loops          %d\n" (Sf_graph.Metrics.u_self_loops u);
  Printf.printf "parallel edges      %d\n" (Sf_graph.Metrics.u_parallel_edges u);
  Printf.printf "connected           %b\n\n" (Sf_graph.Traversal.is_connected u);
  Printf.printf "== degrees ==\n";
  Printf.printf "mean total degree   %.2f\n" (Sf_graph.Metrics.u_mean_degree u);
  Printf.printf "max in / total      %d / %d\n"
    (Array.fold_left max 0 in_deg)
    (Array.fold_left max 0 total_deg);
  (try
     let fit = Sf_stats.Power_law.fit_scan total_deg () in
     Printf.printf "power-law tail      gamma=%.2f (x_min=%d, KS=%.3f, tail n=%d)\n"
       fit.Sf_stats.Power_law.alpha fit.Sf_stats.Power_law.x_min fit.Sf_stats.Power_law.ks
       fit.Sf_stats.Power_law.n_tail
   with Invalid_argument _ -> Printf.printf "power-law tail      (no admissible fit)\n");
  Printf.printf "\n== correlations (T15 statistics) ==\n";
  Printf.printf "assortativity       %+.3f\n" (Sf_graph.Correlation.assortativity u);
  Printf.printf "knn log-log slope   %+.3f\n" (Sf_graph.Correlation.knn_slope u);
  Printf.printf "age-degree rho      %+.3f\n" (Sf_graph.Correlation.age_degree_spearman u);
  Printf.printf "\n== structure ==\n";
  Printf.printf "degeneracy (k-core) %d\n" (Sf_graph.Kcore.degeneracy u);
  let cores = Sf_graph.Kcore.core_sizes u in
  Printf.printf "core sizes          %s\n"
    (String.concat ", " (List.map (fun (k, c) -> Printf.sprintf "%d:%d" k c) cores));
  if n <= 20_000 then
    Printf.printf "avg clustering      %.4f\n" (Sf_graph.Clustering.average_local u)
  else Printf.printf "avg clustering      (skipped; n > 20000)\n";
  if distances then begin
    Printf.printf "\n== distances ==\n";
    Printf.printf "diameter (2-sweep)  %d\n" (Sf_graph.Traversal.diameter_double_sweep u rng);
    Printf.printf "mean distance       %.2f (sampled)\n"
      (Sf_graph.Traversal.mean_distance_sampled u rng ~samples:4)
  end;
  Printf.printf "\n== indegree histogram (log-binned) ==\n%s"
    (try Sf_stats.Histogram.render (Sf_stats.Histogram.logarithmic in_deg ())
     with Invalid_argument _ -> "(no positive indegrees)\n")

let run model n p m alpha exponent seed graph_file distances (obs : Obs_cli.t) =
  let mode = match graph_file with Some _ -> "graph-file" | None -> model in
  Obs_cli.with_session obs ~tool:"sfanalyze" ~seed ~mode @@ fun () ->
  let rng = Sf_prng.Rng.of_seed seed in
  let boxed g = Sf_graph.Ugraph.of_digraph g in
  let u =
    match graph_file with
    | Some path -> Sf_store.Csr_codec.load_ugraph ~path ()
    | None -> (
      match model with
      | "mori" -> Sf_gen.Mori.graph rng ~p ~m ~n
      | "ba" -> boxed (Sf_gen.Barabasi_albert.generate rng ~n ~m:(max m 1))
      | "lcd" -> boxed (Sf_gen.Lcd.generate rng ~n ~m:(max m 1))
      | "cooper-frieze" ->
        let params = { Sf_gen.Cooper_frieze.default with Sf_gen.Cooper_frieze.alpha } in
        Sf_gen.Cooper_frieze.generate_n_vertices rng params ~n
      | "config" -> boxed (Sf_gen.Config_model.searchable_power_law rng ~n ~exponent ())
      | "uniform" -> boxed (Sf_gen.Uniform_attachment.tree rng ~t:n)
      | other -> failwith ("unknown model: " ^ other))
  in
  report ~distances ~seed u;
  0

let model_arg =
  Arg.(value & opt string "mori" & info [ "model" ] ~doc:"mori | ba | lcd | cooper-frieze | config | uniform")

let n_arg = Arg.(value & opt int 10_000 & info [ "n" ] ~doc:"Vertices")
let p_arg = Arg.(value & opt float 0.5 & info [ "p" ] ~doc:"Mori parameter")
let m_arg = Arg.(value & opt int 1 & info [ "m" ] ~doc:"Out-degree / merge factor")
let alpha_arg = Arg.(value & opt float 0.5 & info [ "alpha" ] ~doc:"Cooper-Frieze alpha")
let exponent_arg = Arg.(value & opt float 2.3 & info [ "exponent" ] ~doc:"Config-model exponent")
let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed")
let graph_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "graph" ] ~doc:"Graph file to analyse (an SFGB v2 container, mapped, or a text edge list)")
let distances_arg = Arg.(value & flag & info [ "distances" ] ~doc:"Also estimate diameter and mean distance")

let cmd =
  let doc = "structural analysis of scale-free graphs" in
  Cmd.v (Cmd.info "sfanalyze" ~doc)
    Term.(
      const run $ model_arg $ n_arg $ p_arg $ m_arg $ alpha_arg $ exponent_arg $ seed_arg
      $ graph_arg $ distances_arg $ Obs_cli.term)

let () = exit (Cmd.eval' cmd)
