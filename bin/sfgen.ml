(* sfgen: generate any of the library's random-graph models and write
   it as an edge list (or DOT), printing summary statistics.

   Examples:
     sfgen mori -n 10000 -p 0.5 --seed 7 --out g.edges
     sfgen mori -n 10000000 -p 0.5 --out g.sfg --format csr
     sfgen cooper-frieze -n 5000 --alpha 0.9 --stats
     sfgen config -n 100000 --exponent 2.3 --out -
     sfgen kleinberg --side 64 --r 2.0 --dot grid.dot *)

open Cmdliner

(* Mori and Cooper-Frieze grow straight into CSR-backed undirected
   views and never materialise a boxed Digraph; the other models come
   out boxed.  Everything downstream (stats, writers) handles both. *)
type built = Boxed of Sf_graph.Digraph.t | Flat of Sf_graph.Ugraph.t

let generate_graph ~model ~n ~p ~m ~alpha ~exponent ~d_min ~side ~r ~q ~seed =
  let rng = Sf_prng.Rng.of_seed seed in
  match model with
  | "mori" -> Ok (Flat (Sf_gen.Mori.graph rng ~p ~m ~n))
  | "cooper-frieze" ->
    let params = { Sf_gen.Cooper_frieze.default with Sf_gen.Cooper_frieze.alpha } in
    Ok (Flat (Sf_gen.Cooper_frieze.generate_n_vertices rng params ~n))
  | "ba" -> Ok (Boxed (Sf_gen.Barabasi_albert.generate rng ~n ~m))
  | "config" -> Ok (Boxed (Sf_gen.Config_model.power_law rng ~n ~exponent ~d_min ()))
  | "config-giant" ->
    Ok (Boxed (Sf_gen.Config_model.searchable_power_law rng ~n ~exponent ~d_min ()))
  | "kleinberg" ->
    Ok (Boxed (Sf_gen.Kleinberg.generate rng ~side ~r ~q ()).Sf_gen.Kleinberg.graph)
  | "uniform" -> Ok (Boxed (Sf_gen.Uniform_attachment.tree rng ~t:n))
  | "gnm" -> Ok (Boxed (Sf_gen.Erdos_renyi.gnm rng ~n ~m:(n * m)))
  | other -> Error (`Msg ("unknown model: " ^ other))

let print_stats g =
  let u = Sf_graph.Ugraph.of_digraph g in
  let in_deg = Sf_graph.Metrics.in_degrees g in
  Printf.printf "vertices:        %s\n" (Sf_stats.Table.fmt_int_grouped (Sf_graph.Digraph.n_vertices g));
  Printf.printf "edges:           %s\n" (Sf_stats.Table.fmt_int_grouped (Sf_graph.Digraph.n_edges g));
  Printf.printf "mean degree:     %.2f\n" (Sf_graph.Metrics.mean_degree g);
  Printf.printf "max in-degree:   %d\n" (Sf_graph.Metrics.max_in_degree g);
  Printf.printf "max total deg:   %d\n" (Sf_graph.Metrics.max_total_degree g);
  Printf.printf "self loops:      %d\n" (Sf_graph.Metrics.self_loops g);
  Printf.printf "parallel edges:  %d\n" (Sf_graph.Metrics.parallel_edges g);
  Printf.printf "connected:       %b\n" (Sf_graph.Traversal.is_connected u);
  (try
     let fit = Sf_stats.Power_law.fit_scan in_deg () in
     Printf.printf "power-law tail:  gamma=%.2f (x_min=%d, KS=%.3f)\n" fit.Sf_stats.Power_law.alpha
       fit.Sf_stats.Power_law.x_min fit.Sf_stats.Power_law.ks
   with Invalid_argument _ -> Printf.printf "power-law tail:  (no admissible fit)\n");
  Printf.printf "\nlog-binned indegree histogram:\n%s"
    (try Sf_stats.Histogram.render (Sf_stats.Histogram.logarithmic in_deg ())
     with Invalid_argument _ -> "(no positive indegrees)\n")

(* Ugraph-native statistics: one pass over the flat endpoint sections,
   no boxed conversion — a 10M-vertex graph stays a 10M-vertex graph *)
let print_ugraph_stats u =
  let module U = Sf_graph.Ugraph in
  let n = U.n_vertices u and m = U.n_edges u in
  let in_deg = Array.make n 0 in
  let self_loops = ref 0 in
  for id = 0 to m - 1 do
    let s, d = U.endpoints u id in
    in_deg.(d - 1) <- in_deg.(d - 1) + 1;
    if s = d then incr self_loops
  done;
  let max_in = Array.fold_left max 0 in_deg in
  Printf.printf "vertices:        %s\n" (Sf_stats.Table.fmt_int_grouped n);
  Printf.printf "edges:           %s\n" (Sf_stats.Table.fmt_int_grouped m);
  Printf.printf "mean degree:     %.2f\n" (2. *. float_of_int m /. float_of_int (max n 1));
  Printf.printf "max in-degree:   %d\n" max_in;
  Printf.printf "max degree:      %d\n" (U.max_degree u);
  Printf.printf "self loops:      %d\n" !self_loops;
  Printf.printf "graph memory:    %s bytes (CSR)\n"
    (Sf_stats.Table.fmt_int_grouped (U.memory_bytes u));
  (try
     let fit = Sf_stats.Power_law.fit_scan in_deg () in
     Printf.printf "power-law tail:  gamma=%.2f (x_min=%d, KS=%.3f)\n" fit.Sf_stats.Power_law.alpha
       fit.Sf_stats.Power_law.x_min fit.Sf_stats.Power_law.ks
   with Invalid_argument _ -> Printf.printf "power-law tail:  (no admissible fit)\n");
  Printf.printf "\nlog-binned indegree histogram:\n%s"
    (try Sf_stats.Histogram.render (Sf_stats.Histogram.logarithmic in_deg ())
     with Invalid_argument _ -> "(no positive indegrees)\n")

let ugraph_edge_list u =
  let module U = Sf_graph.Ugraph in
  let n = U.n_vertices u and m = U.n_edges u in
  let buf = Buffer.create (16 + (8 * m)) in
  Buffer.add_string buf (Printf.sprintf "%d %d\n" n m);
  for id = 0 to m - 1 do
    let s, d = U.endpoints u id in
    Buffer.add_string buf (Printf.sprintf "%d %d\n" s d)
  done;
  Buffer.contents buf

(* Every writer takes the CSR view; a boxed graph is frozen first, which
   keeps its edge ids and so its bytes in every format. *)
let write_output u ~out ~format =
  match (out, format) with
  | None, _ -> Ok false
  | Some "-", `Csr -> Error (`Msg "--format csr needs a real --out path (it is written, not streamed)")
  | Some "-", `Edges ->
    print_string (ugraph_edge_list u);
    Ok true
  | Some path, format ->
    (match format with
    | `Edges -> Out_channel.with_open_bin path (fun oc -> output_string oc (ugraph_edge_list u))
    | `Csr -> Sf_store.Csr_codec.write_ugraph_file u ~path);
    Printf.printf "wrote %s\n" path;
    Ok true

let run model n p m alpha exponent d_min side r q seed out format dot stats
    (obs : Obs_cli.t) =
  Obs_cli.with_session obs ~tool:"sfgen" ~seed ~mode:model @@ fun () ->
  match
    generate_graph ~model ~n ~p ~m ~alpha ~exponent ~d_min ~side ~r ~q ~seed
  with
  | Error (`Msg msg) ->
    Printf.eprintf "sfgen: %s\n" msg;
    1
  | Ok built -> (
    let u = match built with Boxed g -> Sf_graph.Ugraph.of_digraph g | Flat u -> u in
    match write_output u ~out ~format with
    | Error (`Msg msg) ->
      Printf.eprintf "sfgen: %s\n" msg;
      1
    | Ok wrote ->
      Option.iter
        (fun path ->
          (* DOT is for small demo graphs; the boxed view is fine here *)
          let g = match built with Boxed g -> g | Flat u -> Sf_graph.Ugraph.to_digraph u in
          Out_channel.with_open_text path (fun oc -> output_string oc (Sf_graph.Gio.to_dot g));
          Printf.printf "wrote %s\n" path)
        dot;
      if stats || ((not wrote) && dot = None) then begin
        match built with
        | Boxed g -> print_stats g
        | Flat u -> print_ugraph_stats u
      end;
      0)

let model_arg =
  let doc =
    "Model: mori | ba | cooper-frieze | config | config-giant | kleinberg | uniform | gnm"
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"MODEL" ~doc)

let n_arg = Arg.(value & opt int 1000 & info [ "n" ] ~doc:"Number of vertices")
let p_arg = Arg.(value & opt float 0.5 & info [ "p" ] ~doc:"Mori preferential-attachment weight (0 < p <= 1)")
let m_arg = Arg.(value & opt int 1 & info [ "m" ] ~doc:"Out-degree / merge factor")
let alpha_arg = Arg.(value & opt float 0.5 & info [ "alpha" ] ~doc:"Cooper-Frieze NEW-step probability")
let exponent_arg = Arg.(value & opt float 2.3 & info [ "exponent" ] ~doc:"Configuration-model power-law exponent")
let d_min_arg = Arg.(value & opt int 2 & info [ "d-min" ] ~doc:"Configuration-model minimum degree")
let side_arg = Arg.(value & opt int 32 & info [ "side" ] ~doc:"Kleinberg grid side")
let r_arg = Arg.(value & opt float 2.0 & info [ "r" ] ~doc:"Kleinberg clustering exponent")
let q_arg = Arg.(value & opt int 1 & info [ "q" ] ~doc:"Kleinberg long-range links per vertex")
let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed")
let out_arg = Arg.(value & opt (some string) None & info [ "out"; "o" ] ~doc:"Graph output path ('-' for stdout)")

let format_arg =
  Arg.(
    value
    & opt (enum [ ("edges", `Edges); ("csr", `Csr) ]) `Edges
    & info [ "format" ] ~docv:"FMT"
        ~doc:
          "Output format for --out: $(b,edges) (text edge list) or $(b,csr) (the \
           mmap-readable graph container, SFGB v2 — exact round trip of edge ids, \
           opened by every --graph flag without a decode pass; doc/STORAGE.md)")
let dot_arg = Arg.(value & opt (some string) None & info [ "dot" ] ~doc:"GraphViz DOT output path")
let stats_arg = Arg.(value & flag & info [ "stats" ] ~doc:"Print summary statistics")

let cmd =
  let doc = "generate random scale-free (and control) graphs" in
  Cmd.v
    (Cmd.info "sfgen" ~doc)
    Term.(
      const run $ model_arg $ n_arg $ p_arg $ m_arg $ alpha_arg $ exponent_arg
      $ d_min_arg $ side_arg $ r_arg $ q_arg $ seed_arg $ out_arg $ format_arg $ dot_arg
      $ stats_arg $ Obs_cli.term)

let () = exit (Cmd.eval' cmd)
