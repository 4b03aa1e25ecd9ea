(* P2P lookup study — the scenario that motivates the paper.

   A Gnutella-like unstructured peer-to-peer network is modelled (as in
   Adamic et al. [ALPH01]) by a power-law random graph with exponent
   between 2 and 3.  Peers know their neighbours (the strong local
   model).  We compare the classic lookup disciplines and then show how
   the picture changes on an *evolving* scale-free network (the Mori
   graph), where the paper proves no strategy can be fast.

   Run with:  dune exec examples/p2p_lookup.exe *)

let lookup_experiment name u strategies ~trials ~rng =
  let n = Sf_graph.Ugraph.n_vertices u in
  Printf.printf "%s (%s peers, %s links)\n" name
    (Sf_stats.Table.fmt_int_grouped n)
    (Sf_stats.Table.fmt_int_grouped (Sf_graph.Ugraph.n_edges u));
  List.iter
    (fun strategy ->
      let costs = Sf_stats.Summary.create () in
      let misses = ref 0 in
      for trial = 1 to trials do
        let trial_rng = Sf_prng.Rng.split_at rng trial in
        let source = 1 + Sf_prng.Rng.int trial_rng n in
        let target = 1 + Sf_prng.Rng.int trial_rng n in
        if source <> target then begin
          let outcome =
            Sf_search.Runner.search ~budget:(8 * n) ~rng:trial_rng u strategy ~source ~target
          in
          match outcome.Sf_search.Runner.to_target with
          | Some requests -> Sf_stats.Summary.add_int costs requests
          | None -> incr misses
        end
      done;
      Printf.printf "  %-16s mean %8.1f peers contacted   median %8.1f   misses %d\n"
        strategy.Sf_search.Strategy.name (Sf_stats.Summary.mean costs)
        (Sf_stats.Summary.mean costs)
        !misses)
    strategies;
  print_newline ()

let () =
  let rng = Sf_prng.Rng.of_seed 2007 in
  let trials = 25 in
  let n = 20_000 in

  Printf.printf "=== Unstructured P2P lookup: who should you ask first? ===\n\n";

  (* 1. The Adamic et al. world: a pure power-law random graph
     (configuration model), exponent 2.3 like measured Gnutella. *)
  let gnutella =
    Sf_gen.Config_model.searchable_power_law (Sf_prng.Rng.split rng) ~n ~exponent:2.3 ()
  in
  lookup_experiment "Gnutella-like configuration-model network" gnutella
    [
      Sf_search.Strategies.strong_high_degree;
      Sf_search.Strategies.strong_random_walk;
      Sf_search.Strategies.strong_seq;
    ]
    ~trials ~rng:(Sf_prng.Rng.split rng);
  Printf.printf
    "  -> asking high-degree peers first wins by a wide margin, as Adamic et al.\n\
    \     predicted: neighbour degrees are independent, so climbing the degree\n\
    \     sequence covers most of the network's edges quickly.\n\n";

  (* 2. The same contest on an evolving scale-free network of the same
     size: a Mori graph.  Degrees and ages are correlated here, and the
     paper proves *every* local strategy needs Omega(sqrt n) requests to
     find a recent peer. *)
  let p = 0.6 in
  let bound = Sf_core.Lower_bound.theorem1 ~p ~m:2 ~n in
  let mori =
    Sf_gen.Mori.graph (Sf_prng.Rng.split rng) ~p ~m:2 ~n:bound.Sf_core.Lower_bound.graph_size
  in
  Printf.printf "Evolving scale-free network (Mori graph, p = %.1f): find the newest peer\n" p;
  List.iter
    (fun strategy ->
      let costs = Sf_stats.Summary.create () in
      for trial = 1 to trials do
        let trial_rng = Sf_prng.Rng.split_at rng (1000 + trial) in
        let outcome =
          Sf_search.Runner.search ~rng:trial_rng mori strategy ~source:1 ~target:n
        in
        match outcome.Sf_search.Runner.to_neighbor with
        | Some requests -> Sf_stats.Summary.add_int costs requests
        | None -> Sf_stats.Summary.add_int costs outcome.Sf_search.Runner.total_requests
      done;
      Printf.printf "  %-16s mean %8.1f requests to reach the newest peer's neighbourhood\n"
        strategy.Sf_search.Strategy.name (Sf_stats.Summary.mean costs))
    (Sf_search.Strategies.weak_portfolio ());
  Printf.printf
    "\n  -> every discipline pays thousands of requests: the paper's Theorem 1 says\n\
    \     >= %.1f on average is unavoidable (Omega(sqrt n)), because the newest\n\
    \     ~sqrt(n) peers are probabilistically interchangeable. Degree-seeking\n\
    \     cannot help - the hubs are the *old* peers, all equally far from every\n\
    \     interchangeable newcomer.\n"
    bound.Sf_core.Lower_bound.requests
