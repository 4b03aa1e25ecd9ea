(* Navigability: what scale-free graphs are missing.

   Kleinberg's small-world lattice is navigable when (and only when)
   the long-range links follow the inverse-square law r = 2: greedy
   geographic routing then takes O(log^2 n) hops.  This example sweeps
   r and contrasts the outcome with local search on a scale-free graph
   of the same size, where no metric exists to be greedy about.

   Run with:  dune exec examples/navigability.exe *)

let mean_route rng t ~trials =
  let side = t.Sf_gen.Kleinberg.side in
  let u = t.Sf_gen.Kleinberg.graph in
  let dist = Sf_gen.Kleinberg.lattice_distance ~side in
  let n = side * side in
  let costs = Sf_stats.Summary.create () in
  for _ = 1 to trials do
    let source = 1 + Sf_prng.Rng.int rng n in
    let target = 1 + Sf_prng.Rng.int rng n in
    if source <> target then begin
      let res =
        Sf_search.Geo_routing.greedy u ~dist ~source ~target ~max_steps:(16 * n)
      in
      if res.Sf_search.Geo_routing.reached then
        Sf_stats.Summary.add costs (float_of_int res.Sf_search.Geo_routing.steps)
    end
  done;
  Sf_stats.Summary.mean costs

let () =
  let rng = Sf_prng.Rng.of_seed 11 in
  let side_small = 24 and side = 96 in
  let n = side * side in
  let trials = 60 in

  Printf.printf "=== Greedy routing on Kleinberg tori: %dx%d vs %dx%d ===\n\n" side_small
    side_small side side;
  Printf.printf "  r    hops @ n=%-6d hops @ n=%-6d growth (x%d nodes)\n" (side_small * side_small)
    n
    (n / (side_small * side_small));
  List.iter
    (fun r ->
      let t_small =
        Sf_gen.Kleinberg.generate (Sf_prng.Rng.split rng) ~side:side_small ~r ~q:1 ()
      in
      let t_large = Sf_gen.Kleinberg.generate (Sf_prng.Rng.split rng) ~side ~r ~q:1 () in
      let h_small = mean_route (Sf_prng.Rng.split rng) t_small ~trials in
      let h_large = mean_route (Sf_prng.Rng.split rng) t_large ~trials in
      Printf.printf "  %.1f  %10.1f      %10.1f      %8.2f\n" r h_small h_large
        (h_large /. Float.max 1. h_small))
    [ 0.; 1.; 2.; 3.; 4. ];
  Printf.printf
    "\n  -> r = 2 is the asymptotic optimum (log^2 n routing; every other r is\n\
    \     polynomial). Above r = 2 the polynomial growth is already visible in\n\
    \     the growth column. Below r = 2 the polynomial exponent (2-r)/3 is so\n\
    \     small that truly separating it from log^2 needs graphs far beyond\n\
    \     simulation size - the optimum measured at finite n drifts up toward 2,\n\
    \     a well-known finite-size effect. The point for this paper stands\n\
    \     either way: with the right metric, tens of hops suffice.\n\n";

  Printf.printf "=== The same budget on a scale-free graph of equal size ===\n\n";
  let p = 0.75 in
  let bound = Sf_core.Lower_bound.theorem1 ~p ~m:1 ~n in
  let u =
    Sf_gen.Mori.tree (Sf_prng.Rng.split rng) ~p ~t:bound.Sf_core.Lower_bound.graph_size
  in
  let best = ref infinity and best_name = ref "" in
  List.iter
    (fun strategy ->
      let costs = Sf_stats.Summary.create () in
      for trial = 1 to 15 do
        let trial_rng = Sf_prng.Rng.split_at rng trial in
        let outcome =
          Sf_search.Runner.search ~stop_at:Sf_search.Runner.At_neighbor ~rng:trial_rng u
            strategy ~source:1 ~target:n
        in
        match outcome.Sf_search.Runner.to_neighbor with
        | Some requests -> Sf_stats.Summary.add_int costs requests
        | None -> Sf_stats.Summary.add_int costs outcome.Sf_search.Runner.total_requests
      done;
      let mean = Sf_stats.Summary.mean costs in
      Printf.printf "  %-16s %8.1f requests\n" strategy.Sf_search.Strategy.name mean;
      if mean < !best then begin
        best := mean;
        best_name := strategy.Sf_search.Strategy.name
      end)
    (Sf_search.Strategies.weak_portfolio ());
  Printf.printf
    "\n  Kleinberg at r = 2 routes in tens of hops; on the Mori graph even the best\n\
    \  strategy (%s, %.0f requests) cannot beat the proved bound of %.1f - there is\n\
    \  no hidden metric for identities in [1, n], and Theorem 1 shows none exists.\n"
    !best_name !best bound.Sf_core.Lower_bound.requests
