(* Quickstart: build a scale-free graph, search it under the paper's
   weak local-knowledge model, and compare what you paid with the
   paper's lower bound.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  let seed = 42 in
  let rng = Sf_prng.Rng.of_seed seed in

  (* 1. Grow a Mori graph: mixed uniform/preferential attachment with
     p = 0.6, merged in blocks of m = 2, sized so that the newest
     vertices still form the paper's equivalence window. *)
  let p = 0.6 and m = 2 and n = 20_000 in
  let bound = Sf_core.Lower_bound.theorem1 ~p ~m ~n in
  let u = Sf_gen.Mori.graph rng ~p ~m ~n:bound.Sf_core.Lower_bound.graph_size in
  Printf.printf "Mori graph: %s vertices, %s edges (p = %.1f, m = %d)\n"
    (Sf_stats.Table.fmt_int_grouped (Sf_graph.Ugraph.n_vertices u))
    (Sf_stats.Table.fmt_int_grouped (Sf_graph.Ugraph.n_edges u))
    p m;

  (* 2. It is a small world: the whole graph sits within a few hops. *)
  let diameter = Sf_graph.Traversal.diameter_double_sweep u rng in
  Printf.printf "diameter ~ %d hops (ln n = %.1f) - a genuine small world\n\n" diameter
    (log (float_of_int n));

  (* 3. Search for the newest vertex with every weak-model strategy,
     starting from the old, well-connected vertex 1. *)
  Printf.printf "searching for vertex %s from vertex 1 (weak model):\n"
    (Sf_stats.Table.fmt_int_grouped n);
  let outcomes =
    List.map
      (fun strategy ->
        let outcome =
          Sf_search.Runner.search ~rng:(Sf_prng.Rng.split rng) u strategy ~source:1 ~target:n
        in
        (outcome.Sf_search.Runner.strategy, outcome.Sf_search.Runner.to_target))
      (Sf_search.Strategies.weak_portfolio ())
  in
  List.iter
    (fun (name, cost) ->
      Printf.printf "  %-16s %s requests\n" name
        (match cost with
        | Some requests -> Sf_stats.Table.fmt_int_grouped requests
        | None -> "gave up / out of budget"))
    outcomes;

  (* 4. The paper's Theorem 1, with the constants filled in: no
     algorithm whatsoever can do better than this on average. *)
  Printf.printf
    "\nTheorem 1 lower bound for this instance: any weak-model searcher needs\n\
     >= %.1f expected requests (window [%d, %d] of %d interchangeable vertices,\n\
     containment event probability %.3f).\n"
    bound.Sf_core.Lower_bound.requests (bound.Sf_core.Lower_bound.a + 1)
    bound.Sf_core.Lower_bound.b bound.Sf_core.Lower_bound.set_size
    bound.Sf_core.Lower_bound.event_prob;
  Printf.printf
    "Asymptotically: Omega(sqrt n) ~ %.0f, despite the %d-hop diameter.\n"
    (Sf_core.Lower_bound.asymptotic_theorem1 ~p ~n)
    diameter
