module Rng = Sf_prng.Rng
module Searchability = Sf_core.Searchability
module Strategies = Sf_search.Strategies
module Percolation = Sf_search.Percolation
module Ugraph = Sf_graph.Ugraph
module Table = Sf_stats.Table

let t11_adamic ~quick ~seed =
  let ks = Exp.pick ~quick:[ 2.3 ] ~full:[ 2.1; 2.3; 2.5; 2.9 ] quick in
  let sizes = Exp.scales ~quick:[ 500; 1_500 ] ~full:[ 2_000; 8_000; 32_000 ] quick in
  let trials = Exp.pick ~quick:5 ~full:20 quick in
  let master = Rng.of_seed seed in
  let buf = Buffer.create 4096 in
  let checks = ref [] in
  (* Adamic et al.'s searchers see the identities of the current
     vertex's neighbours — our strong model; cost = vertices visited. *)
  let strategies =
    [ Strategies.strong_high_degree; Strategies.strong_random_walk; Strategies.strong_seq ]
  in
  List.iteri
    (fun ki k ->
      let rng = Rng.split_at master (1100 + ki) in
      let spec =
        {
          Searchability.trials;
          metric = Searchability.To_target;
          source = `Random;
          budget = (fun n -> (8 * n) + 64);
        }
      in
      let points =
        Searchability.measure rng
          ~make:(Searchability.config_model_instance ~exponent:k)
          ~strategies ~sizes ~spec
      in
      Buffer.add_string buf
        (Exp.section
           (Printf.sprintf
              "T11: Adamic et al. search on power-law configuration graphs, k = %.1f" k));
      Buffer.add_string buf
        (Printf.sprintf
           "mean-field prediction: greedy ~ n^%.2f, random walk ~ n^%.2f\n\n"
           (2. *. (1. -. (2. /. k)))
           (3. *. (1. -. (2. /. k))));
      Buffer.add_string buf (Exp.render_points points);
      Buffer.add_char buf '\n';
      let fits =
        List.map
          (fun s ->
            (s.Sf_search.Strategy.name,
             Searchability.exponent_fit points ~strategy:s.Sf_search.Strategy.name))
          strategies
      in
      Buffer.add_string buf
        (Table.render ~headers:[ "strategy"; "fitted exponent" ]
           ~rows:(List.map (fun (s, f) -> [ s; Exp.fmt_opt_exponent f ]) fits)
           ());
      Buffer.add_char buf '\n';
      let largest = List.nth sizes (List.length sizes - 1) in
      let mean_of name =
        (List.find
           (fun (pt : Searchability.point) ->
             pt.Searchability.n = largest && pt.Searchability.strategy = name)
           points)
          .Searchability.mean
      in
      let greedy = mean_of "s-high-degree" and walk = mean_of "s-rand-walk" in
      (* the crossover where degree-seeking overtakes the walk sits in
         the low thousands; only assert the ordering at full scale *)
      if not quick then
        checks :=
          ( Printf.sprintf "k=%.1f: high-degree greedy (%.0f) beats random walk (%.0f)" k
              greedy walk,
            greedy < walk )
          :: !checks;
      checks :=
        ( Printf.sprintf "k=%.1f: greedy sublinear (%.0f << n=%d)" k greedy largest,
          greedy < float_of_int largest /. 2. )
        :: !checks;
      if (not quick) && k >= 2.4 then begin
        let fit_of name = (List.assoc name fits).Sf_stats.Regression.slope in
        checks :=
          ( Printf.sprintf "k=%.1f: exponent ordering greedy < walk" k,
            fit_of "s-high-degree" < fit_of "s-rand-walk" )
          :: !checks
      end)
    ks;
  {
    Exp.id = "T11";
    title = "Adamic et al.: degree-driven search works on pure power-law graphs";
    output = Buffer.contents buf;
    checks = List.rev !checks;
  }

let t13_percolation ~quick ~seed =
  let sizes = Exp.scales ~quick:[ 500; 1_500 ] ~full:[ 2_000; 8_000; 32_000 ] quick in
  let probs = Exp.pick ~quick:[ 0.1; 0.8 ] ~full:[ 0.1; 0.3; 0.5; 1.0 ] quick in
  let trials = Exp.pick ~quick:10 ~full:30 quick in
  let master = Rng.of_seed seed in
  let buf = Buffer.create 4096 in
  let checks = ref [] in
  Buffer.add_string buf
    (Exp.section "T13: Sarshar et al. percolation search on power-law graphs (k = 2.3)");
  let hit_rate = Hashtbl.create 16 in
  let rows = ref [] in
  List.iteri
    (fun si n ->
      let rng = Rng.split_at master (1300 + si) in
      let u = Sf_gen.Config_model.searchable_power_law rng ~n ~exponent:2.3 () in
      let n' = Ugraph.n_vertices u in
      List.iter
        (fun q ->
          let base = Percolation.default_params ~n:n' in
          let params = { base with Percolation.broadcast_prob = q } in
          let hits = ref 0 in
          let messages = Sf_stats.Summary.create () in
          let contacted = Sf_stats.Summary.create () in
          for _ = 1 to trials do
            let source = 1 + Rng.int rng n' in
            let target = 1 + Rng.int rng n' in
            if source <> target then begin
              let r = Percolation.run rng u params ~source ~target in
              if r.Percolation.hit then incr hits;
              Sf_stats.Summary.add_int messages r.Percolation.messages;
              Sf_stats.Summary.add_int contacted r.Percolation.contacted
            end
          done;
          let rate = float_of_int !hits /. float_of_int trials in
          Hashtbl.replace hit_rate (n, q) rate;
          rows :=
            [
              Sf_stats.Table.fmt_int_grouped n';
              Exp.fmt ~digits:1 q;
              Exp.fmt ~digits:2 rate;
              Exp.fmt ~digits:0 (Sf_stats.Summary.mean messages);
              Exp.fmt ~digits:0 (Sf_stats.Summary.mean contacted);
              Exp.fmt ~digits:2
                (Sf_stats.Summary.mean contacted /. float_of_int n');
            ]
            :: !rows)
        probs)
    sizes;
  Buffer.add_string buf
    (Table.render
       ~headers:[ "n"; "q"; "hit rate"; "mean messages"; "mean contacted"; "contacted/n" ]
       ~rows:(List.rev !rows) ());
  let largest = List.nth sizes (List.length sizes - 1) in
  let high_q = List.nth probs (List.length probs - 1) in
  let low_q = List.hd probs in
  let rate nq = try Hashtbl.find hit_rate nq with Not_found -> 0. in
  checks :=
    [
      ( Printf.sprintf "high broadcast probability finds content (rate %.2f >= 0.7)"
          (rate (largest, high_q)),
        rate (largest, high_q) >= 0.7 );
      ( "higher broadcast probability never hurts",
        rate (largest, high_q) >= rate (largest, low_q) -. 0.15 );
    ];
  {
    Exp.id = "T13";
    title = "Percolation search: replication buys sublinear lookup";
    output = Buffer.contents buf;
    checks = !checks;
  }
