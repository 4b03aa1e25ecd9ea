module Rng = Sf_prng.Rng
module Searchability = Sf_core.Searchability
module Lower_bound = Sf_core.Lower_bound
module Strategies = Sf_search.Strategies
module Table = Sf_stats.Table

let bound_line ~p ~m sizes =
  let rows =
    List.map
      (fun n ->
        let b = Lower_bound.theorem1 ~p ~m ~n in
        [
          string_of_int n;
          string_of_int b.Lower_bound.set_size;
          Exp.fmt ~digits:4 b.Lower_bound.event_prob;
          Exp.fmt ~digits:2 b.Lower_bound.requests;
          Exp.fmt ~digits:2 (Lower_bound.asymptotic_theorem1 ~p ~n);
        ])
      sizes
  in
  Table.render
    ~headers:[ "n"; "|V|"; "P(E) exact"; "bound |V|P(E)/2"; "sqrt(n)e^{-(1-p)}/2" ]
    ~rows ()

(* Check that every measured point stays above the explicit bound, and
   collect per-strategy scaling exponents. *)
let confront ~p ~m points =
  let bound_ok =
    List.for_all
      (fun (pt : Searchability.point) ->
        pt.Searchability.mean
        >= (Lower_bound.theorem1 ~p ~m ~n:pt.Searchability.n).Lower_bound.requests)
      points
  in
  let strategies =
    List.sort_uniq compare (List.map (fun (pt : Searchability.point) -> pt.Searchability.strategy) points)
  in
  let fits =
    List.map (fun s -> (s, Searchability.exponent_fit points ~strategy:s)) strategies
  in
  (bound_ok, fits)

let render_fits fits =
  Table.render ~headers:[ "strategy"; "fitted exponent of mean requests" ]
    ~rows:(List.map (fun (s, fit) -> [ s; Exp.fmt_opt_exponent fit ]) fits)
    ()

let t1_weak_mori ~quick ~seed =
  let ps = Exp.pick ~quick:[ 0.5 ] ~full:[ 0.1; 0.5; 0.9 ] quick in
  let sizes =
    Exp.scales ~quick:[ 200; 400 ] ~full:[ 1_000; 2_000; 4_000; 8_000; 16_000 ] quick
  in
  let trials = Exp.pick ~quick:4 ~full:25 quick in
  let strategies =
    Exp.pick
      ~quick:[ Strategies.bfs; Strategies.high_degree; Strategies.random_edge ~skip_known:true ]
      ~full:(Strategies.weak_portfolio ())
      quick
  in
  let buf = Buffer.create 4096 in
  let checks = ref [] in
  List.iter
    (fun p ->
      let rng = Rng.split_at (Rng.of_seed seed) (int_of_float (p *. 1000.)) in
      let spec = { Searchability.default_spec with Searchability.trials } in
      let points =
        Searchability.measure rng
          ~make:(Searchability.mori_instance ~p ~m:1)
          ~strategies ~sizes ~spec
      in
      let bound_ok, fits = confront ~p ~m:1 points in
      Buffer.add_string buf (Exp.section (Printf.sprintf "T1: weak model, Mori tree, p = %.2f" p));
      Buffer.add_string buf (bound_line ~p ~m:1 sizes);
      Buffer.add_char buf '\n';
      Buffer.add_string buf (Exp.render_points points);
      Buffer.add_char buf '\n';
      Buffer.add_string buf (render_fits fits);
      Buffer.add_char buf '\n';
      let bound_series =
        {
          Sf_stats.Plot.label = "Lemma-1 bound";
          glyph = 'B';
          points =
            List.map
              (fun n ->
                (float_of_int n, (Lower_bound.theorem1 ~p ~m:1 ~n).Lower_bound.requests))
              sizes;
        }
      in
      Buffer.add_string buf (Exp.scaling_figure ~extra:[ bound_series ] points);
      Buffer.add_char buf '\n';
      checks :=
        (Printf.sprintf "p=%.2f: every strategy respects the explicit bound" p, bound_ok)
        :: !checks;
      if not quick then begin
        let best = Exp.best_strategy points in
        let fit = List.assoc best fits in
        checks :=
          ( Printf.sprintf "p=%.2f: best strategy (%s) scales with exponent >= 0.4" p best,
            fit.Sf_stats.Regression.slope >= 0.4 )
          :: !checks
      end)
    ps;
  {
    Exp.id = "T1";
    title = "Theorem 1 (weak model, m = 1): Omega(sqrt n) on the Mori tree";
    output = Buffer.contents buf;
    checks = List.rev !checks;
  }

let t2_merged_mori ~quick ~seed =
  let p = 0.5 in
  let ms = Exp.pick ~quick:[ 2 ] ~full:[ 2; 4 ] quick in
  let sizes = Exp.scales ~quick:[ 150; 300 ] ~full:[ 1_000; 4_000; 16_000 ] quick in
  let trials = Exp.pick ~quick:4 ~full:20 quick in
  let strategies =
    Exp.pick
      ~quick:[ Strategies.bfs; Strategies.high_degree ]
      ~full:(Strategies.weak_portfolio ())
      quick
  in
  let buf = Buffer.create 4096 in
  let checks = ref [] in
  List.iter
    (fun m ->
      let rng = Rng.split_at (Rng.of_seed seed) (1000 + m) in
      let spec = { Searchability.default_spec with Searchability.trials } in
      let points =
        Searchability.measure rng
          ~make:(Searchability.mori_instance ~p ~m)
          ~strategies ~sizes ~spec
      in
      let bound_ok, fits = confront ~p ~m points in
      Buffer.add_string buf
        (Exp.section (Printf.sprintf "T2: weak model, merged Mori graph, m = %d, p = %.2f" m p));
      Buffer.add_string buf (bound_line ~p ~m sizes);
      Buffer.add_char buf '\n';
      Buffer.add_string buf (Exp.render_points points);
      Buffer.add_char buf '\n';
      Buffer.add_string buf (render_fits fits);
      Buffer.add_char buf '\n';
      checks :=
        (Printf.sprintf "m=%d: every strategy respects the explicit bound" m, bound_ok) :: !checks)
    ms;
  {
    Exp.id = "T2";
    title = "Theorem 1 (weak model, m > 1): merging does not make the graph searchable";
    output = Buffer.contents buf;
    checks = List.rev !checks;
  }

let t3_strong_mori ~quick ~seed =
  let ps = Exp.pick ~quick:[ 0.25 ] ~full:[ 0.2; 0.35 ] quick in
  let sizes = Exp.scales ~quick:[ 200; 800 ] ~full:[ 1_000; 4_000; 16_000; 64_000 ] quick in
  let trials = Exp.pick ~quick:4 ~full:15 quick in
  let strategies =
    Exp.pick ~quick:[ Strategies.strong_seq; Strategies.strong_high_degree ]
      ~full:(Strategies.strong_portfolio ()) quick
  in
  let buf = Buffer.create 4096 in
  let checks = ref [] in
  List.iter
    (fun p ->
      let rng = Rng.split_at (Rng.of_seed seed) (2000 + int_of_float (p *. 100.)) in
      let spec = { Searchability.default_spec with Searchability.trials } in
      let points =
        Searchability.measure rng
          ~make:(Searchability.mori_instance ~p ~m:1)
          ~strategies ~sizes ~spec
      in
      let strategies_names =
        List.sort_uniq compare
          (List.map (fun (pt : Searchability.point) -> pt.Searchability.strategy) points)
      in
      let fits =
        List.map (fun s -> (s, Searchability.exponent_fit points ~strategy:s)) strategies_names
      in
      let predicted = Lower_bound.strong_model_exponent ~p in
      Buffer.add_string buf
        (Exp.section
           (Printf.sprintf "T3: strong model, Mori tree, p = %.2f (predicted exponent >= %.2f)" p
              predicted));
      Buffer.add_string buf (Exp.render_points points);
      Buffer.add_char buf '\n';
      Buffer.add_string buf (render_fits fits);
      Buffer.add_char buf '\n';
      if not quick then
        List.iter
          (fun (s, fit) ->
            checks :=
              ( Printf.sprintf "p=%.2f: %s exponent %.2f >= %.2f - slack" p s
                  fit.Sf_stats.Regression.slope predicted,
                fit.Sf_stats.Regression.slope >= predicted -. 0.15 )
              :: !checks)
          fits
      else
        checks :=
          ( Printf.sprintf "p=%.2f: strong searches cost requests" p,
            List.for_all (fun (pt : Searchability.point) -> pt.Searchability.mean >= 1.) points )
          :: !checks)
    ps;
  {
    Exp.id = "T3";
    title = "Theorem 1 (strong model): Omega(n^{1/2 - p}) for p < 1/2";
    output = Buffer.contents buf;
    checks = List.rev !checks;
  }

let t7_bound_vs_measured ~quick ~seed =
  let p = 0.5 in
  let sizes = Exp.scales ~quick:[ 200; 400 ] ~full:[ 1_000; 4_000; 16_000 ] quick in
  let trials = Exp.pick ~quick:4 ~full:20 quick in
  let rng = Rng.split_at (Rng.of_seed seed) 7 in
  let spec = { Searchability.default_spec with Searchability.trials } in
  let strategies =
    Exp.pick
      ~quick:[ Strategies.bfs; Strategies.high_degree ]
      ~full:(Strategies.weak_portfolio ())
      quick
  in
  let points =
    Searchability.measure rng
      ~make:(Searchability.mori_instance ~p ~m:1)
      ~strategies ~sizes ~spec
  in
  let rows, ok =
    List.fold_left
      (fun (rows, ok) (n, best_mean) ->
        let bound = (Lower_bound.theorem1 ~p ~m:1 ~n).Lower_bound.requests in
        let ratio = best_mean /. bound in
        ( [
            string_of_int n;
            Exp.fmt ~digits:2 bound;
            Exp.fmt ~digits:1 best_mean;
            Exp.fmt ~digits:2 ratio;
          ]
          :: rows,
          ok && ratio >= 1. ))
      ([], true) (Exp.min_mean_by_size points)
  in
  let table =
    Table.render
      ~headers:[ "n"; "Lemma-1 bound"; "cheapest measured mean"; "ratio" ]
      ~rows:(List.rev rows) ()
  in
  {
    Exp.id = "T7";
    title = "Lemma 1 in numbers: explicit bound vs the cheapest strategy";
    output = Exp.section "T7: explicit lower bound vs measured adversary (p = 0.5)" ^ table;
    checks = [ ("bound below every measured mean", ok) ];
  }

(* Replay a strong run as weak requests: each strong request on u
   becomes degree(u) weak requests (one per incident edge), exactly the
   reduction in the paper's proof sketch. *)
let t14_simulation_factor ~quick ~seed =
  let p = 0.3 in
  let sizes = Exp.scales ~quick:[ 500 ] ~full:[ 4_000; 16_000 ] quick in
  let trials = Exp.pick ~quick:3 ~full:10 quick in
  let master = Rng.of_seed seed in
  let buf = Buffer.create 1024 in
  let checks = ref [] in
  Buffer.add_string buf (Exp.section "T14: strong-to-weak simulation factor (p = 0.3)");
  let rows = ref [] in
  List.iteri
    (fun i n ->
      let ratios = Sf_stats.Summary.create () in
      let within = ref true in
      for trial = 0 to trials - 1 do
        let rng = Rng.split_at master ((i * 1000) + trial) in
        let g, target = Searchability.mori_instance ~p ~m:1 rng n in
        let oracle =
          Sf_search.Oracle.start ~rng Sf_search.Oracle.Strong g ~source:1 ~target
        in
        let outcome = Sf_search.Runner.run ~rng Strategies.strong_high_degree oracle in
        let strong_cost = outcome.Sf_search.Runner.total_requests in
        (* weak-simulation cost: sum of degrees over explored vertices *)
        let sim_cost = ref 0 in
        for j = 0 to Sf_search.Oracle.discovered_count oracle - 1 do
          let v = Sf_search.Oracle.discovered_nth oracle j in
          if Sf_search.Oracle.is_explored oracle v then
            sim_cost := !sim_cost + Sf_search.Oracle.degree oracle v
        done;
        Sf_search.Oracle.release oracle;
        let max_deg = Sf_graph.Ugraph.max_degree g in
        if !sim_cost > (max_deg + 1) * max 1 strong_cost then within := false;
        if strong_cost > 0 then
          Sf_stats.Summary.add ratios (float_of_int !sim_cost /. float_of_int strong_cost)
      done;
      rows :=
        [
          string_of_int n;
          Exp.fmt ~digits:1 (Sf_stats.Summary.mean ratios);
          Exp.fmt ~digits:1 (float_of_int n ** p);
        ]
        :: !rows;
      checks :=
        ( Printf.sprintf "n=%d: simulation cost <= (max degree + 1) x strong cost" n,
          !within )
        :: !checks)
    sizes;
  Buffer.add_string buf
    (Table.render
       ~headers:[ "n"; "mean sim/strong ratio"; "n^p (max-degree scale)" ]
       ~rows:(List.rev !rows) ());
  {
    Exp.id = "T14";
    title = "The strong-to-weak reduction loses at most a max-degree factor";
    output = Buffer.contents buf;
    checks = List.rev !checks;
  }
