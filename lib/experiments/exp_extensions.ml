module Rng = Sf_prng.Rng
module Ugraph = Sf_graph.Ugraph
module Correlation = Sf_graph.Correlation
module Clustering = Sf_graph.Clustering
module Kcore = Sf_graph.Kcore
module Metrics = Sf_graph.Metrics
module Lower_bound = Sf_core.Lower_bound
module Table = Sf_stats.Table

let t15_degree_correlations ~quick ~seed =
  let n = Exp.pick ~quick:4_000 ~full:30_000 quick in
  let master = Rng.of_seed seed in
  let buf = Buffer.create 2048 in
  let checks = ref [] in
  Buffer.add_string buf
    (Exp.section
       "T15: neighbour-degree dependence - evolving vs pure random scale-free graphs");
  let stats = Hashtbl.create 8 in
  let models =
    [
      ("Mori p=0.75 m=2", fun rng -> Sf_gen.Mori.graph rng ~p:0.75 ~m:2 ~n);
      ( "Cooper-Frieze",
        fun rng ->
          Sf_gen.Cooper_frieze.generate_n_vertices rng Sf_gen.Cooper_frieze.default ~n );
      ("LCD (BA) m=2", fun rng -> Ugraph.of_digraph (Sf_gen.Lcd.generate rng ~n ~m:2));
      ( "config model k=2.33",
        fun rng ->
          Ugraph.of_digraph (Sf_gen.Config_model.searchable_power_law rng ~n ~exponent:2.33 ())
      );
    ]
  in
  let rows =
    List.mapi
      (fun i (name, make) ->
        let rng = Rng.split_at master (1500 + i) in
        let u = make rng in
        let assort = Correlation.assortativity u in
        let knn = Correlation.knn_slope u in
        let age = Correlation.age_degree_spearman u in
        let clustering = Clustering.average_local u in
        let degeneracy = Kcore.degeneracy u in
        Hashtbl.replace stats name (assort, knn, age);
        [
          name;
          Exp.fmt ~digits:3 assort;
          Exp.fmt ~digits:3 knn;
          Exp.fmt ~digits:3 age;
          Exp.fmt ~digits:4 clustering;
          string_of_int degeneracy;
        ])
      models
  in
  Buffer.add_string buf
    (Table.render
       ~headers:
         [ "model"; "assortativity"; "knn slope"; "age-degree rho"; "clustering"; "degeneracy" ]
       ~rows ());
  Buffer.add_string buf
    "\nage-degree rho: Spearman correlation of insertion time with degree.\n\
     Evolving models couple age and degree (rho strongly negative) and bend the\n\
     knn curve; the configuration model keeps neighbour degrees near-independent\n\
     - which is why mean-field search analysis works there and fails here.\n";
  let get name = Hashtbl.find stats name in
  let _, mori_knn, mori_age = get "Mori p=0.75 m=2" in
  let _, _, cf_age = get "Cooper-Frieze" in
  let _, conf_knn, conf_age = get "config model k=2.33" in
  checks :=
    [
      ( Printf.sprintf "Mori age-degree coupling strong (rho = %.2f < -0.25)" mori_age,
        mori_age < -0.25 );
      ( Printf.sprintf "Cooper-Frieze age-degree coupling strong (rho = %.2f < -0.25)" cf_age,
        cf_age < -0.25 );
      ( Printf.sprintf "config model age-degree free (|rho| = %.3f < 0.05)" conf_age,
        Float.abs conf_age < 0.05 );
      ( Printf.sprintf "Mori knn slope (%.2f) well below config's (%.2f)" mori_knn conf_knn,
        mori_knn < conf_knn -. 0.2 );
    ];
  {
    Exp.id = "T15";
    title = "Evolving graphs correlate neighbour degrees; pure random graphs do not";
    output = Buffer.contents buf;
    checks = !checks;
  }

let max_degree_prefix_series g ~checkpoints =
  (* max total degree of the prefix graph on vertices 1..t, replayed
     from the edge timeline *)
  let n = Sf_graph.Digraph.n_vertices g in
  let deg = Array.make n 0 in
  let running = ref 0 in
  let results = Hashtbl.create 8 in
  let sorted_cps = List.sort_uniq compare checkpoints in
  let cps = ref sorted_cps in
  (* edges are timestamped; vertex t's arrival edges come before any
     later vertex's, so processing edges in id order while tracking the
     max suffices as long as checkpoints are sampled at vertex
     boundaries (LCD: edge id k-1 belongs to vertex k). *)
  Sf_graph.Digraph.iter_edges g (fun e ->
      deg.(e.Sf_graph.Digraph.src - 1) <- deg.(e.Sf_graph.Digraph.src - 1) + 1;
      deg.(e.Sf_graph.Digraph.dst - 1) <- deg.(e.Sf_graph.Digraph.dst - 1) + 1;
      running := max !running (max deg.(e.Sf_graph.Digraph.src - 1) deg.(e.Sf_graph.Digraph.dst - 1));
      match !cps with
      | t :: rest when e.Sf_graph.Digraph.id = t - 1 ->
        Hashtbl.replace results t !running;
        cps := rest
      | _ -> ());
  List.map (fun t -> (t, Hashtbl.find results t)) sorted_cps

let t16_total_degree_models ~quick ~seed =
  let checkpoints =
    Exp.pick ~quick:[ 512; 2_048; 8_192 ] ~full:[ 1_024; 4_096; 16_384; 65_536; 262_144 ] quick
  in
  let trials = Exp.pick ~quick:3 ~full:8 quick in
  let master = Rng.of_seed seed in
  let buf = Buffer.create 2048 in
  let t_max = List.fold_left max 2 checkpoints in
  Buffer.add_string buf
    (Exp.section "T16: total-degree preferential attachment - max degree ~ sqrt(t)");
  (* mean max-degree series over LCD trees *)
  let sums = Hashtbl.create 8 in
  for trial = 0 to trials - 1 do
    let rng = Rng.split_at master (1600 + trial) in
    let g = Sf_gen.Lcd.tree1 rng ~t:t_max in
    List.iter
      (fun (t, m) ->
        Hashtbl.replace sums t (m + Option.value ~default:0 (Hashtbl.find_opt sums t)))
      (max_degree_prefix_series g ~checkpoints)
  done;
  let series =
    List.map
      (fun t -> (t, float_of_int (Hashtbl.find sums t) /. float_of_int trials))
      (List.sort_uniq compare checkpoints)
  in
  let fit =
    Sf_stats.Regression.log_log (List.map (fun (t, m) -> (float_of_int t, m)) series)
  in
  Buffer.add_string buf
    (Table.render
       ~headers:[ "t"; "mean max degree (LCD)"; "sqrt(t)" ]
       ~rows:
         (List.map
            (fun (t, m) ->
              [
                Sf_stats.Table.fmt_int_grouped t;
                Exp.fmt ~digits:1 m;
                Exp.fmt ~digits:1 (sqrt (float_of_int t));
              ])
            series)
       ());
  Buffer.add_string buf
    (Printf.sprintf "\nfitted growth exponent: %s (predicted 1/2)\n" (Exp.fmt_opt_exponent fit));
  (* the paper's closing remark, in numbers *)
  let n = List.fold_left max 2 checkpoints in
  let lcd_max = snd (List.nth series (List.length series - 1)) in
  let weak_bound = Lower_bound.asymptotic_theorem1 ~p:1.0 ~n in
  Buffer.add_string buf
    (Printf.sprintf
       "\nStrong-model corollary check at n = %s: the weak bound is ~%.0f requests,\n\
        but the simulation loses a factor of the max degree ~%.0f >= sqrt(n) ~%.0f,\n\
        so the derived strong-model bound collapses to O(1) - 'making our upper\n\
        bound trivial', as the paper concludes for total-degree models. The\n\
        indegree-based Mori rephrasing (max degree t^p, p < 1/2) is what rescues it.\n"
       (Sf_stats.Table.fmt_int_grouped n)
       weak_bound lcd_max
       (sqrt (float_of_int n)));
  let slope = fit.Sf_stats.Regression.slope in
  {
    Exp.id = "T16";
    title = "BA/LCD max degree grows like sqrt(t): the strong bound is vacuous there";
    output = Buffer.contents buf;
    checks =
      [
        ( Printf.sprintf "LCD max-degree exponent %.3f within 0.1 of 1/2" slope,
          Float.abs (slope -. Sf_gen.Lcd.max_degree_exponent) < 0.1 );
        ( "max degree at the largest size is at least sqrt(n)/2",
          lcd_max >= sqrt (float_of_int n) /. 2. );
      ];
  }

let t17_timestamp_leak ~quick ~seed =
  let p = 0.5 in
  let sizes = Exp.scales ~quick:[ 1_000 ] ~full:[ 4_000; 16_000 ] quick in
  let trials = Exp.pick ~quick:5 ~full:15 quick in
  let master = Rng.of_seed seed in
  let buf = Buffer.create 2048 in
  let checks = ref [] in
  Buffer.add_string buf
    (Exp.section "T17: does leaking edge timestamps break the lower bound?");
  Buffer.add_string buf
    "Raw edge ids in a Mori tree are insertion timestamps; with them visible the\n\
     exchangeability argument behind Lemma 2 no longer applies (sigma permutes\n\
     timestamps). The leak-exploiting strategy recognises the target's own edge\n\
     for free once the father is discovered. Measured with the leak open\n\
     (obfuscate = false) and sealed (the default oracle):\n\n";
  let rows = ref [] in
  List.iteri
    (fun si n ->
      let bound = Lower_bound.theorem1 ~p ~m:1 ~n in
      let measure ~obfuscate strategy =
        let costs = Sf_stats.Summary.create () in
        for trial = 0 to trials - 1 do
          let rng = Rng.split_at master ((si * 10_000) + (if obfuscate then 5_000 else 0) + trial) in
          let u = Sf_gen.Mori.graph rng ~p ~m:1 ~n:bound.Lower_bound.graph_size in
          let outcome =
            Sf_search.Runner.search ~obfuscate ~stop_at:Sf_search.Runner.At_neighbor ~rng u
              strategy ~source:1 ~target:n
          in
          let cost =
            Option.value
              ~default:outcome.Sf_search.Runner.total_requests
              outcome.Sf_search.Runner.to_neighbor
          in
          Sf_stats.Summary.add_int costs cost
        done;
        Sf_stats.Summary.mean costs
      in
      let cheat_raw = measure ~obfuscate:false Sf_search.Strategies.timestamp_cheat in
      let cheat_sealed = measure ~obfuscate:true Sf_search.Strategies.timestamp_cheat in
      let bfs_raw = measure ~obfuscate:false Sf_search.Strategies.bfs in
      rows :=
        [
          string_of_int n;
          Exp.fmt ~digits:1 bound.Lower_bound.requests;
          Exp.fmt ~digits:1 cheat_raw;
          Exp.fmt ~digits:1 cheat_sealed;
          Exp.fmt ~digits:1 bfs_raw;
        ]
        :: !rows;
      checks :=
        ( Printf.sprintf "n=%d: even with the leak, cost %.0f >= bound %.1f" n cheat_raw
            bound.Lower_bound.requests,
          cheat_raw >= bound.Lower_bound.requests )
        :: ( Printf.sprintf "n=%d: the leak gives no order-of-magnitude gain (%.0f vs %.0f)" n
               cheat_raw cheat_sealed,
             cheat_raw > cheat_sealed /. 10. )
        :: !checks)
    sizes;
  Buffer.add_string buf
    (Table.render
       ~headers:
         [ "n"; "Lemma-1 bound"; "cheat (leak open)"; "cheat (sealed)"; "bfs (leak open)" ]
       ~rows:(List.rev !rows) ());
  Buffer.add_string buf
    "\n-> knowing *which* edge is the target's does not reveal *where* it is: the\n\
    \   father of a fresh vertex is spread nearly uniformly, so the measured cost\n\
    \   stays at the unsealed oracle's level and far above the bound. The proof\n\
    \   needs the timestamp-free model; the phenomenon itself appears robust.\n";
  {
    Exp.id = "T17";
    title = "Timestamp-leak ablation: the proof breaks, the phenomenon survives";
    output = Buffer.contents buf;
    checks = List.rev !checks;
  }

(* --- T21: attack tolerance ------------------------------------------- *)

let survivors_after_removal rng g ~fraction ~mode =
  let n = Sf_graph.Digraph.n_vertices g in
  let k = int_of_float (fraction *. float_of_int n) in
  let doomed = Array.make n false in
  (match mode with
  | `Random ->
    Array.iter
      (fun v -> doomed.(v) <- true)
      (Sf_prng.Shuffle.sample_without_replacement rng ~k ~n)
  | `Attack ->
    (* remove the k highest-degree vertices *)
    let order = Array.init n (fun i -> i) in
    let deg = Sf_graph.Metrics.total_degrees g in
    Array.sort (fun a b -> compare deg.(b) deg.(a)) order;
    for i = 0 to k - 1 do
      doomed.(order.(i)) <- true
    done);
  let kept = ref [] in
  for v = n downto 1 do
    if not (doomed.(v - 1)) then kept := v :: !kept
  done;
  fst (Sf_graph.Subgraph.induced g ~vertices:!kept)

let giant_fraction g ~original_n =
  let u = Ugraph.of_digraph g in
  let sizes = Sf_graph.Traversal.component_sizes u in
  let giant = Array.fold_left max 0 sizes in
  float_of_int giant /. float_of_int original_n

let t21_attack_tolerance ~quick ~seed =
  let n = Exp.pick ~quick:3_000 ~full:20_000 quick in
  let fractions = Exp.pick ~quick:[ 0.1; 0.3 ] ~full:[ 0.05; 0.1; 0.2; 0.4 ] quick in
  let master = Rng.of_seed seed in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Exp.section "T21: attack tolerance - random failures vs targeted hub removal");
  let sf = Sf_gen.Lcd.generate (Rng.split_at master 2100) ~n ~m:2 in
  let er = Sf_gen.Erdos_renyi.gnm (Rng.split_at master 2101) ~n ~m:(Sf_graph.Digraph.n_edges sf) in
  let results = Hashtbl.create 32 in
  let rows = ref [] in
  List.iter
    (fun (gname, g) ->
      List.iter
        (fun fraction ->
          List.iter
            (fun (mname, mode) ->
              let rng = Rng.split_at master (2110 + int_of_float (fraction *. 100.)) in
              let survivor = survivors_after_removal rng g ~fraction ~mode in
              let frac = giant_fraction survivor ~original_n:n in
              Hashtbl.replace results (gname, fraction, mname) frac;
              rows :=
                [
                  gname;
                  Exp.fmt ~digits:2 fraction;
                  mname;
                  Exp.fmt ~digits:3 frac;
                ]
                :: !rows)
            [ ("random failure", `Random); ("hub attack", `Attack) ])
        fractions)
    [ ("scale-free (LCD m=2)", sf); ("Erdos-Renyi control", er) ];
  Buffer.add_string buf
    (Table.render
       ~headers:[ "graph"; "removed fraction"; "removal mode"; "giant component / n" ]
       ~rows:(List.rev !rows) ());
  Buffer.add_string buf
    "\ngiant component sizes are relative to the ORIGINAL vertex count, so even a\n\
     perfectly robust graph shows 1 - f after removing a fraction f.\n";
  let get g f m = Hashtbl.find results (g, f, m) in
  let f_hi = List.nth fractions (List.length fractions - 1) in
  let sf_name = "scale-free (LCD m=2)" and er_name = "Erdos-Renyi control" in
  let sf_random = get sf_name f_hi "random failure" in
  let sf_attack = get sf_name f_hi "hub attack" in
  let er_random = get er_name f_hi "random failure" in
  let er_attack = get er_name f_hi "hub attack" in
  let checks =
    [
      ( Printf.sprintf "scale-free robust to random failure (%.2f >= 0.8 x (1-f))" sf_random,
        sf_random >= 0.8 *. (1. -. f_hi) );
      ( Printf.sprintf "hub attack shatters the scale-free graph (%.2f < %.2f / 2)" sf_attack
          sf_random,
        sf_attack < sf_random /. 2. );
      ( Printf.sprintf "attack hits scale-free harder than ER (%.2f < %.2f)"
          (sf_attack /. Float.max 1e-9 sf_random)
          (er_attack /. Float.max 1e-9 er_random),
        sf_attack /. Float.max 1e-9 sf_random < er_attack /. Float.max 1e-9 er_random );
    ]
  in
  {
    Exp.id = "T21";
    title = "Hubs are the strength and the weakness: attack vs failure";
    output = Buffer.contents buf;
    checks;
  }

(* --- T23: the open problem ------------------------------------------- *)

let t23_open_problem ~quick ~seed =
  (* The paper closes: polylog searchability of scale-free graphs
     remains open — its strong-model bound says nothing for p >= 1/2.
     Probe that regime: if some strategy were polylog there, its
     fitted exponent would collapse toward 0 as n grows. *)
  let ps = Exp.pick ~quick:[ 0.6 ] ~full:[ 0.5; 0.7; 0.9 ] quick in
  let sizes = Exp.scales ~quick:[ 300; 900 ] ~full:[ 2_000; 8_000; 32_000 ] quick in
  let trials = Exp.pick ~quick:4 ~full:12 quick in
  let master = Rng.of_seed seed in
  let buf = Buffer.create 2048 in
  let checks = ref [] in
  Buffer.add_string buf
    (Exp.section
       "T23: the paper's open problem - strong-model search where the bound is vacuous (p >= 1/2)");
  Buffer.add_string buf
    "For p >= 1/2 the strong-model lower bound n^{1/2 - p} is trivial, and the\n\
     paper leaves polylog navigability open. Exploratory measurement (not a\n\
     theorem): fitted exponents of the strong portfolio in that regime.\n\n";
  List.iter
    (fun p ->
      let rng = Rng.split_at master (2300 + int_of_float (p *. 100.)) in
      let spec =
        { Sf_core.Searchability.default_spec with Sf_core.Searchability.trials }
      in
      let points =
        Sf_core.Searchability.measure rng
          ~make:(Sf_core.Searchability.mori_instance ~p ~m:1)
          ~strategies:(Sf_search.Strategies.strong_portfolio ())
          ~sizes ~spec
      in
      let names =
        List.sort_uniq compare
          (List.map
             (fun (pt : Sf_core.Searchability.point) -> pt.Sf_core.Searchability.strategy)
             points)
      in
      let fits =
        List.map
          (fun s -> (s, Sf_core.Searchability.exponent_fit points ~strategy:s))
          names
      in
      Buffer.add_string buf (Printf.sprintf "p = %.2f:\n" p);
      Buffer.add_string buf
        (Table.render ~headers:[ "strategy"; "fitted exponent" ]
           ~rows:(List.map (fun (s, f) -> [ s; Exp.fmt_opt_exponent f ]) fits)
           ());
      Buffer.add_char buf '\n';
      (* the cheapest strategy is the navigability candidate; at quick
         scale two-point fits are noise, so fall back to a super-log
         cost floor *)
      let best = Exp.best_strategy points in
      let largest = List.fold_left max 0 sizes in
      let best_mean =
        (List.find
           (fun (pt : Sf_core.Searchability.point) ->
             pt.Sf_core.Searchability.n = largest
             && pt.Sf_core.Searchability.strategy = best)
           points)
          .Sf_core.Searchability.mean
      in
      if quick then
        (* tiny instances cannot separate polylog from polynomial (the
           hub shortcut already bites at n < 1000); just assert the
           probe produced sane measurements *)
        checks :=
          ( Printf.sprintf "p=%.2f: probe ran (cheapest %s paid %.0f requests)" p best
              best_mean,
            best_mean >= 1. )
          :: !checks
      else begin
        let fit = List.assoc best fits in
        let slope = fit.Sf_stats.Regression.slope in
        (* measured dichotomy: moderate p stays polynomial; at p near 1
           the indegree hubs grow like t^p and one whole-neighbourhood
           answer covers most of the graph, so strong-model search
           collapses to near-constant cost *)
        if p <= 0.75 then
          checks :=
            ( Printf.sprintf
                "p=%.2f: cheapest strategy (%s) stays polynomial (exponent %.2f > 0.25)" p
                best slope,
              slope > 0.25 )
            :: !checks
        else
          checks :=
            ( Printf.sprintf
                "p=%.2f: hub regime - strong search nearly size-free (exponent %.2f < 0.25)" p
                slope,
              slope < 0.25 )
            :: !checks
      end)
    ps;
  Buffer.add_string buf
    "-> a measured dichotomy: at moderate p every strategy stays firmly\n\
    \   polynomial, but as p -> 1 the max indegree grows like t^p and a single\n\
    \   whole-neighbourhood answer at a hub covers most of the graph - the\n\
    \   cheapest strong strategy becomes nearly size-free. Both faces are\n\
    \   consistent with the paper: the weak-model Omega(sqrt n) holds for ALL p\n\
    \   (T1 verifies it at p = 0.9 too - paying per edge kills the hub\n\
    \   shortcut), while the strong model is only constrained for p < 1/2,\n\
    \   and this probe suggests that gap is real, not an artifact of the proof.\n";
  {
    Exp.id = "T23";
    title = "Probing the open problem: a strong-model dichotomy across p";
    output = Buffer.contents buf;
    checks = List.rev !checks;
  }

let t18_window_ablation ~quick ~seed =
  ignore seed;
  let ps = Exp.pick ~quick:[ 0.5 ] ~full:[ 0.1; 0.5; 0.9 ] quick in
  let a_values = Exp.pick ~quick:[ 1_000 ] ~full:[ 1_000; 100_000 ] quick in
  let buf = Buffer.create 2048 in
  let checks = ref [] in
  Buffer.add_string buf
    (Exp.section "T18: window-size ablation - is the paper's sqrt(a) window optimal?");
  let rows = ref [] in
  List.iter
    (fun p ->
      List.iter
        (fun a ->
          let root = int_of_float (sqrt (float_of_int (a - 1))) in
          let widths = [ root / 4; root / 2; root; 2 * root; 4 * root ] in
          let tradeoff = Lower_bound.window_tradeoff ~p ~a ~widths in
          let best = Lower_bound.optimal_window ~p ~a () in
          let canonical = List.nth tradeoff 2 in
          List.iter
            (fun (c : Lower_bound.window_choice) ->
              rows :=
                [
                  Exp.fmt ~digits:1 p;
                  Sf_stats.Table.fmt_int_grouped a;
                  string_of_int c.Lower_bound.width;
                  Exp.fmt ~digits:4 c.Lower_bound.event_prob;
                  Exp.fmt ~digits:2 c.Lower_bound.requests;
                  (if c.Lower_bound.width = root then "<- paper's choice" else "");
                ]
                :: !rows)
            tradeoff;
          rows :=
            [
              Exp.fmt ~digits:1 p;
              Sf_stats.Table.fmt_int_grouped a;
              string_of_int best.Lower_bound.width;
              Exp.fmt ~digits:4 best.Lower_bound.event_prob;
              Exp.fmt ~digits:2 best.Lower_bound.requests;
              "<- exact optimum";
            ]
            :: !rows;
          (* continuous theory: log P ~ -(1-p) w^2 / (2a), so the
             optimum sits at w* ~ sqrt(a / (1-p)) with gain
             e^{-1/2} / (sqrt(1-p) e^{-(1-p)/2}) over the paper's
             sqrt(a) window — drifting above sqrt(a) as p -> 1, where
             the containment event is nearly free *)
          let w_theory = sqrt (float_of_int a /. (1. -. p)) in
          let predicted_gain =
            exp (-0.5) /. (sqrt (1. -. p) *. exp (-.(1. -. p) /. 2.))
          in
          let ratio = best.Lower_bound.requests /. canonical.Lower_bound.requests in
          checks :=
            ( Printf.sprintf
                "p=%.1f a=%d: optimal width %d ~ theory sqrt(a/(1-p)) = %.0f" p a
                best.Lower_bound.width w_theory,
              float_of_int best.Lower_bound.width >= w_theory /. 3.
              && float_of_int best.Lower_bound.width <= 3. *. w_theory )
            :: ( Printf.sprintf
                   "p=%.1f a=%d: gain over the paper's window %.2fx ~ predicted %.2fx" p a
                   ratio predicted_gain,
                 ratio <= 1.6 *. predicted_gain && ratio >= predicted_gain /. 1.6 )
            :: !checks)
        a_values)
    ps;
  Buffer.add_string buf
    (Table.render
       ~headers:[ "p"; "a"; "width w"; "P(E_{a,a+w})"; "bound w P(E)/2"; "" ]
       ~rows:(List.rev !rows) ());
  Buffer.add_string buf
    "\n-> the bound rises linearly while P(E) stays ~constant up to w ~ sqrt(a/(1-p)),\n\
    \   then exponential decay takes over. The exact optimum sits at\n\
    \   sqrt(a/(1-p)) - the paper's sqrt(a) choice is the right order for every p\n\
    \   and within a small constant for moderate p; as p -> 1 the containment\n\
    \   event becomes free and wider windows strengthen the bound (in the p = 1\n\
    \   star limit it reaches the trivially correct ~n/2).\n";
  {
    Exp.id = "T18";
    title = "The sqrt(a) equivalence window is (near-)optimal for Lemma 1";
    output = Buffer.contents buf;
    checks = List.rev !checks;
  }
