module Rng = Sf_prng.Rng
module Max_degree = Sf_core.Max_degree
module Metrics = Sf_graph.Metrics
module Power_law = Sf_stats.Power_law
module Table = Sf_stats.Table

let t8_max_degree ~quick ~seed =
  let ps = Exp.pick ~quick:[ 0.8 ] ~full:[ 0.3; 0.5; 0.8; 1.0 ] quick in
  let checkpoints =
    Exp.pick ~quick:[ 256; 1_024; 4_096; 8_192 ]
      ~full:[ 1_024; 4_096; 16_384; 65_536; 131_072 ]
      quick
  in
  let trials = Exp.pick ~quick:3 ~full:10 quick in
  let master = Rng.of_seed seed in
  let buf = Buffer.create 2048 in
  let checks = ref [] in
  Buffer.add_string buf (Exp.section "T8: Mori max-degree law - max indegree grows like t^p");
  let figure_series = ref [] in
  let rows =
    List.map
      (fun p ->
        let rng = Rng.split_at master (int_of_float (p *. 100.)) in
        let series = Max_degree.mean_max_indegree rng ~p ~checkpoints ~trials in
        figure_series :=
          {
            Sf_stats.Plot.label = Printf.sprintf "p=%.2f" p;
            glyph =
              Sf_stats.Plot.default_glyphs.(List.length !figure_series
                                            mod Array.length Sf_stats.Plot.default_glyphs);
            points = List.map (fun (t, m) -> (float_of_int t, m)) series;
          }
          :: !figure_series;
        let fit = Max_degree.fit_exponent series in
        let slope = fit.Sf_stats.Regression.slope in
        checks :=
          ( Printf.sprintf "p=%.2f: fitted max-degree exponent %.3f within 0.15 of p" p slope,
            Float.abs (slope -. p) < 0.15 )
          :: !checks;
        let last_t, last_v = List.nth series (List.length series - 1) in
        [
          Exp.fmt ~digits:2 p;
          Exp.fmt_opt_exponent fit;
          Printf.sprintf "%.1f @ t=%s" last_v (Sf_stats.Table.fmt_int_grouped last_t);
        ])
      ps
  in
  Buffer.add_string buf
    (Table.render ~headers:[ "p"; "fitted exponent (predict p)"; "mean max indegree" ] ~rows ());
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Sf_stats.Plot.render ~x_log:true ~y_log:true ~x_label:"t" ~y_label:"max indegree"
       (List.rev !figure_series));
  {
    Exp.id = "T8";
    title = "Mori's max-degree law: the premise of the strong-model corollary";
    output = Buffer.contents buf;
    checks = List.rev !checks;
  }

let fit_tail degrees = Power_law.fit_scan degrees ()

let t9_degree_law ~quick ~seed =
  let n = Exp.pick ~quick:20_000 ~full:200_000 quick in
  let master = Rng.of_seed seed in
  let buf = Buffer.create 4096 in
  let checks = ref [] in
  Buffer.add_string buf (Exp.section "T9: scale-free degree laws of the evolving models");
  let rows = ref [] in
  (* Mori trees: indegree density exponent 1 + 1/p *)
  List.iteri
    (fun i p ->
      let rng = Rng.split_at master (900 + i) in
      let g = Sf_gen.Mori.tree rng ~p ~t:n in
      let fit = fit_tail (Metrics.in_degrees g) in
      let predicted = Sf_gen.Mori.expected_degree_exponent ~p in
      checks :=
        ( Printf.sprintf "Mori p=%.2f: fitted gamma %.2f within 0.4 of %.2f" p
            fit.Power_law.alpha predicted,
          Float.abs (fit.Power_law.alpha -. predicted) < 0.4 )
        :: !checks;
      rows :=
        [
          Printf.sprintf "Mori p=%.2f (indegree)" p;
          Exp.fmt ~digits:2 predicted;
          Exp.fmt ~digits:2 fit.Power_law.alpha;
          string_of_int fit.Power_law.x_min;
          Exp.fmt ~digits:3 fit.Power_law.ks;
        ]
        :: !rows)
    (Exp.pick ~quick:[ 0.75 ] ~full:[ 0.55; 0.75; 0.9 ] quick);
  (* Barabasi-Albert: total-degree exponent 3 *)
  let rng_ba = Rng.split_at master 950 in
  let ba = Sf_gen.Barabasi_albert.generate rng_ba ~n:(Exp.pick ~quick:20_000 ~full:100_000 quick) ~m:2 in
  let ba_fit = fit_tail (Metrics.total_degrees ba) in
  checks :=
    ( Printf.sprintf "BA: fitted gamma %.2f within 0.4 of 3" ba_fit.Power_law.alpha,
      Float.abs (ba_fit.Power_law.alpha -. 3.) < 0.4 )
    :: !checks;
  rows :=
    [
      "Barabasi-Albert m=2 (total degree)";
      "3.00";
      Exp.fmt ~digits:2 ba_fit.Power_law.alpha;
      string_of_int ba_fit.Power_law.x_min;
      Exp.fmt ~digits:3 ba_fit.Power_law.ks;
    ]
    :: !rows;
  (* Cooper-Frieze: report the fitted tail and assert heavy-tailedness *)
  let rng_cf = Rng.split_at master 960 in
  let cf =
    Sf_gen.Cooper_frieze.generate_n_vertices rng_cf Sf_gen.Cooper_frieze.default
      ~n:(Exp.pick ~quick:10_000 ~full:50_000 quick)
  in
  let cf_degrees = Metrics.total_degrees cf in
  let cf_fit = fit_tail cf_degrees in
  let cf_max = Array.fold_left max 0 cf_degrees in
  let cf_mean = Metrics.mean_degree cf in
  checks :=
    ( Printf.sprintf "Cooper-Frieze: heavy tail (max degree %d >> mean %.1f)" cf_max cf_mean,
      float_of_int cf_max > 20. *. cf_mean )
    :: !checks;
  rows :=
    [
      "Cooper-Frieze default (total degree)";
      "-";
      Exp.fmt ~digits:2 cf_fit.Power_law.alpha;
      string_of_int cf_fit.Power_law.x_min;
      Exp.fmt ~digits:3 cf_fit.Power_law.ks;
    ]
    :: !rows;
  (* negative control: uniform attachment is NOT scale-free *)
  let rng_u = Rng.split_at master 970 in
  let ua = Sf_gen.Uniform_attachment.tree rng_u ~t:(Exp.pick ~quick:20_000 ~full:100_000 quick) in
  let ua_max = Metrics.max_in_degree ua in
  checks :=
    ( Printf.sprintf "uniform attachment control: max indegree %d stays logarithmic" ua_max,
      float_of_int ua_max < 8. *. log (float_of_int (Sf_graph.Ugraph.n_vertices ua)) )
    :: !checks;
  rows :=
    [ "uniform attachment (control)"; "(no power law)"; "-"; "-"; "-" ] :: !rows;
  Buffer.add_string buf
    (Table.render
       ~headers:[ "model"; "predicted gamma"; "fitted gamma (MLE)"; "x_min"; "KS" ]
       ~rows:(List.rev !rows) ());
  {
    Exp.id = "T9";
    title = "Power-law degree distributions (and a non-scale-free control)";
    output = Buffer.contents buf;
    checks = List.rev !checks;
  }
