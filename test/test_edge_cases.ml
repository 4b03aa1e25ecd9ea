(* API-contract tests: every documented precondition raises the
   documented exception, and boundary inputs behave as specified.
   Complements the behavioural suites with robustness coverage. *)

module Rng = Sf_prng.Rng
module Digraph = Sf_graph.Digraph
module Ugraph = Sf_graph.Ugraph

let rng () = Rng.of_seed 12345

let raises name exn f = Alcotest.check_raises name exn f

(* --- prng ------------------------------------------------------------- *)

let test_dist_guards () =
  let r = rng () in
  raises "exponential rate" (Invalid_argument "Dist.exponential: rate must be positive")
    (fun () -> ignore (Sf_prng.Dist.exponential r ~rate:0.));
  raises "geometric p=0" (Invalid_argument "Dist.geometric: need 0 < p <= 1") (fun () ->
      ignore (Sf_prng.Dist.geometric r ~p:0.));
  raises "zeta alpha" (Invalid_argument "Dist.zeta: need alpha > 1") (fun () ->
      ignore (Sf_prng.Dist.zeta r ~alpha:1.));
  raises "binomial n" (Invalid_argument "Dist.binomial: n must be non-negative") (fun () ->
      ignore (Sf_prng.Dist.binomial r ~n:(-1) ~p:0.5));
  raises "pareto" (Invalid_argument "Dist.pareto: need alpha > 0 and x_min > 0") (fun () ->
      ignore (Sf_prng.Dist.pareto r ~alpha:0. ~x_min:1.));
  raises "zipf n" (Invalid_argument "Dist.zipf_bounded: n must be >= 1") (fun () ->
      ignore (Sf_prng.Dist.zipf_bounded r ~alpha:2. ~n:0));
  raises "poisson mean" (Invalid_argument "Dist.poisson: mean must be non-negative")
    (fun () -> ignore (Sf_prng.Dist.poisson r ~mean:(-1.)))

let test_dist_boundaries () =
  let r = rng () in
  Alcotest.(check int) "binomial n=0" 0 (Sf_prng.Dist.binomial r ~n:0 ~p:0.5);
  Alcotest.(check int) "zipf n=1 is constant" 1 (Sf_prng.Dist.zipf_bounded r ~alpha:2.5 ~n:1);
  Alcotest.(check int) "poisson mean 0" 0 (Sf_prng.Dist.poisson r ~mean:0.);
  (* power-law sequence degenerate support *)
  let seq = Sf_prng.Dist.discrete_power_law_sequence r ~exponent:2.5 ~d_min:3 ~d_max:3 ~n:10 in
  Alcotest.(check bool) "degenerate support constant" true (Array.for_all (( = ) 3) seq)

let test_shuffle_guards () =
  let r = rng () in
  raises "k > n" (Invalid_argument "Shuffle.sample_without_replacement: need 0 <= k <= n")
    (fun () -> ignore (Sf_prng.Shuffle.sample_without_replacement r ~k:5 ~n:3));
  Alcotest.(check int) "k = 0" 0
    (Array.length (Sf_prng.Shuffle.sample_without_replacement r ~k:0 ~n:3));
  Alcotest.(check int) "empty permutation" 0 (Array.length (Sf_prng.Shuffle.permutation r 0))

(* --- graph ------------------------------------------------------------- *)

let test_empty_graph_behaviour () =
  let g = Digraph.create () in
  Alcotest.(check int) "no vertices" 0 (Digraph.n_vertices g);
  Alcotest.(check int) "no edges" 0 (Digraph.n_edges g);
  Alcotest.(check bool) "nothing is a member" false (Digraph.mem_vertex g 1);
  let u = Ugraph.of_digraph g in
  Alcotest.(check bool) "empty is connected" true (Sf_graph.Traversal.is_connected u);
  Alcotest.(check int) "empty diameter" 0 (Sf_graph.Traversal.diameter_exact u);
  Alcotest.(check int) "empty coreness" 0 (Array.length (Sf_graph.Kcore.coreness u))

let test_single_vertex_graph () =
  let g = Digraph.create () in
  ignore (Digraph.add_vertex g);
  let u = Ugraph.of_digraph g in
  Alcotest.(check bool) "single vertex connected" true (Sf_graph.Traversal.is_connected u);
  Alcotest.(check int) "eccentricity" 0 (Sf_graph.Traversal.eccentricity u 1);
  Alcotest.(check (float 1e-9)) "assortativity of edgeless" 0.
    (Sf_graph.Correlation.assortativity u)

let test_self_loop_only_graph () =
  let g = Digraph.of_edges ~n:1 [ (1, 1) ] in
  let u = Ugraph.of_digraph g in
  Alcotest.(check int) "loop handle counted once" 1 (Ugraph.degree u 1);
  Alcotest.(check int) "digraph degree counts twice" 2 (Digraph.degree g 1);
  Alcotest.(check int) "coreness with loop" 1 (Sf_graph.Kcore.coreness u).(0);
  Alcotest.(check (float 1e-9)) "clustering ignores loops" 0.
    (Sf_graph.Clustering.local_coefficient u 1)

let test_subgraph_guards () =
  let g = Digraph.of_edges ~n:3 [ (1, 2) ] in
  raises "out of range" (Invalid_argument "Subgraph.induced: vertex out of range") (fun () ->
      ignore (Sf_graph.Subgraph.induced g ~vertices:[ 4 ]));
  raises "duplicate" (Invalid_argument "Subgraph.induced: duplicate vertex") (fun () ->
      ignore (Sf_graph.Subgraph.induced g ~vertices:[ 1; 1 ]));
  let sub, _ = Sf_graph.Subgraph.induced g ~vertices:[] in
  Alcotest.(check int) "empty selection" 0 (Digraph.n_vertices sub)

let test_permute_guards () =
  let g = Digraph.of_edges ~n:3 [ (1, 2) ] in
  raises "size mismatch" (Invalid_argument "Permute.apply: size mismatch") (fun () ->
      ignore (Sf_graph.Permute.apply [| 1; 2 |] g));
  raises "not a permutation" (Invalid_argument "Permute.apply: not a permutation") (fun () ->
      ignore (Sf_graph.Permute.apply [| 1; 1; 2 |] g));
  raises "apply_vertex range" (Invalid_argument "Permute.apply_vertex: out of range")
    (fun () -> ignore (Sf_graph.Permute.apply_vertex [| 1; 2 |] 3))

(* --- gen ------------------------------------------------------------------ *)

let test_generator_guards () =
  let r = rng () in
  raises "mori graph n*m" (Invalid_argument "Mori.graph: need n * m >= 2") (fun () ->
      ignore (Sf_gen.Mori.graph r ~p:0.5 ~m:1 ~n:1));
  raises "merge divisibility" (Invalid_argument "Mori.merge: m must divide the vertex count")
    (fun () -> ignore (Sf_gen.Mori.merge ~m:3 (Sf_gen.Mori.tree r ~p:0.5 ~t:10)));
  raises "ba n" (Invalid_argument "Barabasi_albert.generate: need n >= 2") (fun () ->
      ignore (Sf_gen.Barabasi_albert.generate r ~n:1 ~m:1));
  raises "lcd t" (Invalid_argument "Lcd.tree1: need t >= 1") (fun () ->
      ignore (Sf_gen.Lcd.tree1 r ~t:0));
  raises "kleinberg side" (Invalid_argument "Kleinberg.generate: need side >= 2") (fun () ->
      ignore (Sf_gen.Kleinberg.generate r ~side:1 ~r:2. ()));
  raises "cf steps" (Invalid_argument "Cooper_frieze.generate: steps must be non-negative")
    (fun () -> ignore (Sf_gen.Cooper_frieze.generate r Sf_gen.Cooper_frieze.default ~steps:(-1)));
  raises "config d_min"
    (Invalid_argument "Config_model.power_law_degrees: need d_min >= 1") (fun () ->
      ignore (Sf_gen.Config_model.power_law_degrees r ~n:10 ~exponent:2.5 ~d_min:0 ()))

let test_tiny_generators () =
  let r = rng () in
  (* the smallest legal instances of everything *)
  Alcotest.(check int) "mori t=2" 2 (Digraph.n_vertices (Sf_gen.Mori.tree r ~p:1.0 ~t:2));
  Alcotest.(check int) "ba n=2" 2 (Digraph.n_vertices (Sf_gen.Barabasi_albert.generate r ~n:2 ~m:3));
  Alcotest.(check int) "lcd t=1" 1 (Digraph.n_vertices (Sf_gen.Lcd.tree1 r ~t:1));
  Alcotest.(check int) "cf n=1" 1
    (Ugraph.n_vertices (Sf_gen.Cooper_frieze.generate_n_vertices r Sf_gen.Cooper_frieze.default ~n:1));
  Alcotest.(check int) "gnm empty" 0 (Digraph.n_edges (Sf_gen.Erdos_renyi.gnm r ~n:5 ~m:0));
  Alcotest.(check int) "config all-zero degrees" 0
    (Digraph.n_edges (Sf_gen.Config_model.of_degree_sequence r [| 0; 0 |]))

(* --- core ---------------------------------------------------------------- *)

let test_core_guards () =
  raises "events step" (Invalid_argument "Events.step_prob: need 2 <= a < k") (fun () ->
      ignore (Sf_core.Events.step_prob ~p:0.5 ~a:5 ~k:5));
  raises "events window" (Invalid_argument "Events.window_end: need a >= 2") (fun () ->
      ignore (Sf_core.Events.window_end ~a:1));
  raises "lemma1 negative" (Invalid_argument "Lower_bound.lemma1: negative set size")
    (fun () -> ignore (Sf_core.Lower_bound.lemma1 ~set_size:(-1) ~event_prob:0.5));
  raises "theorem1 n" (Invalid_argument "Lower_bound.theorem1: need n >= 3") (fun () ->
      ignore (Sf_core.Lower_bound.theorem1 ~p:0.5 ~m:1 ~n:2));
  raises "moments v range" (Invalid_argument "Moments.expected_indegree: need 1 <= v <= t")
    (fun () -> ignore (Sf_core.Moments.expected_indegree ~p:0.5 ~v:5 ~t:4));
  raises "rational fold p range"
    (Invalid_argument "Enumerate.fold_rational: need 0 < p_num <= p_den") (fun () ->
      ignore
        (Sf_core.Enumerate.fold_rational ~p_num:3 ~p_den:2 ~t:4 ~init:()
           ~f:(fun () ~prob:_ ~fathers:_ -> ())))

let test_equivalence_window_guards () =
  raises "bad window" (Invalid_argument "Equivalence.exact: need 2 <= a <= b <= t") (fun () ->
      ignore (Sf_core.Equivalence.exact ~p:0.5 ~t:6 ~a:5 ~b:3));
  raises "sigma too small for window"
    (Invalid_argument "Equivalence.random_window_sigma: need b > a") (fun () ->
      ignore (Sf_core.Equivalence.random_window_sigma (rng ()) ~t:6 ~a:4 ~b:4))

let test_trivial_windows_are_equivalent () =
  (* a single-vertex window is vacuously exchangeable: no permutations *)
  let r = Sf_core.Equivalence.exact ~p:0.5 ~t:6 ~a:4 ~b:5 in
  Alcotest.(check int) "no transpositions" 0 r.Sf_core.Equivalence.permutations_checked;
  Alcotest.(check (float 1e-12)) "no discrepancy" 0. r.Sf_core.Equivalence.max_discrepancy

(* --- search ---------------------------------------------------------------- *)

let test_oracle_guards () =
  let u = Ugraph.of_digraph (Digraph.of_edges ~n:3 [ (1, 2); (2, 3) ]) in
  raises "bad source" (Invalid_argument "Oracle.start: bad source") (fun () ->
      ignore (Sf_search.Oracle.start ~rng:(rng ()) Sf_search.Oracle.Weak u ~source:0 ~target:1));
  raises "bad target" (Invalid_argument "Oracle.start: bad target") (fun () ->
      ignore (Sf_search.Oracle.start ~rng:(rng ()) Sf_search.Oracle.Weak u ~source:1 ~target:9));
  let o = Sf_search.Oracle.start ~rng:(rng ()) Sf_search.Oracle.Weak u ~source:1 ~target:3 in
  raises "unknown handle" (Invalid_argument "Oracle: unknown handle") (fun () ->
      ignore (Sf_search.Oracle.request_weak o ~owner:1 999))

let test_strategy_guards () =
  raises "restart range" (Invalid_argument "Strategies.restart_walk: need restart in [0,1)")
    (fun () -> ignore (Sf_search.Strategies.restart_walk ~restart:1.))

let test_percolation_guards () =
  let u = Ugraph.of_digraph (Digraph.of_edges ~n:2 [ (1, 2) ]) in
  let params =
    { Sf_search.Percolation.replication_walk = 0; query_walk = 0; broadcast_prob = 0.5;
      max_messages = 10 }
  in
  (* owner-only replication, query from the owner itself: immediate hit *)
  let res = Sf_search.Percolation.run (rng ()) u params ~source:2 ~target:2 in
  Alcotest.(check bool) "self-query hits" true res.Sf_search.Percolation.hit;
  Alcotest.(check int) "at zero cost" 0 res.Sf_search.Percolation.messages

(* --- stats ---------------------------------------------------------------- *)

let test_stats_guards () =
  raises "power law x_min" (Invalid_argument "Power_law.mle_alpha: need x_min >= 1")
    (fun () -> ignore (Sf_stats.Power_law.mle_alpha [| 2; 3 |] ~x_min:0));
  raises "empty tail" (Invalid_argument "Power_law: empty tail sample") (fun () ->
      ignore (Sf_stats.Power_law.mle_alpha [| 1; 2 |] ~x_min:10));
  raises "histogram bins" (Invalid_argument "Histogram.linear: need bins >= 1") (fun () ->
      ignore (Sf_stats.Histogram.linear [| 1 |] ~bins:0));
  raises "gamma a" (Invalid_argument "Tests.gamma_p: need a > 0") (fun () ->
      ignore (Sf_stats.Tests.gamma_p ~a:0. ~x:1.));
  raises "chi2 empty" (Invalid_argument "Tests.chi_square_two_sample: empty sample")
    (fun () -> ignore (Sf_stats.Tests.chi_square_two_sample [] [ ("a", 1) ]))

let test_summary_extremes () =
  let s = Sf_stats.Summary.create () in
  Alcotest.(check (float 0.)) "empty min is +inf" infinity (Sf_stats.Summary.min_value s);
  Alcotest.(check (float 0.)) "empty max is -inf" neg_infinity (Sf_stats.Summary.max_value s);
  let merged = Sf_stats.Summary.merge s (Sf_stats.Summary.of_array [| 2. |]) in
  Alcotest.(check (float 1e-12)) "merge with empty" 2. (Sf_stats.Summary.mean merged)

(* --- roundtrip and algebra properties ---------------------------------------- *)

let small_rational =
  QCheck.(
    make
      ~print:(fun (n, d) -> Printf.sprintf "%d/%d" n d)
      Gen.(pair (int_range (-50) 50) (int_range 1 50)))

let rat (n, d) = Sf_core.Rational.make (Int64.of_int n) (Int64.of_int d)

let prop_rational_field_laws =
  QCheck.Test.make ~name:"rational arithmetic satisfies ring laws" ~count:300
    QCheck.(triple small_rational small_rational small_rational)
    (fun (a, b, c) ->
      let open Sf_core.Rational in
      let a = rat a and b = rat b and c = rat c in
      equal (add a b) (add b a)
      && equal (mul a b) (mul b a)
      && equal (add (add a b) c) (add a (add b c))
      && equal (mul (mul a b) c) (mul a (mul b c))
      && equal (mul a (add b c)) (add (mul a b) (mul a c))
      && equal (sub (add a b) b) a)

let prop_gio_roundtrip =
  QCheck.Test.make ~name:"edge-list serialisation roundtrips" ~count:60
    QCheck.(pair (int_bound 100_000) (int_range 2 80))
    (fun (seed, t) ->
      let g = Ugraph.to_digraph (Sf_gen.Mori.graph (Rng.of_seed seed) ~p:0.6 ~m:2 ~n:t) in
      let g' = Sf_graph.Gio.of_edge_list (Sf_graph.Gio.to_edge_list g) in
      Digraph.equal_structure g g'
      && Digraph.canonical_key g = Digraph.canonical_key g')

let prop_csv_roundtrip =
  QCheck.Test.make ~name:"csv roundtrips arbitrary cells" ~count:120
    QCheck.(list_of_size Gen.(int_range 1 6) (list_of_size Gen.(return 3) printable_string))
    (fun rows ->
      let header = [ "a"; "b"; "c" ] in
      Sf_stats.Csv.parse (Sf_stats.Csv.to_string ~header ~rows) = header :: rows)

let prop_summary_merge_associative =
  QCheck.Test.make ~name:"summary merge consistent with concatenation" ~count:120
    QCheck.(pair (list (float_range (-50.) 50.)) (list (float_range (-50.) 50.)))
    (fun (xs, ys) ->
      let s1 = Sf_stats.Summary.of_array (Array.of_list xs) in
      let s2 = Sf_stats.Summary.of_array (Array.of_list ys) in
      let merged = Sf_stats.Summary.merge s1 s2 in
      let direct = Sf_stats.Summary.of_array (Array.of_list (xs @ ys)) in
      Sf_stats.Summary.count merged = Sf_stats.Summary.count direct
      && Float.abs (Sf_stats.Summary.mean merged -. Sf_stats.Summary.mean direct) < 1e-9
      && Float.abs (Sf_stats.Summary.variance merged -. Sf_stats.Summary.variance direct)
         < 1e-6)

let suite_properties =
  [
    QCheck_alcotest.to_alcotest prop_rational_field_laws;
    QCheck_alcotest.to_alcotest prop_gio_roundtrip;
    QCheck_alcotest.to_alcotest prop_csv_roundtrip;
    QCheck_alcotest.to_alcotest prop_summary_merge_associative;
  ]

let suite =
  [
    ("dist guards", `Quick, test_dist_guards);
    ("dist boundaries", `Quick, test_dist_boundaries);
    ("shuffle guards", `Quick, test_shuffle_guards);
    ("empty graph", `Quick, test_empty_graph_behaviour);
    ("single vertex", `Quick, test_single_vertex_graph);
    ("self-loop only", `Quick, test_self_loop_only_graph);
    ("subgraph guards", `Quick, test_subgraph_guards);
    ("permute guards", `Quick, test_permute_guards);
    ("generator guards", `Quick, test_generator_guards);
    ("tiny generators", `Quick, test_tiny_generators);
    ("core guards", `Quick, test_core_guards);
    ("equivalence window guards", `Quick, test_equivalence_window_guards);
    ("trivial windows", `Quick, test_trivial_windows_are_equivalent);
    ("oracle guards", `Quick, test_oracle_guards);
    ("strategy guards", `Quick, test_strategy_guards);
    ("percolation corner", `Quick, test_percolation_guards);
    ("stats guards", `Quick, test_stats_guards);
    ("summary extremes", `Quick, test_summary_extremes);
  ]
  @ suite_properties
