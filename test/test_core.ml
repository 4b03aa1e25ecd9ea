(* Tests for sf_core: the mechanised mathematics of the paper —
   enumeration ground truth, the exact event probability (Lemma 3),
   exact and statistical vertex equivalence (Lemma 2), the Lemma 1 /
   Theorem 1 bound assembly, the max-degree law and the measurement
   harness. *)

module Rng = Sf_prng.Rng
module Ugraph = Sf_graph.Ugraph
module Events = Sf_core.Events
module Enumerate = Sf_core.Enumerate
module Equivalence = Sf_core.Equivalence
module Lower_bound = Sf_core.Lower_bound
module Max_degree = Sf_core.Max_degree
module Searchability = Sf_core.Searchability

let checkf ?(eps = 1e-9) name expected actual = Alcotest.(check (float eps)) name expected actual

(* --- Enumerate -------------------------------------------------------------- *)

let test_enumeration_counts () =
  Alcotest.(check int) "t=2 single outcome" 1 (Enumerate.n_outcomes ~t:2);
  Alcotest.(check int) "t=5: 2*3*4" 24 (Enumerate.n_outcomes ~t:5);
  let visits = Enumerate.fold ~p:0.5 ~t:5 ~init:0 ~f:(fun acc ~prob:_ ~fathers:_ -> acc + 1) in
  Alcotest.(check int) "fold visits all outcomes" 24 visits

let test_enumeration_probabilities_sum_to_one () =
  List.iter
    (fun (p, t) ->
      let total = Enumerate.fold ~p ~t ~init:0. ~f:(fun acc ~prob ~fathers:_ -> acc +. prob) in
      checkf ~eps:1e-12 (Printf.sprintf "sum=1 at p=%.2f t=%d" p t) 1. total)
    [ (0.3, 6); (0.5, 7); (1.0, 6); (0.05, 5) ]

let test_enumeration_guards () =
  Alcotest.check_raises "t too large" (Invalid_argument "Enumerate.fold: need 2 <= t <= 12")
    (fun () -> ignore (Enumerate.fold ~p:0.5 ~t:13 ~init:() ~f:(fun () ~prob:_ ~fathers:_ -> ())))

let test_graph_of_fathers () =
  let g = Enumerate.graph_of_fathers [| 1; 2; 2 |] in
  Alcotest.(check int) "vertices" 4 (Ugraph.n_vertices g);
  Alcotest.(check int) "father of 3" 2 (Sf_gen.Mori.father g 3);
  Alcotest.(check int) "father of 4" 2 (Sf_gen.Mori.father g 4)

let test_distribution_is_normalised () =
  let dist = Enumerate.distribution ~p:0.4 ~t:6 () in
  let total = List.fold_left (fun acc (_, pr) -> acc +. pr) 0. dist in
  checkf ~eps:1e-12 "normalised" 1. total;
  (* keys are distinct *)
  let keys = List.map fst dist in
  Alcotest.(check int) "distinct keys" (List.length keys) (List.length (List.sort_uniq compare keys))

let test_empirical_matches_enumeration () =
  (* the generator and the enumerator must define the same measure:
     compare P(father of 4 = 1) at p = 0.7 *)
  let p = 0.7 and t = 4 in
  let exact =
    Enumerate.event_prob ~p ~t ~condition:(fun g -> Sf_gen.Mori.father g 4 = 1)
  in
  let rng = Rng.of_seed 1 in
  let trials = 60_000 in
  let hits = ref 0 in
  for _ = 1 to trials do
    if Sf_gen.Mori.father (Sf_gen.Mori.tree rng ~p ~t) 4 = 1 then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "generator matches enumerator (%.4f vs %.4f)" freq exact)
    true
    (Float.abs (freq -. exact) < 0.01)

(* --- Events ------------------------------------------------------------------ *)

let test_window_end () =
  Alcotest.(check int) "a=2" 3 (Events.window_end ~a:2);
  Alcotest.(check int) "a=101" 111 (Events.window_end ~a:101);
  Alcotest.(check int) "a=10001" 10101 (Events.window_end ~a:10001)

let test_prob_exact_trivial_window () =
  checkf "empty window" 1. (Events.prob_exact ~p:0.5 ~a:5 ~b:5)

let test_prob_exact_vs_enumeration () =
  List.iter
    (fun (p, a, b, t) ->
      let exact = Events.prob_exact ~p ~a ~b in
      let enum = Enumerate.event_prob ~p ~t ~condition:(fun g -> Events.holds g ~a ~b) in
      checkf ~eps:1e-10 (Printf.sprintf "p=%.2f a=%d b=%d" p a b) enum exact)
    [ (0.5, 3, 5, 6); (0.8, 4, 6, 7); (0.2, 2, 4, 5); (1.0, 3, 6, 7); (0.6, 5, 7, 8) ]

let test_prob_exact_independent_of_t () =
  (* the product only involves steps in (a, b]; enumeration at two
     different final sizes must agree *)
  let p = 0.5 and a = 3 and b = 5 in
  let at_t t = Enumerate.event_prob ~p ~t ~condition:(fun g -> Events.holds g ~a ~b) in
  checkf ~eps:1e-10 "t-independence" (at_t 6) (at_t 8)

let test_lemma3_bound_holds () =
  (* exact probability of the canonical window is at least e^{-(1-p)}
     across the parameter grid *)
  List.iter
    (fun p ->
      List.iter
        (fun a ->
          let b = Events.window_end ~a in
          let exact = Events.prob_exact ~p ~a ~b in
          let bound = Events.lemma3_bound ~p in
          Alcotest.(check bool)
            (Printf.sprintf "P >= bound at p=%.2f a=%d (%.4f >= %.4f)" p a exact bound)
            true (exact >= bound -. 1e-12))
        [ 2; 3; 10; 100; 1000; 100_000; 1_000_000 ])
    [ 0.05; 0.1; 0.25; 0.5; 0.75; 0.9; 1.0 ]

let test_lemma3_bound_asymptotically_tight_direction () =
  (* as a grows the probability decreases toward its limit but must
     stay above the bound; check monotone-ish behaviour coarsely *)
  let p = 0.3 in
  let prob a = Events.prob_exact ~p ~a ~b:(Events.window_end ~a) in
  Alcotest.(check bool) "large-a window probability below small-a" true (prob 1_000_00 <= prob 10 +. 1e-9)

let test_monte_carlo_agrees_with_exact () =
  let rng = Rng.of_seed 2 in
  let p = 0.5 and a = 50 in
  let b = Events.window_end ~a in
  let exact = Events.prob_exact ~p ~a ~b in
  let est, se = Events.prob_monte_carlo rng ~p ~a ~b ~trials:4000 in
  Alcotest.(check bool)
    (Printf.sprintf "MC %.4f within 4se of exact %.4f" est exact)
    true
    (Float.abs (est -. exact) < (4. *. se) +. 1e-6)

let test_holds_checker () =
  (* hand-built tree: 1<-2, 2<-3, 2<-4, 4<-5 *)
  let g = Enumerate.graph_of_fathers [| 1; 2; 2; 4 |] in
  Alcotest.(check bool) "E_{2,4}: fathers of 3,4 are <= 2" true (Events.holds g ~a:2 ~b:4);
  Alcotest.(check bool) "E_{3,5} fails: father of 5 is 4 > 3" false (Events.holds g ~a:3 ~b:5);
  Alcotest.(check bool) "E_{4,5} holds" true (Events.holds g ~a:4 ~b:5)

let test_conditioned_sampler_matches_event_prob () =
  (* conditional sampler + exact probability reproduce unconditional
     frequencies: P(E and father of b = 1) = P(E) * P(father = 1 | E) *)
  let rng = Rng.of_seed 3 in
  let p = 0.7 and a = 30 in
  let b = Events.window_end ~a in
  let trials = 3000 in
  let hits = ref 0 in
  for _ = 1 to trials do
    let g = Sf_gen.Mori.tree_conditioned rng ~p ~t:b ~a ~b in
    if Sf_gen.Mori.father g b <= a then incr hits
  done;
  Alcotest.(check int) "conditioned sampler always satisfies E" trials !hits

(* --- Equivalence --------------------------------------------------------------- *)

let test_exact_equivalence_lemma2 () =
  (* the heart of the paper: conditional on E_{a,b}, window vertices
     are exchangeable — exactly, over the whole probability space *)
  List.iter
    (fun (p, t, a, b) ->
      let r = Equivalence.exact ~p ~t ~a ~b in
      Alcotest.(check bool)
        (Printf.sprintf "lemma2 exact at p=%.2f t=%d [%d,%d] (disc=%.2e)" p t a b
           r.Equivalence.max_discrepancy)
        true
        (r.Equivalence.max_discrepancy < 1e-12);
      Alcotest.(check bool) "event has positive probability" true (r.Equivalence.event_prob > 0.))
    [ (0.5, 7, 3, 6); (0.8, 8, 4, 7); (0.3, 7, 4, 6); (1.0, 8, 3, 6); (0.6, 9, 5, 8) ]

let test_exact_equivalence_fails_without_conditioning () =
  (* sanity: the unconditioned distribution is NOT exchangeable over a
     wide window — verify our checker has teeth by comparing the
     unconditioned law directly *)
  let p = 0.8 and t = 7 in
  let base = Enumerate.distribution ~p ~t () in
  let sigma = Sf_graph.Permute.transposition t 2 6 in
  let pushed =
    List.map
      (fun (key, _) -> key)
      base
    |> List.length
  in
  ignore pushed;
  (* compute max discrepancy by pushing each outcome through sigma *)
  let tbl = Hashtbl.create 512 in
  Enumerate.fold ~p ~t ~init:() ~f:(fun () ~prob ~fathers ->
      let g = Enumerate.graph_of_fathers fathers in
      let key = Ugraph.canonical_key (Sf_graph.Permute.apply sigma g) in
      let prev = try Hashtbl.find tbl key with Not_found -> 0. in
      Hashtbl.replace tbl key (prev +. prob));
  let worst = ref 0. in
  List.iter
    (fun (key, prob) ->
      let pushed_prob = try Hashtbl.find tbl key with Not_found -> 0. in
      worst := Float.max !worst (Float.abs (prob -. pushed_prob)))
    base;
  Alcotest.(check bool)
    (Printf.sprintf "unconditioned asymmetric (disc=%.3f)" !worst)
    true (!worst > 0.01)

let test_window_statistic_is_sigma_covariant () =
  let rng = Rng.of_seed 4 in
  let a = 10 and b = 14 and t = 20 in
  let g = Sf_gen.Mori.tree_conditioned rng ~p:0.5 ~t ~a ~b in
  let stat = Equivalence.window_statistic g ~a ~b in
  Alcotest.(check bool) "statistic non-empty" true (String.length stat > 0);
  (* identity permutation leaves the statistic unchanged *)
  let id = Sf_graph.Permute.identity t in
  Alcotest.(check string) "identity invariant" stat
    (Equivalence.window_statistic (Sf_graph.Permute.apply id g) ~a ~b)

let test_monte_carlo_equivalence_not_rejected () =
  let rng = Rng.of_seed 5 in
  let a = 40 in
  let t_and_b = Events.window_end ~a in
  let sigma = Equivalence.random_window_sigma rng ~t:t_and_b ~a ~b:t_and_b in
  let r =
    Equivalence.monte_carlo rng ~p:0.5 ~t:t_and_b ~a ~b:t_and_b ~trials:2000 ~sigma
      ~conditioned:true
  in
  Alcotest.(check bool)
    (Printf.sprintf "conditioned: p-value %.4f not tiny" r.Equivalence.p_value)
    true
    (r.Equivalence.p_value > 0.001)

let test_monte_carlo_detects_inequivalence () =
  (* negative control: an old, unconditioned window mixes vertices
     whose indegree laws differ a lot (vertex 3 is much older than
     vertex 7 by relative age); the test must reject *)
  let rng = Rng.of_seed 6 in
  let t = 60 in
  let a = 2 and b = 7 in
  let sigma = Sf_graph.Permute.transposition t 3 7 in
  let r =
    Equivalence.monte_carlo rng ~p:0.9 ~t ~a ~b ~trials:1500 ~sigma ~conditioned:false
  in
  Alcotest.(check bool)
    (Printf.sprintf "unconditioned wide window rejected (p=%.2e)" r.Equivalence.p_value)
    true
    (r.Equivalence.p_value < 1e-4)

let test_monte_carlo_guards () =
  let rng = Rng.of_seed 7 in
  let sigma = Sf_graph.Permute.transposition 10 1 2 in
  Alcotest.check_raises "sigma outside window"
    (Invalid_argument "Equivalence.monte_carlo: sigma moves vertices outside the window")
    (fun () ->
      ignore (Equivalence.monte_carlo rng ~p:0.5 ~t:10 ~a:5 ~b:8 ~trials:10 ~sigma ~conditioned:true))

(* --- Rational arithmetic ---------------------------------------------------------- *)

module Rational = Sf_core.Rational

let test_rational_basics () =
  let half = Rational.make 1L 2L in
  let third = Rational.make 2L 6L in
  Alcotest.(check string) "normalised" "1/3" (Rational.to_string third);
  Alcotest.(check string) "sum" "5/6" (Rational.to_string (Rational.add half third));
  Alcotest.(check string) "product" "1/6" (Rational.to_string (Rational.mul half third));
  Alcotest.(check string) "difference" "1/6" (Rational.to_string (Rational.sub half third));
  Alcotest.(check string) "quotient" "3/2" (Rational.to_string (Rational.div half third));
  Alcotest.(check bool) "equality after normalisation" true
    (Rational.equal (Rational.make 3L 9L) third);
  Alcotest.(check int) "compare" (-1) (Rational.compare third half);
  Alcotest.(check string) "negative denominator normalised" "-1/2"
    (Rational.to_string (Rational.make 1L (-2L)));
  Alcotest.(check (float 1e-12)) "to_float" 0.5 (Rational.to_float half)

let test_rational_guards () =
  Alcotest.check_raises "zero denominator" (Invalid_argument "Rational: zero denominator")
    (fun () -> ignore (Rational.make 1L 0L));
  Alcotest.check_raises "division by zero" (Invalid_argument "Rational.div: division by zero")
    (fun () -> ignore (Rational.div Rational.one Rational.zero));
  (* overflow detection on absurd products *)
  let huge = Rational.make Int64.max_int 1L in
  Alcotest.(check bool) "overflow raises" true
    (try
       ignore (Rational.mul huge huge);
       false
     with Rational.Overflow -> true)

let test_rational_enumeration_sums_to_one () =
  List.iter
    (fun (pn, pd, t) ->
      let total =
        Enumerate.fold_rational ~p_num:pn ~p_den:pd ~t ~init:Rational.zero
          ~f:(fun acc ~prob ~fathers:_ -> Rational.add acc prob)
      in
      Alcotest.(check bool)
        (Printf.sprintf "exactly one at p=%d/%d t=%d" pn pd t)
        true
        (Rational.equal total Rational.one))
    [ (1, 2, 7); (2, 3, 8); (1, 1, 6); (1, 10, 6) ]

let test_rational_matches_float_enumeration () =
  let er =
    (Equivalence.exact_rational ~p_num:1 ~p_den:2 ~t:8 ~a:4 ~b:7).Equivalence.event_prob
  in
  let ef = Events.prob_exact ~p:0.5 ~a:4 ~b:7 in
  checkf ~eps:1e-12 "rational P(E) = closed form" ef (Rational.to_float er);
  Alcotest.(check string) "and it is exactly 8/11" "8/11" (Rational.to_string er)

let test_lemma2_certificate () =
  (* the headline: exact-fraction equality of the conditional laws *)
  List.iter
    (fun (pn, pd, t, a, b) ->
      let r = Equivalence.exact_rational ~p_num:pn ~p_den:pd ~t ~a ~b in
      Alcotest.(check bool)
        (Printf.sprintf "certificate at p=%d/%d t=%d [%d,%d]" pn pd t (a + 1) b)
        true r.Equivalence.equal)
    [ (1, 2, 8, 4, 7); (3, 4, 8, 4, 7); (1, 10, 7, 3, 6); (9, 10, 8, 5, 8); (1, 1, 7, 3, 6) ]

(* --- Lower bound ----------------------------------------------------------------- *)

let test_lemma1_formula () =
  checkf "basic" 25. (Lower_bound.lemma1 ~set_size:100 ~event_prob:0.5);
  checkf "zero event" 0. (Lower_bound.lemma1 ~set_size:100 ~event_prob:0.)

let test_theorem1_bound_values () =
  let b = Lower_bound.theorem1 ~p:0.5 ~m:1 ~n:10_001 in
  Alcotest.(check int) "window size ~ sqrt(n)" 99 b.Lower_bound.set_size;
  Alcotest.(check int) "window start" 10_000 b.Lower_bound.a;
  Alcotest.(check bool) "bound close to |V|e^{-(1-p)}/2 and above it" true
    (b.Lower_bound.requests >= 49.5 *. Events.lemma3_bound ~p:0.5
    && b.Lower_bound.requests <= 49.5);
  (* target inside the equivalent window *)
  Alcotest.(check bool) "n in [a+1, b]" true (b.Lower_bound.n > b.Lower_bound.a && b.Lower_bound.n <= b.Lower_bound.b)

let test_theorem1_bound_scales_as_sqrt () =
  let req n = (Lower_bound.theorem1 ~p:0.6 ~m:1 ~n).Lower_bound.requests in
  let ratio = req 40_000 /. req 10_000 in
  Alcotest.(check bool)
    (Printf.sprintf "4x n gives ~2x bound (ratio %.3f)" ratio)
    true
    (ratio > 1.9 && ratio < 2.1)

let test_theorem1_merged () =
  let b = Lower_bound.theorem1 ~p:0.5 ~m:4 ~n:10_001 in
  Alcotest.(check bool) "merged window smaller by ~m but same order" true
    (b.Lower_bound.set_size >= 40 && b.Lower_bound.set_size <= 60);
  Alcotest.(check bool) "still a positive-constant event" true (b.Lower_bound.event_prob > 0.3)

let test_asymptotic_theorem1 () =
  checkf ~eps:1e-9 "p=1: sqrt(n)/2"
    (sqrt 10_000. /. 2.)
    (Lower_bound.asymptotic_theorem1 ~p:1.0 ~n:10_000);
  Alcotest.(check bool) "exact bound >= asymptotic-style estimate at same scale" true
    ((Lower_bound.theorem1 ~p:1.0 ~m:1 ~n:10_000).Lower_bound.requests
    >= 0.9 *. Lower_bound.asymptotic_theorem1 ~p:1.0 ~n:9_000)

let test_window_tradeoff () =
  let p = 0.5 and a = 10_000 in
  let choices = Lower_bound.window_tradeoff ~p ~a ~widths:[ 0; 1; 100; 400 ] in
  (match choices with
  | [ w0; w1; w100; w400 ] ->
    checkf "width 0 is vacuous" 0. w0.Lower_bound.requests;
    checkf "width 0 has P = 1" 1. w0.Lower_bound.event_prob;
    Alcotest.(check bool) "P decreases with width" true
      (w1.Lower_bound.event_prob >= w100.Lower_bound.event_prob
      && w100.Lower_bound.event_prob >= w400.Lower_bound.event_prob);
    (* each matches the direct product *)
    checkf ~eps:1e-12 "matches prob_exact"
      (Events.prob_exact ~p ~a ~b:(a + 100))
      w100.Lower_bound.event_prob
  | _ -> Alcotest.fail "four choices expected")

let test_optimal_window_matches_theory () =
  (* The continuous approximation log P ~ -(1-p) w^2 / (2a) puts the
     optimum at w* ~ sqrt(a / (1-p)), widening beyond the paper's
     sqrt(a) as p -> 1 (in the p = 1 star limit the event is free and
     the bound strengthens all the way to ~n/2). *)
  List.iter
    (fun (p, a) ->
      let best = Lower_bound.optimal_window ~p ~a () in
      let w_theory = sqrt (float_of_int a /. (1. -. p)) in
      let w = float_of_int best.Lower_bound.width in
      Alcotest.(check bool)
        (Printf.sprintf "p=%.1f a=%d: optimal width %.0f ~ theory %.0f" p a w w_theory)
        true
        (w >= w_theory /. 3. && w <= 3. *. w_theory);
      (* optimum beats (or matches) the canonical choice *)
      let canonical = Events.prob_exact ~p ~a ~b:(Events.window_end ~a) in
      let canonical_bound =
        Lower_bound.lemma1 ~set_size:(Events.window_end ~a - a) ~event_prob:canonical
      in
      Alcotest.(check bool) "optimum >= canonical" true
        (best.Lower_bound.requests >= canonical_bound -. 1e-9);
      (* and the gain factor follows the theory within generous slack *)
      let predicted_gain =
        exp (-0.5) /. (sqrt (1. -. p) *. exp (-.(1. -. p) /. 2.))
      in
      let gain = best.Lower_bound.requests /. canonical_bound in
      Alcotest.(check bool)
        (Printf.sprintf "gain %.2f ~ predicted %.2f" gain predicted_gain)
        true
        (gain <= 1.6 *. predicted_gain && gain >= predicted_gain /. 1.6))
    [ (0.3, 1_000); (0.5, 10_000); (0.9, 100_000) ]

let test_strong_exponent () =
  checkf "p=0.2" 0.3 (Lower_bound.strong_model_exponent ~p:0.2);
  Alcotest.(check bool) "trivial for p >= 1/2" true (Lower_bound.strong_model_exponent ~p:0.7 < 0.)

let test_cf_event_checker () =
  (* hand-built CF-like graph on 6 vertices, window = {5, 6}:
     arrivals: everyone born with 1 edge; no one points into the
     window; window vertices point into the core *)
  let g = Ugraph.of_edges ~n:6 [ (1, 1); (2, 1); (3, 2); (4, 1); (5, 2); (6, 3) ] in
  let arrival = [| 1; 1; 1; 1; 1; 1 |] in
  Alcotest.(check bool) "event holds" true (Lower_bound.cf_event_holds g ~arrival ~n:6 ~window:2);
  (* break it: an extra edge pointing into the window *)
  let g2 = Ugraph.of_edges ~n:6 [ (1, 1); (2, 1); (3, 2); (4, 1); (5, 2); (6, 3); (2, 5) ] in
  Alcotest.(check bool) "indegree violation detected" false
    (Lower_bound.cf_event_holds g2 ~arrival ~n:6 ~window:2);
  (* break it differently: window vertex used as OLD source *)
  let g3 = Ugraph.of_edges ~n:6 [ (1, 1); (2, 1); (3, 2); (4, 1); (5, 2); (6, 3); (5, 1) ] in
  Alcotest.(check bool) "OLD-source violation detected" false
    (Lower_bound.cf_event_holds g3 ~arrival ~n:6 ~window:2);
  (* and: window vertex attaching inside the window *)
  let g4 = Ugraph.of_edges ~n:6 [ (1, 1); (2, 1); (3, 2); (4, 1); (5, 2); (6, 5) ] in
  Alcotest.(check bool) "containment violation detected" false
    (Lower_bound.cf_event_holds g4 ~arrival ~n:6 ~window:2)

let test_theorem2_estimate_positive () =
  let rng = Rng.of_seed 8 in
  let est =
    Lower_bound.theorem2_estimate rng Sf_gen.Cooper_frieze.default ~n:400 ~trials:40 ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "event rate %.2f bounded away from 0" est.Lower_bound.event_rate)
    true
    (est.Lower_bound.event_rate > 0.05);
  Alcotest.(check bool) "bound positive" true (est.Lower_bound.requests > 0.)

(* --- Moments ----------------------------------------------------------------------- *)

let test_moments_tiny_exact () =
  (* at t = 3: vertex 1 has E[d] = 1 + P(N_3 = 1) = 1 + 1/(2-p) *)
  let p = 0.4 in
  checkf ~eps:1e-12 "vertex 1 at t=3"
    (1. +. (1. /. (2. -. p)))
    (Sf_core.Moments.expected_indegree ~p ~v:1 ~t:3);
  checkf ~eps:1e-12 "vertex 2 at t=3"
    ((1. -. p) /. (2. -. p))
    (Sf_core.Moments.expected_indegree ~p ~v:2 ~t:3);
  checkf ~eps:1e-12 "newborn has indegree 0" 0. (Sf_core.Moments.expected_indegree ~p ~v:3 ~t:3)

let test_moments_match_enumeration () =
  (* exact recurrence vs exhaustive enumeration at t = 6 *)
  let p = 0.7 and t = 6 in
  for v = 1 to t do
    let enum =
      Enumerate.fold ~p ~t ~init:0. ~f:(fun acc ~prob ~fathers ->
          let d = Array.fold_left (fun c f -> if f = v then c + 1 else c) 0 fathers in
          acc +. (prob *. float_of_int d))
    in
    checkf ~eps:1e-10 (Printf.sprintf "E[d_6(%d)]" v) enum
      (Sf_core.Moments.expected_indegree ~p ~v ~t)
  done

let test_moments_profile_consistency () =
  let p = 0.45 and t = 300 in
  let profile = Sf_core.Moments.expected_indegree_profile ~p ~t in
  (* profile agrees with the per-vertex recurrence *)
  List.iter
    (fun v ->
      checkf ~eps:1e-9
        (Printf.sprintf "profile vs direct at v=%d" v)
        (Sf_core.Moments.expected_indegree ~p ~v ~t)
        profile.(v - 1))
    [ 1; 2; 7; 150; 300 ];
  (* expectations sum to the number of edges, exactly *)
  checkf ~eps:1e-6 "profile sums to t-1" (float_of_int (t - 1))
    (Array.fold_left ( +. ) 0. profile)

let test_moments_match_simulation () =
  let p = 0.8 and t = 500 and v = 3 in
  let rng = Rng.of_seed 15 in
  let trials = 3000 in
  let total = ref 0 in
  for _ = 1 to trials do
    total := !total + (Sf_graph.Metrics.in_degrees (Sf_gen.Mori.tree rng ~p ~t)).(v - 1)
  done;
  let sim = float_of_int !total /. float_of_int trials in
  let exact = Sf_core.Moments.expected_indegree ~p ~v ~t in
  Alcotest.(check bool)
    (Printf.sprintf "simulated %.3f vs exact %.3f" sim exact)
    true
    (Float.abs (sim -. exact) /. exact < 0.08)

let test_moments_age_monotone () =
  let p = 0.5 and t = 1000 in
  let profile = Sf_core.Moments.expected_indegree_profile ~p ~t in
  for v = 1 to t - 1 do
    Alcotest.(check bool) "older vertices expect more" true (profile.(v - 1) >= profile.(v) -. 1e-12)
  done

(* --- Max degree --------------------------------------------------------------------- *)

let test_max_degree_series_monotone () =
  let rng = Rng.of_seed 9 in
  let series = Max_degree.max_indegree_series rng ~p:0.8 ~checkpoints:[ 10; 100; 1000 ] in
  Alcotest.(check int) "three points" 3 (List.length series);
  let values = List.map snd series in
  Alcotest.(check bool) "monotone" true (List.sort compare values = values);
  Alcotest.(check bool) "positive" true (List.for_all (fun v -> v >= 1) values)

let test_max_degree_exponent_near_p () =
  let rng = Rng.of_seed 10 in
  let p = 0.8 in
  let checkpoints = [ 512; 2048; 8192; 32768 ] in
  let series = Max_degree.mean_max_indegree rng ~p ~checkpoints ~trials:8 in
  let fit = Max_degree.fit_exponent series in
  Alcotest.(check bool)
    (Printf.sprintf "fitted exponent %.3f near p=%.1f" fit.Sf_stats.Regression.slope p)
    true
    (Float.abs (fit.Sf_stats.Regression.slope -. p) < 0.2)

let test_uniform_attachment_has_smaller_hubs () =
  (* contrast: p -> small means slower hub growth *)
  let rng = Rng.of_seed 11 in
  let at p =
    List.assoc 8192 (Max_degree.mean_max_indegree rng ~p ~checkpoints:[ 8192 ] ~trials:5)
  in
  Alcotest.(check bool) "hubs grow with p" true (at 1.0 > 2. *. at 0.2)

(* --- Searchability harness -------------------------------------------------------------- *)

let test_measure_produces_grid () =
  let rng = Rng.of_seed 12 in
  let spec = { Searchability.default_spec with Searchability.trials = 5 } in
  let points =
    Searchability.measure rng
      ~make:(Searchability.mori_instance ~p:0.5 ~m:1)
      ~strategies:[ Sf_search.Strategies.bfs; Sf_search.Strategies.high_degree ]
      ~sizes:[ 100; 200 ] ~spec
  in
  Alcotest.(check int) "2 sizes x 2 strategies" 4 (List.length points);
  List.iter
    (fun pt ->
      Alcotest.(check bool) "positive cost" true (pt.Searchability.mean > 0.);
      Alcotest.(check int) "trial count" 5 pt.Searchability.trials;
      Alcotest.(check bool) "median <= q90" true (pt.Searchability.median <= pt.Searchability.q90))
    points

let test_measure_is_reproducible () =
  let spec = { Searchability.default_spec with Searchability.trials = 3 } in
  let run () =
    Searchability.measure (Rng.of_seed 99)
      ~make:(Searchability.mori_instance ~p:0.7 ~m:1)
      ~strategies:[ Sf_search.Strategies.bfs ] ~sizes:[ 150 ] ~spec
  in
  let p1 = List.hd (run ()) and p2 = List.hd (run ()) in
  checkf "same mean from same master seed" p1.Searchability.mean p2.Searchability.mean

let test_exponent_fit_on_synthetic_points () =
  let mk n mean =
    {
      Searchability.n;
      strategy = "synthetic";
      trials = 1;
      mean;
      ci95 = 0.;
      median = mean;
      q90 = mean;
      timeouts = 0;
      gave_up = 0;
    }
  in
  let points = [ mk 100 10.; mk 400 20.; mk 1600 40.; mk 6400 80. ] in
  let fit = Searchability.exponent_fit points ~strategy:"synthetic" in
  checkf ~eps:1e-9 "recovers exponent 1/2" 0.5 fit.Sf_stats.Regression.slope

let test_points_to_csv () =
  let pt =
    {
      Searchability.n = 100;
      strategy = "bfs";
      trials = 5;
      mean = 12.5;
      ci95 = 1.25;
      median = 12.;
      q90 = 15.;
      timeouts = 0;
      gave_up = 1;
    }
  in
  let csv = Searchability.points_to_csv [ pt ] in
  match Sf_stats.Csv.parse csv with
  | [ header; row ] ->
    Alcotest.(check int) "nine columns" 9 (List.length header);
    Alcotest.(check string) "n" "100" (List.nth row 0);
    Alcotest.(check string) "strategy" "bfs" (List.nth row 1);
    Alcotest.(check string) "mean" "12.5" (List.nth row 3);
    Alcotest.(check string) "gave_up" "1" (List.nth row 8)
  | _ -> Alcotest.fail "header + one row expected"

let test_instances_well_formed () =
  let rng = Rng.of_seed 13 in
  let g, target = Searchability.mori_instance ~p:0.5 ~m:2 rng 50 in
  Alcotest.(check bool) "mori target within graph" true
    (target >= 1 && target <= Sf_graph.Ugraph.n_vertices g);
  Alcotest.(check bool) "mori graph has the window beyond the target" true
    (Sf_graph.Ugraph.n_vertices g >= 50);
  let g2, target2 = Searchability.cooper_frieze_instance Sf_gen.Cooper_frieze.default rng 80 in
  Alcotest.(check bool) "cf sized beyond target" true (Sf_graph.Ugraph.n_vertices g2 >= 80 + 8);
  Alcotest.(check int) "cf target is vertex n" 80 target2;
  let g3, target3 = Searchability.config_model_instance ~exponent:2.4 rng 300 in
  Alcotest.(check bool) "config target valid" true
    (target3 >= 1 && target3 <= Sf_graph.Ugraph.n_vertices g3)

(* --- Paper certificate -------------------------------------------------------------- *)

let test_paper_statements_all_verify () =
  let reports = Sf_core.Paper.verify ~seed:123 in
  Alcotest.(check int) "eight statements" 8 (List.length reports);
  List.iter
    (fun r ->
      List.iter
        (fun (name, ok) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s" r.Sf_core.Paper.statement.Sf_core.Paper.id name)
            true ok)
        r.Sf_core.Paper.results)
    reports;
  Alcotest.(check bool) "all pass" true (Sf_core.Paper.all_pass reports);
  let rendered = Sf_core.Paper.render reports in
  Alcotest.(check bool) "renders" true (String.length rendered > 500)

(* --- the headline integration check: measured cost respects the bound ------------------ *)

let test_measured_cost_respects_theorem1_bound () =
  (* At small scale, with the paper's metric (stop at a neighbour of
     the target), every strategy's mean cost must exceed the explicit
     Lemma-1 bound. This is the full pipeline: generator, oracle,
     strategies, harness, bound. *)
  let rng = Rng.of_seed 14 in
  let p = 0.75 in
  let n = 600 in
  let spec = { Searchability.default_spec with Searchability.trials = 15 } in
  let points =
    Searchability.measure rng
      ~make:(Searchability.mori_instance ~p ~m:1)
      ~strategies:(Sf_search.Strategies.weak_portfolio ())
      ~sizes:[ n ] ~spec
  in
  let bound = (Lower_bound.theorem1 ~p ~m:1 ~n).Lower_bound.requests in
  List.iter
    (fun pt ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: mean %.1f >= bound %.1f" pt.Searchability.strategy
           pt.Searchability.mean bound)
        true
        (pt.Searchability.mean >= bound))
    points

let suite =
  [
    ("enumeration counts", `Quick, test_enumeration_counts);
    ("enumeration sums to 1", `Quick, test_enumeration_probabilities_sum_to_one);
    ("enumeration guards", `Quick, test_enumeration_guards);
    ("graph of fathers", `Quick, test_graph_of_fathers);
    ("distribution normalised", `Quick, test_distribution_is_normalised);
    ("generator matches enumerator", `Slow, test_empirical_matches_enumeration);
    ("window end", `Quick, test_window_end);
    ("trivial window", `Quick, test_prob_exact_trivial_window);
    ("exact vs enumeration", `Quick, test_prob_exact_vs_enumeration);
    ("t-independence", `Quick, test_prob_exact_independent_of_t);
    ("lemma 3 bound holds", `Quick, test_lemma3_bound_holds);
    ("lemma 3 direction", `Quick, test_lemma3_bound_asymptotically_tight_direction);
    ("monte carlo agrees", `Quick, test_monte_carlo_agrees_with_exact);
    ("holds checker", `Quick, test_holds_checker);
    ("conditioned sampler event", `Quick, test_conditioned_sampler_matches_event_prob);
    ("lemma 2 exact equivalence", `Quick, test_exact_equivalence_lemma2);
    ("unconditioned not exchangeable", `Quick, test_exact_equivalence_fails_without_conditioning);
    ("window statistic", `Quick, test_window_statistic_is_sigma_covariant);
    ("MC equivalence not rejected", `Quick, test_monte_carlo_equivalence_not_rejected);
    ("MC detects inequivalence", `Quick, test_monte_carlo_detects_inequivalence);
    ("MC guards", `Quick, test_monte_carlo_guards);
    ("rational basics", `Quick, test_rational_basics);
    ("rational guards", `Quick, test_rational_guards);
    ("rational enumeration total", `Quick, test_rational_enumeration_sums_to_one);
    ("rational matches float", `Quick, test_rational_matches_float_enumeration);
    ("lemma 2 rational certificate", `Quick, test_lemma2_certificate);
    ("lemma 1 formula", `Quick, test_lemma1_formula);
    ("theorem 1 bound values", `Quick, test_theorem1_bound_values);
    ("theorem 1 sqrt scaling", `Quick, test_theorem1_bound_scales_as_sqrt);
    ("theorem 1 merged", `Quick, test_theorem1_merged);
    ("asymptotic theorem 1", `Quick, test_asymptotic_theorem1);
    ("strong exponent", `Quick, test_strong_exponent);
    ("window tradeoff", `Quick, test_window_tradeoff);
    ("optimal window vs theory", `Quick, test_optimal_window_matches_theory);
    ("cf event checker", `Quick, test_cf_event_checker);
    ("theorem 2 estimate", `Quick, test_theorem2_estimate_positive);
    ("moments tiny exact", `Quick, test_moments_tiny_exact);
    ("moments vs enumeration", `Quick, test_moments_match_enumeration);
    ("moments profile consistency", `Quick, test_moments_profile_consistency);
    ("moments vs simulation", `Quick, test_moments_match_simulation);
    ("moments age monotone", `Quick, test_moments_age_monotone);
    ("max degree series", `Quick, test_max_degree_series_monotone);
    ("max degree exponent", `Slow, test_max_degree_exponent_near_p);
    ("hubs grow with p", `Quick, test_uniform_attachment_has_smaller_hubs);
    ("measure grid", `Quick, test_measure_produces_grid);
    ("measure reproducible", `Quick, test_measure_is_reproducible);
    ("exponent fit", `Quick, test_exponent_fit_on_synthetic_points);
    ("points to csv", `Quick, test_points_to_csv);
    ("instances well formed", `Quick, test_instances_well_formed);
    ("paper certificate", `Slow, test_paper_statements_all_verify);
    ("measured cost respects bound", `Slow, test_measured_cost_respects_theorem1_bound);
  ]
