(* Tests for the random-graph generators: structural invariants of
   every model, exact-law checks where a law is computable, and the
   conditioned Móri sampler against the closed-form event
   probability. *)

module Rng = Sf_prng.Rng
module Ugraph = Sf_graph.Ugraph
module Traversal = Sf_graph.Traversal
module Metrics = Sf_graph.Metrics
module Mori = Sf_gen.Mori
module Cooper_frieze = Sf_gen.Cooper_frieze
module Config_model = Sf_gen.Config_model
module Kleinberg = Sf_gen.Kleinberg

(* --- Móri ------------------------------------------------------------- *)

let test_mori_tree_shape () =
  let rng = Rng.of_seed 1 in
  let t = 500 in
  let g = Mori.tree rng ~p:0.5 ~t in
  Alcotest.(check int) "vertices" t (Ugraph.n_vertices g);
  Alcotest.(check int) "edges" (t - 1) (Ugraph.n_edges g);
  let out = Metrics.out_degrees g in
  for k = 2 to t do
    Alcotest.(check int) "one out-edge each" 1 out.(k - 1);
    Alcotest.(check bool) "father is older" true (Mori.father g k < k)
  done;
  Alcotest.(check int) "root has no out-edge" 0 out.(0);
  Alcotest.(check bool) "connected" true (Traversal.is_connected g)

let test_mori_edge_ids_are_arrival_times () =
  let rng = Rng.of_seed 2 in
  let g = Mori.tree rng ~p:0.9 ~t:100 in
  for k = 2 to 100 do
    Alcotest.(check int) "edge k - 2 leaves k" k (fst (Ugraph.endpoints g (k - 2)))
  done

let test_mori_p1_is_preferential () =
  (* with p = 1 vertex 3 must attach to vertex 1 (the only vertex with
     positive indegree at that time) *)
  let rng = Rng.of_seed 3 in
  for _ = 1 to 50 do
    let g = Mori.tree rng ~p:1.0 ~t:3 in
    Alcotest.(check int) "forced father" 1 (Mori.father g 3)
  done

let test_mori_father_frequencies_t3 () =
  (* At k = 3: P(father = 1) = 1 / (2 - p), P(father = 2) = (1-p)/(2-p). *)
  let rng = Rng.of_seed 4 in
  let p = 0.4 in
  let trials = 30_000 in
  let ones = ref 0 in
  for _ = 1 to trials do
    if Mori.father (Mori.tree rng ~p ~t:3) 3 = 1 then incr ones
  done;
  let freq = float_of_int !ones /. float_of_int trials in
  let expected = 1. /. (2. -. p) in
  Alcotest.(check bool) "exact step law" true (Float.abs (freq -. expected) < 0.01)

let test_mori_fathers_accessor () =
  let rng = Rng.of_seed 5 in
  let g = Mori.tree rng ~p:0.5 ~t:50 in
  let fathers = Mori.fathers g in
  Alcotest.(check int) "length" 49 (Array.length fathers);
  Alcotest.(check int) "N_2 = 1" 1 fathers.(0);
  Array.iteri
    (fun i f -> Alcotest.(check int) "agrees with father" f (Mori.father g (i + 2)))
    fathers

let test_mori_conditioned_respects_event () =
  let rng = Rng.of_seed 6 in
  let a = 20 and b = 26 and t = 40 in
  for _ = 1 to 100 do
    let g = Mori.tree_conditioned rng ~p:0.5 ~t ~a ~b in
    Alcotest.(check bool) "event holds" true (Sf_core.Events.holds g ~a ~b);
    Alcotest.(check int) "size unchanged" t (Ugraph.n_vertices g)
  done

let test_mori_conditioned_matches_conditional_law () =
  (* The conditional sampler must reproduce the conditional step law:
     P(N_{a+1} = u | E) for u <= a is the unconditional law renormalised
     to [1, a]. Check the frequency of father 1 at the first window
     step. *)
  let p = 0.6 and a = 5 and b = 6 and t = 8 in
  let rng = Rng.of_seed 7 in
  let trials = 40_000 in
  let count = ref 0 in
  for _ = 1 to trials do
    let g = Mori.tree_conditioned rng ~p ~t ~a ~b in
    if Mori.father g (a + 1) = 1 then incr count
  done;
  let freq = float_of_int !count /. float_of_int trials in
  (* exact: enumerate the conditional probability *)
  let joint =
    Sf_core.Enumerate.event_prob ~p ~t ~condition:(fun g ->
        Sf_core.Events.holds g ~a ~b && Mori.father g (a + 1) = 1)
  in
  let event = Sf_core.Enumerate.event_prob ~p ~t ~condition:(fun g -> Sf_core.Events.holds g ~a ~b) in
  let exact = joint /. event in
  Alcotest.(check bool)
    (Printf.sprintf "conditional sampler law (freq %.4f vs exact %.4f)" freq exact)
    true
    (Float.abs (freq -. exact) < 0.012)

(* --- one growth loop, two views ---------------------------------------- *)

(* the CSR graph and the oriented view of the same stream *)
let merged_tree rng ~p ~m ~n = Mori.merge ~m (Mori.tree rng ~p ~t:(n * m))

let test_mori_giant_samplewise_parity () =
  (* Mori.graph must be the SAME random variable as merging the
     oriented tree: same stream -> identical edge list, not merely
     equal law *)
  List.iter
    (fun (p, m, n, seed) ->
      let oriented = merged_tree (Rng.of_seed seed) ~p ~m ~n in
      let flat = Mori.graph (Rng.of_seed seed) ~p ~m ~n in
      Alcotest.(check bool)
        (Printf.sprintf "p=%g m=%d n=%d identical" p m n)
        true
        (Sf_graph.Csr.equal (Ugraph.csr oriented) (Ugraph.csr flat)))
    [ (0.5, 1, 100, 11); (0.5, 3, 64, 12); (0.9, 2, 500, 13); (0.1, 4, 25, 14); (1.0, 1, 50, 15) ]

let test_mori_giant_fathers_match_tree () =
  let seed = 21 and p = 0.7 and t = 400 in
  let oriented = Mori.fathers (Mori.tree (Rng.of_seed seed) ~p ~t) in
  let flat = Mori.tree_fathers (Rng.of_seed seed) ~p ~t in
  Alcotest.(check int) "length" (t - 1) (Sf_graph.Bigvec.length flat);
  Array.iteri
    (fun i f -> Alcotest.(check int) "father" f (Sf_graph.Bigvec.get flat i))
    oriented

let test_mori_giant_rng_stream_position () =
  (* after generation both views must leave the stream at the same
     point — the corpus fingerprint/RNG-restore contract depends on a
     deterministic number of draws *)
  let rng_a = Rng.of_seed 31 and rng_b = Rng.of_seed 31 in
  ignore (merged_tree rng_a ~p:0.5 ~m:2 ~n:80);
  ignore (Mori.graph rng_b ~p:0.5 ~m:2 ~n:80);
  Alcotest.(check int) "next draw agrees" (Rng.int rng_a 1_000_000) (Rng.int rng_b 1_000_000)

(* The growth loop allocates nothing per vertex: the uniform is formed
   from [Rng.bits53], an immediate int, and the father buffer is
   off-heap.  What is left is a constant per build (the buffer's
   header, the build timer), well under 1 B per vertex. *)
let test_mori_growth_allocation () =
  let t = 65_536 in
  let rng = Rng.of_seed 5 in
  (* with obs on, the father-age histogram sees every vertex, so an
     observation that allocates shows here *)
  List.iter
    (fun obs ->
      Sf_obs.Registry.set_enabled obs;
      let bytes =
        Fun.protect
          ~finally:(fun () -> Sf_obs.Registry.set_enabled true)
          (fun () ->
            (* Gc.minor_words, unlike Gc.allocated_bytes, counts the
               current minor heap too *)
            let before = Gc.minor_words () in
            ignore (Mori.tree_fathers rng ~p:0.5 ~t);
            (Gc.minor_words () -. before) *. float_of_int (Sys.word_size / 8))
      in
      let per_vertex = bytes /. float_of_int t in
      Alcotest.(check bool)
        (Printf.sprintf "obs %b: %.1f B per vertex <= 1" obs per_vertex)
        true (per_vertex <= 1.))
    [ false; true ]

let test_cf_giant_structure () =
  let g = Cooper_frieze.generate_n_vertices (Rng.of_seed 41) Cooper_frieze.default ~n:800 in
  Alcotest.(check int) "vertex count" 800 (Ugraph.n_vertices g);
  Alcotest.(check bool) "connected" true (Traversal.is_connected g);
  (match Sf_graph.Csr.validate (Ugraph.csr g) with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("CSR invalid: " ^ msg));
  (* vertex 1's self-loop survives as edge 0 *)
  Alcotest.(check (pair int int)) "initial self-loop" (1, 1) (Ugraph.endpoints g 0)

let test_merge_properties () =
  let rng = Rng.of_seed 8 in
  let m = 3 and n = 40 in
  let tree = Mori.tree rng ~p:0.5 ~t:(n * m) in
  let merged = Mori.merge ~m tree in
  Alcotest.(check int) "merged vertices" n (Ugraph.n_vertices merged);
  Alcotest.(check int) "edges preserved" (Ugraph.n_edges tree) (Ugraph.n_edges merged);
  Alcotest.(check bool) "connected" true (Traversal.is_connected merged);
  (* every merged edge descends from a tree edge of the right blocks *)
  let group v = ((v - 1) / m) + 1 in
  for id = 0 to Ugraph.n_edges tree - 1 do
    let ts, td = Ugraph.endpoints tree id and ms, md = Ugraph.endpoints merged id in
    Alcotest.(check int) "src block" (group ts) ms;
    Alcotest.(check int) "dst block" (group td) md
  done

let test_merge_m1_is_identity () =
  let rng = Rng.of_seed 9 in
  let tree = Mori.tree rng ~p:0.5 ~t:30 in
  Alcotest.(check bool) "m=1 merge copies" true
    (Ugraph.equal_structure tree (Mori.merge ~m:1 tree))

let test_mori_graph_out_degree () =
  let rng = Rng.of_seed 10 in
  let g = Mori.graph rng ~p:0.7 ~m:4 ~n:50 in
  Alcotest.(check int) "vertices" 50 (Ugraph.n_vertices g);
  Alcotest.(check int) "edges" ((50 * 4) - 1) (Ugraph.n_edges g);
  (* every merged vertex except the first has out-degree exactly m *)
  let out = Metrics.out_degrees g in
  for v = 2 to 50 do
    Alcotest.(check int) "out degree m" 4 out.(v - 1)
  done;
  Alcotest.(check int) "first block out degree m-1" 3 out.(0)

let test_mori_validation () =
  let rng = Rng.of_seed 11 in
  Alcotest.check_raises "p out of range" (Invalid_argument "Mori: need 0 < p <= 1") (fun () ->
      ignore (Mori.tree rng ~p:0. ~t:5));
  Alcotest.check_raises "t too small" (Invalid_argument "Mori: need t >= 2") (fun () ->
      ignore (Mori.tree rng ~p:0.5 ~t:1));
  Alcotest.check_raises "bad window"
    (Invalid_argument "Mori.tree_conditioned: need 2 <= a <= b <= t") (fun () ->
      ignore (Mori.tree_conditioned rng ~p:0.5 ~t:10 ~a:8 ~b:4))

let test_degree_exponent_formula () =
  Alcotest.(check (float 1e-9)) "p=0.5 gives BA exponent 3" 3. (Mori.expected_degree_exponent ~p:0.5);
  Alcotest.(check (float 1e-9)) "p=2/3 gives 2.5" 2.5 (Mori.expected_degree_exponent ~p:(2. /. 3.))

(* --- Barabási–Albert ---------------------------------------------------- *)

let test_ba_shape () =
  let rng = Rng.of_seed 12 in
  let g = Sf_gen.Barabasi_albert.generate rng ~n:200 ~m:3 in
  Alcotest.(check int) "vertices" 200 (Ugraph.n_vertices g);
  Alcotest.(check int) "edges" (1 + (198 * 3)) (Ugraph.n_edges g);
  Alcotest.(check bool) "connected" true (Traversal.is_connected g);
  let out = Metrics.out_degrees g in
  for v = 3 to 200 do
    Alcotest.(check int) "m out-edges" 3 out.(v - 1)
  done

let test_ba_rich_get_richer () =
  (* the first vertices should accumulate far more than median degree *)
  let rng = Rng.of_seed 13 in
  let g = Sf_gen.Barabasi_albert.generate rng ~n:2000 ~m:2 in
  let degrees = Metrics.total_degrees g in
  let median =
    Sf_stats.Quantile.median (Sf_stats.Quantile.of_int_array degrees)
  in
  Alcotest.(check bool) "hub formation" true (float_of_int degrees.(0) > 10. *. median)

(* --- Cooper–Frieze ------------------------------------------------------- *)

let test_cf_validation () =
  Alcotest.(check bool) "default valid" true (Result.is_ok (Cooper_frieze.validate Cooper_frieze.default));
  let bad = { Cooper_frieze.default with Cooper_frieze.alpha = 1.5 } in
  Alcotest.(check bool) "alpha out of range" true (Result.is_error (Cooper_frieze.validate bad));
  let bad_dist = { Cooper_frieze.default with Cooper_frieze.q = [ (1, 0.4) ] } in
  Alcotest.(check bool) "non-normalised distribution" true
    (Result.is_error (Cooper_frieze.validate bad_dist))

let test_cf_growth_and_connectivity () =
  let rng = Rng.of_seed 14 in
  let g = Cooper_frieze.generate_n_vertices rng Cooper_frieze.default ~n:300 in
  Alcotest.(check int) "vertex count" 300 (Ugraph.n_vertices g);
  Alcotest.(check bool) "connected" true (Traversal.is_connected g)

let test_cf_steps_count () =
  let rng = Rng.of_seed 15 in
  let g = Cooper_frieze.generate rng Cooper_frieze.default ~steps:500 in
  (* each NEW step adds one vertex; alpha = 1/2 so roughly 250 + 1 *)
  let n = Ugraph.n_vertices g in
  Alcotest.(check bool) "plausible vertex count" true (n > 180 && n < 320);
  (* edges: every step adds >= 1 edge, plus the initial loop *)
  Alcotest.(check bool) "edges >= steps" true (Ugraph.n_edges g >= 501)

let test_cf_alpha1_only_new () =
  let rng = Rng.of_seed 16 in
  let params = { Cooper_frieze.default with Cooper_frieze.alpha = 1.0 } in
  let g = Cooper_frieze.generate rng params ~steps:100 in
  Alcotest.(check int) "every step adds a vertex" 101 (Ugraph.n_vertices g)

let test_cf_traced_arrival_degrees () =
  let rng = Rng.of_seed 17 in
  let g, arrival = Cooper_frieze.generate_n_vertices_traced rng Cooper_frieze.default ~n:200 in
  let out = Metrics.out_degrees g in
  Alcotest.(check int) "arrival array size" (Ugraph.n_vertices g) (Array.length arrival);
  Alcotest.(check int) "vertex 1 born with the loop" 1 arrival.(0);
  let support = List.map fst Cooper_frieze.default.Cooper_frieze.q in
  for v = 2 to Ugraph.n_vertices g do
    Alcotest.(check bool) "arrival degree in q's support" true (List.mem arrival.(v - 1) support);
    Alcotest.(check bool) "final out-degree >= arrival" true
      (out.(v - 1) >= arrival.(v - 1))
  done

let test_cf_total_degree_mode () =
  let rng = Rng.of_seed 18 in
  let params = { Cooper_frieze.default with Cooper_frieze.preference = Cooper_frieze.Total_degree } in
  let g = Cooper_frieze.generate_n_vertices rng params ~n:200 in
  Alcotest.(check bool) "connected in total-degree mode" true (Traversal.is_connected g)

let test_cf_mean_out_degree () =
  Alcotest.(check (float 1e-9)) "mean of default q" 1.5
    (Cooper_frieze.mean_out_degree Cooper_frieze.default.Cooper_frieze.q)

(* --- configuration model --------------------------------------------------- *)

let test_config_degree_sequence_exact () =
  let rng = Rng.of_seed 19 in
  let deg = [| 3; 2; 2; 1; 1; 1 |] in
  let g = Config_model.of_degree_sequence rng deg in
  Alcotest.(check int) "edges = sum/2" 5 (Ugraph.n_edges g);
  let total = Metrics.total_degrees g in
  Array.iteri
    (fun i d -> Alcotest.(check int) (Printf.sprintf "degree of %d" (i + 1)) d total.(i))
    deg

let test_config_rejects_odd_sum () =
  let rng = Rng.of_seed 20 in
  Alcotest.check_raises "odd sum" (Invalid_argument "Config_model: degree sum must be even")
    (fun () -> ignore (Config_model.of_degree_sequence rng [| 1; 1; 1 |]))

let test_power_law_degrees () =
  let rng = Rng.of_seed 21 in
  let deg = Config_model.power_law_degrees rng ~n:2000 ~exponent:2.5 ~d_min:2 () in
  Alcotest.(check int) "n degrees" 2000 (Array.length deg);
  Alcotest.(check int) "even total" 0 (Array.fold_left ( + ) 0 deg mod 2);
  Array.iter (fun d -> Alcotest.(check bool) "d >= d_min" true (d >= 2)) deg

let test_simple_graph () =
  let g = Ugraph.of_edges ~n:3 [ (1, 2); (2, 1); (1, 1); (2, 3) ] in
  let s = Config_model.simple_graph g in
  Alcotest.(check int) "loops and duplicates removed" 2 (Ugraph.n_edges s);
  Alcotest.(check int) "no self loops" 0 (Metrics.self_loops s);
  Alcotest.(check int) "no parallel edges" 0 (Metrics.parallel_edges s)

let test_searchable_power_law () =
  let rng = Rng.of_seed 22 in
  let u = Config_model.searchable_power_law rng ~n:1500 ~exponent:2.3 () in
  Alcotest.(check bool) "connected" true (Traversal.is_connected u);
  Alcotest.(check bool) "giant component" true (Ugraph.n_vertices u > 1000);
  Alcotest.(check int) "simple" 0 (Metrics.self_loops u + Metrics.parallel_edges u)

(* --- Kleinberg -------------------------------------------------------------- *)

let test_kleinberg_coords () =
  let side = 5 in
  for v = 1 to side * side do
    let r, c = Kleinberg.coord_of_vertex ~side v in
    Alcotest.(check int) "coord roundtrip" v (Kleinberg.vertex_of_coord ~side ~row:r ~col:c)
  done;
  Alcotest.(check int) "wrapping" (Kleinberg.vertex_of_coord ~side ~row:0 ~col:0)
    (Kleinberg.vertex_of_coord ~side ~row:5 ~col:(-5))

let test_kleinberg_distance () =
  let side = 6 in
  let v1 = Kleinberg.vertex_of_coord ~side ~row:0 ~col:0 in
  let v2 = Kleinberg.vertex_of_coord ~side ~row:0 ~col:5 in
  (* wraps: distance 1, not 5 *)
  Alcotest.(check int) "toroidal wrap" 1 (Kleinberg.lattice_distance ~side v1 v2);
  let v3 = Kleinberg.vertex_of_coord ~side ~row:3 ~col:3 in
  Alcotest.(check int) "manhattan" 6 (Kleinberg.lattice_distance ~side v1 v3)

let test_kleinberg_structure () =
  let rng = Rng.of_seed 23 in
  let t = Kleinberg.generate rng ~side:8 ~r:2. ~q:1 () in
  let g = t.Kleinberg.graph in
  Alcotest.(check int) "vertices" 64 (Kleinberg.n_vertices t);
  (* 2 lattice edges per vertex + 1 long-range each *)
  Alcotest.(check int) "edges" (64 * 3) (Ugraph.n_edges g);
  Alcotest.(check bool) "connected" true (Traversal.is_connected g);
  (* long-range edges (the third out-edge of each vertex) never have
     lattice distance 0 *)
  Alcotest.(check int) "no self-loops" 0 (Metrics.self_loops g)

let test_kleinberg_q0 () =
  let rng = Rng.of_seed 24 in
  let t = Kleinberg.generate rng ~side:4 ~r:1. ~q:0 () in
  Alcotest.(check int) "pure lattice edges" 32 (Ugraph.n_edges t.Kleinberg.graph)

let test_kleinberg_r0_uniform () =
  (* r = 0: long-range endpoints uniform; mean lattice distance of the
     long link should be near the mean over the torus *)
  let rng = Rng.of_seed 25 in
  let side = 10 in
  let t = Kleinberg.generate rng ~side ~r:0. ~q:1 () in
  let sum = ref 0 and count = ref 0 in
  for id = 0 to Ugraph.n_edges t.Kleinberg.graph - 1 do
    let s, d = Ugraph.endpoints t.Kleinberg.graph id in
    let d = Kleinberg.lattice_distance ~side s d in
    if d > 1 then begin
      sum := !sum + d;
      incr count
    end
  done;
  let mean = float_of_int !sum /. float_of_int (max 1 !count) in
  Alcotest.(check bool) "long links reach far when r=0" true (mean > 3.5)

(* --- LCD (Bollobás–Riordan) ----------------------------------------------------- *)

let test_lcd_tree_shape () =
  let rng = Rng.of_seed 60 in
  let g = Sf_gen.Lcd.tree1 rng ~t:500 in
  Alcotest.(check int) "vertices" 500 (Ugraph.n_vertices g);
  Alcotest.(check int) "edges" 500 (Ugraph.n_edges g);
  (* vertex 1's only choice is itself *)
  Alcotest.(check (pair int int)) "first edge is the root loop" (1, 1) (Ugraph.endpoints g 0);
  let out = Metrics.out_degrees g in
  for k = 2 to 500 do
    Alcotest.(check int) "one out-edge per vertex" 1 out.(k - 1);
    let s, d = Ugraph.endpoints g (k - 1) in
    Alcotest.(check int) "edge k - 1 leaves k" k s;
    Alcotest.(check bool) "attaches to an older-or-equal vertex" true (d <= k)
  done;
  (* the m = 1 LCD graph is a forest: every self-loop roots a component *)
  let loops = Metrics.self_loops g in
  let components = Array.length (Traversal.component_sizes g) in
  Alcotest.(check int) "one component per self-loop" loops components

let test_lcd_self_loop_rate () =
  (* vertex 2 self-loops with probability 1/3 in the LCD convention *)
  let rng = Rng.of_seed 61 in
  let trials = 30_000 in
  let loops = ref 0 in
  for _ = 1 to trials do
    let g = Sf_gen.Lcd.tree1 rng ~t:2 in
    if snd (Ugraph.endpoints g 1) = 2 then incr loops
  done;
  let freq = float_of_int !loops /. float_of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "P(loop at 2) = %.3f ~ 1/3" freq)
    true
    (Float.abs (freq -. (1. /. 3.)) < 0.01)

let test_lcd_merged () =
  let rng = Rng.of_seed 62 in
  let g = Sf_gen.Lcd.generate rng ~n:100 ~m:3 in
  Alcotest.(check int) "vertices" 100 (Ugraph.n_vertices g);
  Alcotest.(check int) "edges" 300 (Ugraph.n_edges g)

let test_lcd_hub_growth () =
  (* total-degree preferential attachment: max degree ~ sqrt(t), so it
     should dwarf the uniform tree's log-size hubs *)
  let rng = Rng.of_seed 63 in
  let lcd = Sf_gen.Lcd.tree1 rng ~t:8000 in
  let uni = Sf_gen.Uniform_attachment.tree rng ~t:8000 in
  Alcotest.(check bool) "lcd hubs much larger" true
    (Metrics.max_total_degree lcd > 3 * Metrics.max_total_degree uni)

(* --- uniform attachment and Erdős–Rényi -------------------------------------- *)

let test_uniform_attachment_tree () =
  let rng = Rng.of_seed 26 in
  let g = Sf_gen.Uniform_attachment.tree rng ~t:300 in
  Alcotest.(check int) "edges" 299 (Ugraph.n_edges g);
  Alcotest.(check bool) "connected" true (Traversal.is_connected g);
  (* uniform attachment has geometric-ish indegree: max degree should
     stay tiny compared to preferential attachment *)
  Alcotest.(check bool) "no giant hub" true (Metrics.max_in_degree g < 30)

let test_uniform_attachment_graph () =
  let rng = Rng.of_seed 27 in
  let g = Sf_gen.Uniform_attachment.graph rng ~n:100 ~m:2 in
  Alcotest.(check int) "edges" (1 + (98 * 2)) (Ugraph.n_edges g)

let test_gnm () =
  let rng = Rng.of_seed 28 in
  let g = Sf_gen.Erdos_renyi.gnm rng ~n:50 ~m:100 in
  Alcotest.(check int) "edge count exact" 100 (Ugraph.n_edges g);
  Alcotest.(check int) "no loops" 0 (Metrics.self_loops g);
  Alcotest.(check int) "no duplicates" 0 (Metrics.parallel_edges g);
  Alcotest.check_raises "too many edges"
    (Invalid_argument "Erdos_renyi.gnm: too many edges requested") (fun () ->
      ignore (Sf_gen.Erdos_renyi.gnm rng ~n:4 ~m:7))

let test_gnp_mean_edges () =
  let rng = Rng.of_seed 29 in
  let n = 60 and p = 0.1 in
  let total = ref 0 in
  let reps = 200 in
  for _ = 1 to reps do
    total := !total + Ugraph.n_edges (Sf_gen.Erdos_renyi.gnp rng ~n ~p)
  done;
  let mean = float_of_int !total /. float_of_int reps in
  let expected = float_of_int (n * (n - 1) / 2) *. p in
  Alcotest.(check bool)
    (Printf.sprintf "gnp edge mean %.1f vs %.1f" mean expected)
    true
    (Float.abs (mean -. expected) /. expected < 0.05);
  Alcotest.(check int) "gnp p=0 empty" 0 (Ugraph.n_edges (Sf_gen.Erdos_renyi.gnp rng ~n:10 ~p:0.));
  Alcotest.(check int) "gnp p=1 complete" 45 (Ugraph.n_edges (Sf_gen.Erdos_renyi.gnp rng ~n:10 ~p:1.))

(* --- Watts–Strogatz -------------------------------------------------------------- *)

let test_ws_beta0_is_ring_lattice () =
  let rng = Rng.of_seed 70 in
  let n = 30 and k = 4 in
  let g = Sf_gen.Watts_strogatz.generate rng ~n ~k ~beta:0. in
  Alcotest.(check int) "edges nk/2" (n * k / 2) (Ugraph.n_edges g);
  (* every vertex has total degree exactly k, and neighbours are the
     nearest ring positions *)
  let total = Metrics.total_degrees g in
  for v = 1 to n do
    Alcotest.(check int) (Printf.sprintf "degree of %d" v) k total.(v - 1)
  done;
  Alcotest.(check bool) "connected" true (Traversal.is_connected g);
  Alcotest.(check int) "no rewiring: zero parallel edges" 0 (Metrics.parallel_edges g)

let test_ws_rewired_properties () =
  let rng = Rng.of_seed 71 in
  let n = 500 and k = 6 in
  let g = Sf_gen.Watts_strogatz.generate rng ~n ~k ~beta:0.2 in
  Alcotest.(check int) "edge count preserved" (n * k / 2) (Ugraph.n_edges g);
  Alcotest.(check int) "simple (no loops)" 0 (Metrics.self_loops g);
  Alcotest.(check int) "simple (no duplicates)" 0 (Metrics.parallel_edges g);
  (* no hubs: max degree stays near k *)
  Alcotest.(check bool) "concentrated degrees" true (Metrics.max_total_degree g < 3 * k)

let test_ws_small_world_shortcut_effect () =
  (* rewiring shrinks distances dramatically versus the pure ring *)
  let rng = Rng.of_seed 72 in
  let n = 400 and k = 4 in
  let ring = Sf_gen.Watts_strogatz.generate rng ~n ~k ~beta:0. in
  let sw = Sf_gen.Watts_strogatz.generate rng ~n ~k ~beta:0.1 in
  let d_ring = Traversal.diameter_double_sweep ring rng in
  let d_sw = Traversal.diameter_double_sweep sw rng in
  Alcotest.(check bool)
    (Printf.sprintf "shortcuts shrink the world (%d < %d / 3)" d_sw d_ring)
    true
    (d_sw < d_ring / 3)

let test_ws_validation () =
  let rng = Rng.of_seed 73 in
  Alcotest.check_raises "odd k" (Invalid_argument "Watts_strogatz.generate: k must be even and >= 2")
    (fun () -> ignore (Sf_gen.Watts_strogatz.generate rng ~n:10 ~k:3 ~beta:0.1));
  Alcotest.check_raises "n too small" (Invalid_argument "Watts_strogatz.generate: need n > k")
    (fun () -> ignore (Sf_gen.Watts_strogatz.generate rng ~n:4 ~k:4 ~beta:0.1))

(* --- qcheck properties --------------------------------------------------------- *)

let prop_mori_tree_invariants =
  QCheck.Test.make ~name:"Mori tree invariants" ~count:60
    QCheck.(
      make
        ~print:(fun (s, t, p) -> Printf.sprintf "(seed=%d t=%d p=%.2f)" s t p)
        Gen.(triple (int_bound 100_000) (int_range 2 300) (float_range 0.05 1.0)))
    (fun (seed, t, p) ->
      let g = Mori.tree (Rng.of_seed seed) ~p ~t in
      Ugraph.n_edges g = t - 1
      && (let ok = ref true in
          for k = 2 to t do
            if Mori.father g k >= k then ok := false
          done;
          !ok)
      && Traversal.is_connected g)

let prop_config_model_degrees =
  QCheck.Test.make ~name:"configuration model realises its sequence" ~count:60
    QCheck.(
      make
        ~print:(fun (s, l) ->
          Printf.sprintf "(seed=%d, %s)" s (String.concat "," (List.map string_of_int l)))
        Gen.(pair (int_bound 100_000) (list_size (int_range 2 40) (int_range 0 6))))
    (fun (seed, degrees) ->
      let deg = Array.of_list degrees in
      let total = Array.fold_left ( + ) 0 deg in
      if total mod 2 = 1 then deg.(0) <- deg.(0) + 1;
      let g = Config_model.of_degree_sequence (Rng.of_seed seed) deg in
      Metrics.total_degrees g = deg)

let prop_cf_always_connected =
  QCheck.Test.make ~name:"Cooper-Frieze connected by construction" ~count:30
    QCheck.(
      make
        ~print:(fun (s, n, alpha) -> Printf.sprintf "(seed=%d n=%d alpha=%.2f)" s n alpha)
        Gen.(triple (int_bound 100_000) (int_range 2 150) (float_range 0.2 0.95)))
    (fun (seed, n, alpha) ->
      let params = { Cooper_frieze.default with Cooper_frieze.alpha } in
      let g = Cooper_frieze.generate_n_vertices (Rng.of_seed seed) params ~n in
      Traversal.is_connected g)

let prop_mori_giant_parity =
  QCheck.Test.make ~name:"Mori giant engine samplewise equals legacy" ~count:40
    QCheck.(
      make
        ~print:(fun (s, p, m, n) -> Printf.sprintf "(seed=%d p=%.2f m=%d n=%d)" s p m n)
        Gen.(
          quad (int_bound 100_000) (float_range 0.05 1.0) (int_range 1 4) (int_range 2 120)))
    (fun (seed, p, m, n) ->
      let oriented = merged_tree (Rng.of_seed seed) ~p ~m ~n in
      let flat = Mori.graph (Rng.of_seed seed) ~p ~m ~n in
      Sf_graph.Csr.equal (Ugraph.csr oriented) (Ugraph.csr flat))

let test_mori_size_checked_up_front () =
  (* n·m - 1 edges above Csr.max_edges are refused before any growth;
     growing first would cost gigabytes and minutes before the CSR
     build rejected the count.  No draw consumed shows nothing grew. *)
  let max_edges = Sf_graph.Csr.max_edges in
  let rng = Rng.of_seed 1 in
  let too_many = Invalid_argument "Mori.graph: n * m - 1 edges exceed Csr.max_edges" in
  Alcotest.check_raises "graph m=1" too_many (fun () ->
      ignore (Mori.graph rng ~p:0.5 ~m:1 ~n:(max_edges + 2)));
  Alcotest.check_raises "graph m=4" too_many (fun () ->
      ignore (Mori.graph rng ~p:0.5 ~m:4 ~n:(((max_edges + 1) / 4) + 1)));
  Alcotest.check_raises "graph n*m overflows" too_many (fun () ->
      ignore (Mori.graph rng ~p:0.5 ~m:max_int ~n:2));
  Alcotest.check_raises "tree_fathers"
    (Invalid_argument "Mori: t - 1 edges exceed Csr.max_edges") (fun () ->
      ignore (Mori.tree_fathers rng ~p:0.5 ~t:(max_edges + 2)));
  Alcotest.(check int) "no draw consumed" (Rng.int (Rng.of_seed 1) 1_000_000) (Rng.int rng 1_000_000)

(* --- pinned draws ------------------------------------------------------ *)

(* Digests of the endpoint sections, and the next stream draw, after
   fixed builds. The values were recorded when Móri and Cooper–Frieze
   each had two growers, and every call below has the same type before
   and after those were merged into one engine per model, so this test
   shows that the merge moved no draw. [mori_instance] pins
   [Mori.graph]; [cooper_frieze_instance] pins
   [Cooper_frieze.generate_n_vertices]. *)

let endpoint_digest u =
  let c = Ugraph.csr u in
  let b = Buffer.create ((8 * c.Sf_graph.Csr.m) + 16) in
  Buffer.add_string b (Printf.sprintf "n=%d;" c.Sf_graph.Csr.n);
  List.iter
    (fun sec ->
      for id = 0 to c.Sf_graph.Csr.m - 1 do
        Buffer.add_int32_le b (Bigarray.Array1.get sec id)
      done)
    [ c.Sf_graph.Csr.srcs; c.Sf_graph.Csr.dsts ];
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_pinned_draws () =
  let check name ~digest ~next build =
    let rng, u = build () in
    Alcotest.(check string) (name ^ " digest") digest (endpoint_digest u);
    Alcotest.(check int) (name ^ " next draw") next (Rng.int rng 1_000_000_000)
  in
  List.iter
    (fun ((p, m, n, seed), (tree_digest, tree_next), (graph_digest, graph_next)) ->
      let name = Printf.sprintf "p=%g m=%d n=%d" p m n in
      check ("merge tree " ^ name) ~digest:tree_digest ~next:tree_next (fun () ->
          let rng = Rng.of_seed seed in
          (rng, Mori.merge ~m (Mori.tree rng ~p ~t:(n * m))));
      check ("mori instance " ^ name) ~digest:graph_digest ~next:graph_next (fun () ->
          let rng = Rng.of_seed seed in
          (rng, fst (Sf_core.Searchability.mori_instance ~p ~m rng n))))
    [
      ( (0.5, 1, 100, 11),
        ("96437d4456ebecd8beafc9226d015ed5", 206074522),
        ("62143299821f0923bd4b290294b7532b", 519748740) );
      ( (0.5, 3, 64, 12),
        ("daaaca7a6976c8df19afb1100eca3609", 906592618),
        ("ab788ed4b6b21e8035356eed3d9ac0f4", 133498088) );
      ( (0.9, 2, 500, 13),
        ("16c42bbab6cc25b3acc92da377761423", 652697894),
        ("d40d6e2f936dfe5f4cf4f23ebc213f28", 698384694) );
      ( (0.1, 4, 25, 14),
        ("20b9edbba6f6eb77ac313a253fdd4804", 391864015),
        ("29d20b4f4fd8bb5f5527e03814222e3d", 703221415) );
      ( (1.0, 1, 50, 15),
        ("4643d4f45579f01d3ff0ae9010a78e38", 609521775),
        ("3b488be5ebda25054307d1debf3f9c0c", 643105785) );
    ];
  let cf = Cooper_frieze.default in
  List.iter
    (fun (name, params, digest, next) ->
      check ("cooper-frieze " ^ name) ~digest ~next (fun () ->
          let rng = Rng.of_seed 42 in
          (rng, fst (Sf_core.Searchability.cooper_frieze_instance params rng 400))))
    [
      ("default", cf, "b9215ebbad0af58504016ccf9b3bb23d", 123376299);
      ( "total degree",
        { cf with Cooper_frieze.preference = Cooper_frieze.Total_degree },
        "be1fd4f03364d83f3c55265b3d169b7b",
        123376299 );
      ("alpha=0.2", { cf with Cooper_frieze.alpha = 0.2 }, "64e95837f714d00a0f642139dd0511c1", 336128673);
      ("alpha=0.9", { cf with Cooper_frieze.alpha = 0.9 }, "b8156c5d1fe73019b0ad7da446517602", 317741388);
    ]

(* Digests of [Gio.to_edge_list] (the vertex count and the edge
   sequence in id order), and the next stream draw, after fixed builds
   of every generator other than [Mori.graph] and Cooper–Frieze. The
   values were recorded while these generators grew a boxed graph, and
   the test reads them only through [Gio.to_edge_list], so it shows
   that freezing endpoint buffers to CSR instead moved no draw and no
   edge. *)
let test_pinned_generators () =
  let open Sf_gen in
  let check name ~digest ~next seed build =
    let rng = Rng.of_seed seed in
    let text = Sf_graph.Gio.to_edge_list (build rng) in
    Alcotest.(check string) (name ^ " digest") digest (Digest.to_hex (Digest.string text));
    Alcotest.(check int) (name ^ " next draw") next (Rng.int rng 1_000_000_000)
  in
  check "ba" ~digest:"f012d8d36cc06d2bbecd9d8225c65223" ~next:956734547 31 (fun rng ->
      Barabasi_albert.generate rng ~n:300 ~m:2);
  check "lcd tree1" ~digest:"0c928ecccf34c5b54fe007e298e7cc05" ~next:332100730 32 (fun rng ->
      Lcd.tree1 rng ~t:300);
  check "lcd m=1" ~digest:"9df7a3157833bf422329fa6ffa35300a" ~next:645679735 33 (fun rng ->
      Lcd.generate rng ~n:200 ~m:1);
  check "lcd m=3" ~digest:"c34c2a8d4b8de555d9baa21977abe377" ~next:128412544 34 (fun rng ->
      Lcd.generate rng ~n:100 ~m:3);
  check "config power law" ~digest:"690ee84e565beda267dd88e6ce031cb9" ~next:410586226 35
    (fun rng -> Config_model.power_law rng ~n:300 ~exponent:2.5 ());
  check "config searchable" ~digest:"3a19a6e38b91b2fbed789d36de2ec4aa" ~next:695519959 36
    (fun rng -> Config_model.searchable_power_law rng ~n:300 ~exponent:2.5 ());
  check "gnm" ~digest:"fb6d3ccc23b76a1b38c3ec89756e40f6" ~next:852377919 37 (fun rng ->
      Erdos_renyi.gnm rng ~n:200 ~m:400);
  check "gnp" ~digest:"8565f0b5e99baefeb49b0158d01cc805" ~next:822123768 38 (fun rng ->
      Erdos_renyi.gnp rng ~n:200 ~p:0.02);
  check "kleinberg q=0" ~digest:"29ae910fe2cc640fbdd6e49e1fbc6d79" ~next:959537697 39
    (fun rng -> (Kleinberg.generate rng ~side:12 ~r:2.0 ~q:0 ()).Kleinberg.graph);
  check "kleinberg q=1" ~digest:"7ab6dd24edc48aae83ffffb9602d3272" ~next:740222057 40
    (fun rng -> (Kleinberg.generate rng ~side:12 ~r:2.0 ~q:1 ()).Kleinberg.graph);
  check "watts-strogatz" ~digest:"dee9eaf7ebb1e1d17cc7b6dc0667bd03" ~next:212610445 41
    (fun rng -> Watts_strogatz.generate rng ~n:200 ~k:4 ~beta:0.2);
  check "uniform tree" ~digest:"82e4ecc66ebc5e4391ab570f11432cc3" ~next:243968679 42
    (fun rng -> Uniform_attachment.tree rng ~t:300);
  check "uniform graph" ~digest:"9f64dd42db2be9f66d239b5f3e656c85" ~next:211367848 43
    (fun rng -> Uniform_attachment.graph rng ~n:200 ~m:2);
  check "mori tree" ~digest:"fb74067fad3588b0b0d340e5a975658e" ~next:824498733 44 (fun rng ->
      Mori.tree rng ~p:0.5 ~t:300);
  check "mori conditioned" ~digest:"ad7a1efff33796ac5d34da1917a575f0" ~next:353374207 45
    (fun rng -> Mori.tree_conditioned rng ~p:0.5 ~t:300 ~a:50 ~b:120);
  let text = "# fixed\n5 6\n2 1\n3 1\n3 3\n4 2\n5 4\n4 2\n" in
  Alcotest.(check string) "edge list round trip" "e0ef9af8bf3d901b727b7197886f1685"
    (Digest.to_hex
       (Digest.string (Sf_graph.Gio.to_edge_list (Sf_graph.Gio.of_edge_list text))))

let suite =
  [
    ("mori tree shape", `Quick, test_mori_tree_shape);
    ("mori edge ids", `Quick, test_mori_edge_ids_are_arrival_times);
    ("mori p=1 preferential", `Quick, test_mori_p1_is_preferential);
    ("mori step law", `Quick, test_mori_father_frequencies_t3);
    ("mori fathers accessor", `Quick, test_mori_fathers_accessor);
    ("mori conditioned event", `Quick, test_mori_conditioned_respects_event);
    ("mori conditioned law", `Slow, test_mori_conditioned_matches_conditional_law);
    ("mori giant parity", `Quick, test_mori_giant_samplewise_parity);
    ("mori giant fathers", `Quick, test_mori_giant_fathers_match_tree);
    ("mori giant stream position", `Quick, test_mori_giant_rng_stream_position);
    ("mori growth allocation", `Quick, test_mori_growth_allocation);
    ("CF giant structure", `Quick, test_cf_giant_structure);
    ("merge properties", `Quick, test_merge_properties);
    ("merge m=1 identity", `Quick, test_merge_m1_is_identity);
    ("mori graph out-degrees", `Quick, test_mori_graph_out_degree);
    ("mori validation", `Quick, test_mori_validation);
    ("degree exponent formula", `Quick, test_degree_exponent_formula);
    ("BA shape", `Quick, test_ba_shape);
    ("BA hubs", `Quick, test_ba_rich_get_richer);
    ("CF validation", `Quick, test_cf_validation);
    ("CF growth", `Quick, test_cf_growth_and_connectivity);
    ("CF step count", `Quick, test_cf_steps_count);
    ("CF alpha=1", `Quick, test_cf_alpha1_only_new);
    ("CF traced arrivals", `Quick, test_cf_traced_arrival_degrees);
    ("CF total-degree mode", `Quick, test_cf_total_degree_mode);
    ("CF mean out degree", `Quick, test_cf_mean_out_degree);
    ("config model exact degrees", `Quick, test_config_degree_sequence_exact);
    ("config model odd sum", `Quick, test_config_rejects_odd_sum);
    ("power-law degrees", `Quick, test_power_law_degrees);
    ("simple graph", `Quick, test_simple_graph);
    ("searchable power law", `Quick, test_searchable_power_law);
    ("kleinberg coords", `Quick, test_kleinberg_coords);
    ("kleinberg distance", `Quick, test_kleinberg_distance);
    ("kleinberg structure", `Quick, test_kleinberg_structure);
    ("kleinberg q=0", `Quick, test_kleinberg_q0);
    ("kleinberg r=0 uniform", `Quick, test_kleinberg_r0_uniform);
    ("lcd tree shape", `Quick, test_lcd_tree_shape);
    ("lcd self-loop rate", `Quick, test_lcd_self_loop_rate);
    ("lcd merged", `Quick, test_lcd_merged);
    ("lcd hub growth", `Quick, test_lcd_hub_growth);
    ("uniform attachment tree", `Quick, test_uniform_attachment_tree);
    ("uniform attachment graph", `Quick, test_uniform_attachment_graph);
    ("watts-strogatz ring", `Quick, test_ws_beta0_is_ring_lattice);
    ("watts-strogatz rewired", `Quick, test_ws_rewired_properties);
    ("watts-strogatz shortcuts", `Quick, test_ws_small_world_shortcut_effect);
    ("watts-strogatz validation", `Quick, test_ws_validation);
    ("gnm", `Quick, test_gnm);
    ("gnp mean edges", `Quick, test_gnp_mean_edges);
    QCheck_alcotest.to_alcotest prop_mori_tree_invariants;
    QCheck_alcotest.to_alcotest prop_config_model_degrees;
    QCheck_alcotest.to_alcotest prop_cf_always_connected;
    QCheck_alcotest.to_alcotest prop_mori_giant_parity;
    ("mori size checked before growth", `Quick, test_mori_size_checked_up_front);
    ("pinned draws", `Quick, test_pinned_draws);
    ("pinned generators", `Quick, test_pinned_generators);
  ]
