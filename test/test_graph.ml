(* Tests for the sf_graph substrate: the multigraph, its undirected
   view, traversal, permutation action, metrics and IO. *)

module Digraph = Sf_graph.Digraph
module Ugraph = Sf_graph.Ugraph
module Vec = Sf_graph.Vec
module Traversal = Sf_graph.Traversal
module Permute = Sf_graph.Permute
module Metrics = Sf_graph.Metrics
module Gio = Sf_graph.Gio
module Subgraph = Sf_graph.Subgraph
module Rng = Sf_prng.Rng

(* --- Vec ------------------------------------------------------------ *)

let test_vec_basics () =
  let v = Vec.create () in
  Alcotest.(check bool) "empty" true (Vec.is_empty v);
  for i = 0 to 99 do
    Vec.push v (i * i)
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get" 49 (Vec.get v 7);
  Vec.set v 7 (-1);
  Alcotest.(check int) "set" (-1) (Vec.get v 7);
  Alcotest.(check int) "pop" (99 * 99) (Vec.pop v);
  Alcotest.(check int) "length after pop" 99 (Vec.length v);
  Alcotest.(check int) "fold sum" (Vec.fold ( + ) 0 v) (List.fold_left ( + ) 0 (Vec.to_list v));
  Vec.clear v;
  Alcotest.(check bool) "cleared" true (Vec.is_empty v)

let test_vec_bounds () =
  let v = Vec.of_array [| 1; 2; 3 |] in
  Alcotest.check_raises "get out of bounds" (Invalid_argument "Vec.get: index out of bounds")
    (fun () -> ignore (Vec.get v 3));
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop: empty") (fun () ->
      ignore (Vec.pop (Vec.create ())))

let test_vec_copy_independent () =
  let v = Vec.of_array [| 1; 2 |] in
  let w = Vec.copy v in
  Vec.push w 3;
  Vec.set w 0 9;
  Alcotest.(check int) "original unchanged" 1 (Vec.get v 0);
  Alcotest.(check int) "original length" 2 (Vec.length v)

(* --- Digraph ---------------------------------------------------------- *)

let diamond () =
  (* 1 -> 2, 1 -> 3, 2 -> 4, 3 -> 4, plus a self-loop at 4 and a
     parallel 1 -> 2 *)
  Digraph.of_edges ~n:4 [ (1, 2); (1, 3); (2, 4); (3, 4); (4, 4); (1, 2) ]

let test_digraph_counts () =
  let g = diamond () in
  Alcotest.(check int) "vertices" 4 (Digraph.n_vertices g);
  Alcotest.(check int) "edges" 6 (Digraph.n_edges g);
  Alcotest.(check int) "out 1" 3 (Digraph.out_degree g 1);
  Alcotest.(check int) "in 2" 2 (Digraph.in_degree g 2);
  Alcotest.(check int) "self-loop total degree counts twice" 4 (Digraph.degree g 4)

let test_digraph_edge_ids_are_timestamps () =
  let g = diamond () in
  let e = Digraph.edge g 4 in
  Alcotest.(check int) "src" 4 e.Digraph.src;
  Alcotest.(check int) "dst" 4 e.Digraph.dst;
  List.iteri
    (fun i e -> Alcotest.(check int) "insertion order" i e.Digraph.id)
    (Digraph.edges g)

let test_digraph_validation () =
  let g = diamond () in
  Alcotest.check_raises "bad endpoint" (Invalid_argument "Digraph.add_edge: vertex out of range")
    (fun () -> ignore (Digraph.add_edge g ~src:1 ~dst:9));
  Alcotest.check_raises "bad edge id" (Invalid_argument "Digraph.edge: id out of range")
    (fun () -> ignore (Digraph.edge g 100))

let test_digraph_copy_independent () =
  let g = diamond () in
  let h = Digraph.copy g in
  ignore (Digraph.add_vertex h);
  ignore (Digraph.add_edge h ~src:5 ~dst:1);
  Alcotest.(check int) "original vertices" 4 (Digraph.n_vertices g);
  Alcotest.(check int) "original edges" 6 (Digraph.n_edges g);
  Alcotest.(check bool) "copy equal before mutation" true
    (Digraph.equal_structure g (Digraph.copy g))

let test_equal_structure_ignores_order () =
  let g1 = Digraph.of_edges ~n:3 [ (1, 2); (2, 3) ] in
  let g2 = Digraph.of_edges ~n:3 [ (2, 3); (1, 2) ] in
  Alcotest.(check bool) "order irrelevant" true (Digraph.equal_structure g1 g2);
  let g3 = Digraph.of_edges ~n:3 [ (1, 2); (3, 2) ] in
  Alcotest.(check bool) "direction matters" false (Digraph.equal_structure g1 g3);
  let g4 = Digraph.of_edges ~n:3 [ (1, 2); (2, 3); (2, 3) ] in
  Alcotest.(check bool) "multiplicity matters" false (Digraph.equal_structure g1 g4)

let test_canonical_key_agrees_with_equality () =
  let g1 = Digraph.of_edges ~n:3 [ (1, 2); (2, 3) ] in
  let g2 = Digraph.of_edges ~n:3 [ (2, 3); (1, 2) ] in
  let g3 = Digraph.of_edges ~n:3 [ (1, 2); (3, 2) ] in
  Alcotest.(check string) "equal graphs same key" (Digraph.canonical_key g1)
    (Digraph.canonical_key g2);
  Alcotest.(check bool) "different graphs different keys" true
    (Digraph.canonical_key g1 <> Digraph.canonical_key g3)

(* --- Ugraph ----------------------------------------------------------- *)

let test_ugraph_incidence () =
  let g = diamond () in
  let u = Ugraph.of_digraph g in
  Alcotest.(check int) "n" 4 (Ugraph.n_vertices u);
  Alcotest.(check int) "m" 6 (Ugraph.n_edges u);
  (* vertex 1: out-edges to 2, 3, 2 -> three handles *)
  Alcotest.(check int) "deg 1" 3 (Ugraph.degree u 1);
  (* vertex 4: in from 2 and 3, self-loop appears once *)
  Alcotest.(check int) "deg 4 (self-loop once)" 3 (Ugraph.degree u 4);
  Alcotest.(check int) "max degree" 3 (Ugraph.max_degree u)

let test_ugraph_other_endpoint () =
  let g = Digraph.of_edges ~n:3 [ (1, 2); (2, 2) ] in
  let u = Ugraph.of_digraph g in
  Alcotest.(check int) "far endpoint" 2 (Ugraph.other_endpoint u ~edge_id:0 1);
  Alcotest.(check int) "reverse direction" 1 (Ugraph.other_endpoint u ~edge_id:0 2);
  Alcotest.(check int) "self-loop maps to itself" 2 (Ugraph.other_endpoint u ~edge_id:1 2);
  Alcotest.check_raises "not an endpoint"
    (Invalid_argument "Ugraph.other_endpoint: vertex is not an endpoint") (fun () ->
      ignore (Ugraph.other_endpoint u ~edge_id:0 3))

let test_ugraph_neighbors () =
  let g = diamond () in
  let u = Ugraph.of_digraph g in
  let sorted l = List.sort compare l in
  Alcotest.(check (list int)) "neighbors of 1" [ 2; 2; 3 ] (sorted (Ugraph.neighbors u 1));
  Alcotest.(check (list int)) "neighbors of 4 include itself once" [ 2; 3; 4 ]
    (sorted (Ugraph.neighbors u 4))

(* --- Traversal --------------------------------------------------------- *)

let path_graph n =
  Digraph.of_edges ~n (List.init (n - 1) (fun i -> (i + 1, i + 2)))

let test_bfs_distances_on_path () =
  let u = Ugraph.of_digraph (path_graph 6) in
  let dist = Traversal.bfs_distances u ~source:1 in
  Array.iteri (fun i d -> Alcotest.(check int) (Printf.sprintf "dist to %d" (i + 1)) i d) dist

let test_bfs_unreachable () =
  let g = Digraph.of_edges ~n:4 [ (1, 2) ] in
  let dist = Traversal.bfs_distances (Ugraph.of_digraph g) ~source:1 in
  Alcotest.(check int) "unreachable" (-1) dist.(2);
  Alcotest.(check int) "reachable" 1 dist.(1)

let test_shortest_path () =
  let g = Digraph.of_edges ~n:5 [ (1, 2); (2, 3); (3, 4); (1, 5); (5, 4) ] in
  let u = Ugraph.of_digraph g in
  match Traversal.shortest_path u ~src:1 ~dst:4 with
  | Some path ->
    Alcotest.(check int) "length 3 vertices" 3 (List.length path);
    Alcotest.(check int) "starts at src" 1 (List.hd path);
    Alcotest.(check int) "ends at dst" 4 (List.nth path 2)
  | None -> Alcotest.fail "path must exist"

let test_components () =
  let g = Digraph.of_edges ~n:6 [ (1, 2); (2, 3); (4, 5) ] in
  let u = Ugraph.of_digraph g in
  let sizes = Traversal.component_sizes u in
  let sorted = Array.copy sizes in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "component sizes" [| 1; 2; 3 |] sorted;
  Alcotest.(check bool) "not connected" false (Traversal.is_connected u);
  Alcotest.(check (list int)) "largest component" [ 1; 2; 3 ] (Traversal.largest_component u)

let test_diameter () =
  let u = Ugraph.of_digraph (path_graph 8) in
  Alcotest.(check int) "path diameter" 7 (Traversal.diameter_exact u);
  let rng = Rng.of_seed 5 in
  Alcotest.(check int) "double sweep exact on trees" 7 (Traversal.diameter_double_sweep u rng);
  Alcotest.(check int) "eccentricity of middle" 4 (Traversal.eccentricity u 4)

let test_mean_distance () =
  let u = Ugraph.of_digraph (path_graph 3) in
  let rng = Rng.of_seed 6 in
  let m = Traversal.mean_distance_sampled u rng ~samples:50 in
  (* exact mean over ordered pairs: (1+1+2+2+1+1)/6 = 4/3 *)
  Alcotest.(check bool) "mean distance near 4/3" true (Float.abs (m -. (4. /. 3.)) < 0.15)

(* --- Permute ----------------------------------------------------------- *)

let test_permute_validation () =
  Alcotest.(check bool) "identity valid" true (Permute.is_valid (Permute.identity 5));
  Alcotest.(check bool) "repeat invalid" false (Permute.is_valid [| 1; 1; 3 |]);
  Alcotest.(check bool) "out of range invalid" false (Permute.is_valid [| 0; 1; 2 |])

let test_permute_group_laws () =
  let rng = Rng.of_seed 7 in
  let s1 = Permute.random_of_subrange rng ~n:8 ~lo:1 ~hi:8 in
  let s2 = Permute.random_of_subrange rng ~n:8 ~lo:1 ~hi:8 in
  let id = Permute.identity 8 in
  Alcotest.(check bool) "inverse composes to identity" true
    (Permute.compose (Permute.inverse s1) s1 = id);
  Alcotest.(check bool) "composition is a permutation" true
    (Permute.is_valid (Permute.compose s1 s2))

let test_permute_action () =
  let g = Digraph.of_edges ~n:3 [ (1, 2); (2, 3) ] in
  let sigma = Permute.transposition 3 2 3 in
  let g' = Permute.apply sigma g in
  let expected = Digraph.of_edges ~n:3 [ (1, 3); (3, 2) ] in
  Alcotest.(check bool) "transposed action" true (Digraph.equal_structure g' expected)

let test_permute_action_is_homomorphism () =
  let rng = Rng.of_seed 8 in
  let g = Sf_gen.Mori.tree rng ~p:0.7 ~t:20 in
  let s1 = Permute.random_of_subrange rng ~n:20 ~lo:5 ~hi:12 in
  let s2 = Permute.random_of_subrange rng ~n:20 ~lo:5 ~hi:12 in
  let lhs = Permute.apply s2 (Permute.apply s1 g) in
  let rhs = Permute.apply (Permute.compose s2 s1) g in
  Alcotest.(check bool) "sigma2(sigma1 G) = (sigma2 . sigma1)(G)" true
    (Digraph.equal_structure lhs rhs)

let test_permute_preserves_degree_multiset () =
  let rng = Rng.of_seed 9 in
  let g = Sf_gen.Mori.tree rng ~p:0.9 ~t:30 in
  let sigma = Permute.random_of_subrange rng ~n:30 ~lo:1 ~hi:30 in
  let g' = Permute.apply sigma g in
  let sorted_degrees h =
    let d = Metrics.total_degrees h in
    Array.sort compare d;
    d
  in
  Alcotest.(check (array int)) "degree multiset invariant" (sorted_degrees g) (sorted_degrees g')

let test_subrange_fixes_rest () =
  let rng = Rng.of_seed 10 in
  let sigma = Permute.random_of_subrange rng ~n:10 ~lo:4 ~hi:7 in
  List.iter
    (fun v -> Alcotest.(check int) "fixed outside window" v (Permute.apply_vertex sigma v))
    [ 1; 2; 3; 8; 9; 10 ];
  List.iter
    (fun v ->
      let img = Permute.apply_vertex sigma v in
      Alcotest.(check bool) "window maps into window" true (img >= 4 && img <= 7))
    [ 4; 5; 6; 7 ]

(* --- Metrics ------------------------------------------------------------ *)

let test_metrics_degrees () =
  let g = diamond () in
  Alcotest.(check (array int)) "in degrees" [| 0; 2; 1; 3 |] (Metrics.in_degrees g);
  Alcotest.(check (array int)) "out degrees" [| 3; 1; 1; 1 |] (Metrics.out_degrees g);
  Alcotest.(check int) "max in" 3 (Metrics.max_in_degree g);
  Alcotest.(check bool) "handshake" true (Metrics.degree_sum_invariant g);
  Alcotest.(check int) "self loops" 1 (Metrics.self_loops g);
  Alcotest.(check int) "parallel edges" 1 (Metrics.parallel_edges g)

let test_degree_counts_and_ccdf () =
  let counts = Metrics.degree_counts [| 1; 1; 2; 5 |] in
  Alcotest.(check (list (pair int int))) "counts" [ (1, 2); (2, 1); (5, 1) ] counts;
  let ccdf = Metrics.degree_ccdf [| 1; 1; 2; 5 |] in
  Alcotest.(check int) "ccdf entries" 3 (List.length ccdf);
  let d1, p1 = List.hd ccdf in
  Alcotest.(check int) "first degree" 1 d1;
  Alcotest.(check (float 1e-9)) "P(D >= 1)" 1. p1;
  let d5, p5 = List.nth ccdf 2 in
  Alcotest.(check int) "last degree" 5 d5;
  Alcotest.(check (float 1e-9)) "P(D >= 5)" 0.25 p5

(* --- Gio ------------------------------------------------------------------ *)

let test_edge_list_roundtrip () =
  let g = diamond () in
  let g' = Gio.of_edge_list (Gio.to_edge_list g) in
  Alcotest.(check bool) "roundtrip" true (Digraph.equal_structure g g');
  (* edge order (ids) preserved too *)
  List.iter2
    (fun e e' ->
      Alcotest.(check int) "src" e.Digraph.src e'.Digraph.src;
      Alcotest.(check int) "dst" e.Digraph.dst e'.Digraph.dst)
    (Digraph.edges g) (Digraph.edges g')

let test_edge_list_file_roundtrip () =
  let g = diamond () in
  let path = Filename.temp_file "sfgraph" ".edges" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Gio.write_edge_list g ~path;
      let g' = Gio.read_edge_list ~path in
      Alcotest.(check bool) "file roundtrip" true (Digraph.equal_structure g g'))

let contains_substring haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let check_parse_fails name ~needle text =
  match Gio.of_edge_list text with
  | _ -> Alcotest.failf "%s: parse should have failed" name
  | exception Failure msg ->
    Alcotest.(check bool) (name ^ ": message mentions " ^ needle) true
      (contains_substring msg needle)

let test_edge_list_rejects_garbage () =
  Alcotest.check_raises "bad header" (Failure "Gio.of_edge_list: bad header") (fun () ->
      ignore (Gio.of_edge_list "x y\n"));
  check_parse_fails "too few edges" ~needle:"edge count mismatch" "2 5\n1 2\n";
  check_parse_fails "trailing garbage" ~needle:"trailing garbage" "2 1\n1 2\n2 1\n";
  check_parse_fails "trailing word" ~needle:"trailing garbage" "2 1\n1 2\nEOF\n";
  check_parse_fails "endpoint out of range" ~needle:"outside vertex range" "2 1\n1 3\n";
  check_parse_fails "three tokens" ~needle:"bad edge line" "2 1\n1 2 9\n";
  check_parse_fails "hex endpoint" ~needle:"bad edge line" "2 1\n1 0x2\n";
  check_parse_fails "negative header" ~needle:"bad header" "-2 1\n1 2\n"

let test_read_edge_list_names_path () =
  let path = Filename.temp_file "sfgraph" ".edges" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "2 5\n1 2\n";
      close_out oc;
      match Gio.read_edge_list ~path with
      | _ -> Alcotest.fail "parse should have failed"
      | exception Failure msg ->
        Alcotest.(check bool) "failure names the file" true (contains_substring msg path))

let test_dot_output () =
  let g = Digraph.of_edges ~n:2 [ (1, 2) ] in
  let dot = Gio.to_dot ~name:"test" ~highlight:[ 2 ] g in
  Alcotest.(check bool) "mentions edge" true (contains_substring dot "1 -> 2");
  Alcotest.(check bool) "mentions highlight" true (contains_substring dot "fillcolor")

(* --- Subgraph ---------------------------------------------------------------- *)

let test_induced_subgraph () =
  let g = Digraph.of_edges ~n:5 [ (1, 2); (2, 3); (3, 4); (4, 5); (5, 1) ] in
  let sub, mapping = Subgraph.induced g ~vertices:[ 1; 2; 3 ] in
  Alcotest.(check int) "sub vertices" 3 (Digraph.n_vertices sub);
  Alcotest.(check int) "sub edges" 2 (Digraph.n_edges sub);
  Alcotest.(check int) "mapping to_sub" 2 mapping.Subgraph.to_sub.(1);
  Alcotest.(check int) "mapping of_sub" 3 mapping.Subgraph.of_sub.(2)

let test_largest_component_subgraph () =
  let g = Digraph.of_edges ~n:7 [ (1, 2); (2, 3); (3, 1); (4, 5) ] in
  let sub, mapping = Subgraph.largest_component g in
  Alcotest.(check int) "largest component size" 3 (Digraph.n_vertices sub);
  Alcotest.(check int) "edges preserved" 3 (Digraph.n_edges sub);
  Alcotest.(check (array int)) "members" [| 1; 2; 3 |] mapping.Subgraph.of_sub

(* --- Clustering ---------------------------------------------------------------- *)

let triangle_plus_tail () =
  (* triangle 1-2-3 with a pendant 4 attached to 3 *)
  Digraph.of_edges ~n:4 [ (1, 2); (2, 3); (3, 1); (3, 4) ]

let test_clustering_coefficients () =
  let u = Ugraph.of_digraph (triangle_plus_tail ()) in
  Alcotest.(check (float 1e-9)) "vertex in triangle" 1. (Sf_graph.Clustering.local_coefficient u 1);
  Alcotest.(check (float 1e-9)) "triangle vertex with pendant" (1. /. 3.)
    (Sf_graph.Clustering.local_coefficient u 3);
  Alcotest.(check (float 1e-9)) "pendant has none" 0. (Sf_graph.Clustering.local_coefficient u 4);
  Alcotest.(check int) "one triangle" 1 (Sf_graph.Clustering.triangle_count u);
  (* wedges: deg 2,2,3,1 -> 1+1+3+0 = 5; transitivity 3/5 *)
  Alcotest.(check (float 1e-9)) "transitivity" 0.6 (Sf_graph.Clustering.global_transitivity u);
  Alcotest.(check (float 1e-9)) "average local" ((1. +. 1. +. (1. /. 3.)) /. 4.)
    (Sf_graph.Clustering.average_local u)

let test_clustering_tree_is_zero () =
  let rng = Rng.of_seed 50 in
  let u = Ugraph.of_digraph (Sf_gen.Mori.tree rng ~p:0.7 ~t:200) in
  Alcotest.(check (float 1e-9)) "trees have no triangles" 0.
    (Sf_graph.Clustering.global_transitivity u);
  Alcotest.(check int) "zero triangles" 0 (Sf_graph.Clustering.triangle_count u)

(* --- Correlation ----------------------------------------------------------------- *)

let test_assortativity_star_negative () =
  (* a star is maximally disassortative: r = -1 *)
  let star = Digraph.of_edges ~n:6 (List.init 5 (fun i -> (i + 2, 1))) in
  let u = Ugraph.of_digraph star in
  Alcotest.(check (float 1e-9)) "star assortativity" (-1.) (Sf_graph.Correlation.assortativity u)

let test_assortativity_regular_zero () =
  (* cycle: all degrees equal -> zero excess-degree variance -> 0 *)
  let cycle = Digraph.of_edges ~n:5 [ (1, 2); (2, 3); (3, 4); (4, 5); (5, 1) ] in
  Alcotest.(check (float 1e-9)) "cycle assortativity" 0.
    (Sf_graph.Correlation.assortativity (Ugraph.of_digraph cycle))

let test_knn_curve_star () =
  let star = Digraph.of_edges ~n:5 (List.init 4 (fun i -> (i + 2, 1))) in
  let u = Ugraph.of_digraph star in
  let curve = Sf_graph.Correlation.knn_curve u in
  (* leaves (degree 1) neighbour the hub (degree 4); hub neighbours leaves *)
  Alcotest.(check (float 1e-9)) "knn(1) = 4" 4. (List.assoc 1 curve);
  Alcotest.(check (float 1e-9)) "knn(4) = 1" 1. (List.assoc 4 curve)

let test_age_degree_spearman () =
  let rng = Rng.of_seed 51 in
  (* Mori tree: old vertices are rich (moderate p keeps enough degree
     spread for ranks to correlate despite ties) *)
  let u = Ugraph.of_digraph (Sf_gen.Mori.tree rng ~p:0.75 ~t:5000) in
  Alcotest.(check bool) "old vertices rich" true
    (Sf_graph.Correlation.age_degree_spearman u < -0.2);
  (* configuration model: no age structure *)
  let c =
    Ugraph.of_digraph (Sf_gen.Config_model.searchable_power_law rng ~n:2000 ~exponent:2.4 ())
  in
  Alcotest.(check bool) "config model age-free" true
    (Float.abs (Sf_graph.Correlation.age_degree_spearman c) < 0.1)

(* --- Kcore -------------------------------------------------------------------------- *)

let test_kcore_path () =
  let u = Ugraph.of_digraph (path_graph 6) in
  Alcotest.(check (array int)) "path is 1-core" (Array.make 6 1) (Sf_graph.Kcore.coreness u);
  Alcotest.(check int) "degeneracy 1" 1 (Sf_graph.Kcore.degeneracy u)

let test_kcore_clique_with_tail () =
  (* K4 on 1..4 plus tail 4-5-6 *)
  let g =
    Digraph.of_edges ~n:6
      [ (1, 2); (1, 3); (1, 4); (2, 3); (2, 4); (3, 4); (4, 5); (5, 6) ]
  in
  let core = Sf_graph.Kcore.coreness (Ugraph.of_digraph g) in
  Alcotest.(check (array int)) "coreness" [| 3; 3; 3; 3; 1; 1 |] core;
  Alcotest.(check int) "degeneracy 3" 3 (Sf_graph.Kcore.degeneracy (Ugraph.of_digraph g));
  Alcotest.(check (list int)) "3-core members" [ 1; 2; 3; 4 ]
    (Sf_graph.Kcore.k_core (Ugraph.of_digraph g) ~k:3);
  Alcotest.(check (list (pair int int))) "core sizes" [ (1, 2); (3, 4) ]
    (Sf_graph.Kcore.core_sizes (Ugraph.of_digraph g))

let test_kcore_matches_bruteforce () =
  (* brute force: iteratively strip vertices of degree < k *)
  let rng = Rng.of_seed 52 in
  let g = Sf_gen.Erdos_renyi.gnm rng ~n:40 ~m:100 in
  let u = Ugraph.of_digraph g in
  let core = Sf_graph.Kcore.coreness u in
  let brute_k_core k =
    let alive = Array.make 40 true in
    let changed = ref true in
    while !changed do
      changed := false;
      for v = 1 to 40 do
        if alive.(v - 1) then begin
          let d = ref 0 in
          Ugraph.iter_neighbors u v (fun w -> if w <> v && alive.(w - 1) then incr d);
          if !d < k then begin
            alive.(v - 1) <- false;
            changed := true
          end
        end
      done
    done;
    alive
  in
  for k = 1 to 8 do
    let alive = brute_k_core k in
    for v = 1 to 40 do
      Alcotest.(check bool)
        (Printf.sprintf "k=%d v=%d" k v)
        alive.(v - 1)
        (core.(v - 1) >= k)
    done
  done

(* --- qcheck properties ---------------------------------------------------------- *)

let mori_arb =
  QCheck.make
    ~print:(fun (seed, t) -> Printf.sprintf "(seed=%d, t=%d)" seed t)
    QCheck.Gen.(pair (int_bound 10_000) (int_range 2 200))

let prop_handshake =
  QCheck.Test.make ~name:"handshake on random trees" ~count:100 mori_arb
    (fun (seed, t) ->
      let g = Sf_gen.Mori.tree (Rng.of_seed seed) ~p:0.5 ~t in
      Metrics.degree_sum_invariant g)

let prop_bfs_triangle_inequality =
  QCheck.Test.make ~name:"BFS distances satisfy edge triangle inequality" ~count:50 mori_arb
    (fun (seed, t) ->
      let g = Sf_gen.Mori.tree (Rng.of_seed seed) ~p:0.5 ~t in
      let u = Ugraph.of_digraph g in
      let dist = Traversal.bfs_distances u ~source:1 in
      Digraph.fold_edges g ~init:true ~f:(fun acc e ->
          acc
          && abs (dist.(e.Digraph.src - 1) - dist.(e.Digraph.dst - 1)) <= 1))

let prop_coreness_bounded_by_degree =
  QCheck.Test.make ~name:"coreness <= degree, and k-cores nest" ~count:60 mori_arb
    (fun (seed, t) ->
      let rng = Rng.of_seed seed in
      let u = Sf_gen.Mori.graph rng ~p:0.6 ~m:2 ~n:(max 2 (t / 2)) in
      let core = Sf_graph.Kcore.coreness u in
      let deg_ok =
        Array.for_all Fun.id
          (Array.mapi (fun i c -> c <= Ugraph.degree u (i + 1)) core)
      in
      let k_max = Sf_graph.Kcore.degeneracy u in
      let nested =
        let rec go k =
          k > k_max
          ||
          let inner = Sf_graph.Kcore.k_core u ~k in
          let outer = Sf_graph.Kcore.k_core u ~k:(k - 1) in
          List.for_all (fun v -> List.mem v outer) inner && go (k + 1)
        in
        go 1
      in
      deg_ok && nested)

let prop_conditioned_tree_always_in_event =
  QCheck.Test.make ~name:"conditioned sampler lands in E_{a,b}" ~count:80
    QCheck.(
      make
        ~print:(fun (seed, a, w) -> Printf.sprintf "(seed=%d a=%d w=%d)" seed a w)
        Gen.(triple (int_bound 100_000) (int_range 2 80) (int_range 0 20)))
    (fun (seed, a, w) ->
      let b = a + w in
      let t = b + 5 in
      let g = Sf_gen.Mori.tree_conditioned (Rng.of_seed seed) ~p:0.6 ~t ~a ~b in
      Sf_core.Events.holds g ~a ~b)

let prop_permutation_action_preserves_edge_count =
  QCheck.Test.make ~name:"permutation action preserves size" ~count:50 mori_arb
    (fun (seed, t) ->
      let rng = Rng.of_seed seed in
      let g = Sf_gen.Mori.tree rng ~p:0.8 ~t in
      let sigma = Permute.random_of_subrange rng ~n:t ~lo:1 ~hi:t in
      let g' = Permute.apply sigma g in
      Digraph.n_edges g' = Digraph.n_edges g && Digraph.n_vertices g' = t)

let suite =
  [
    ("vec basics", `Quick, test_vec_basics);
    ("vec bounds", `Quick, test_vec_bounds);
    ("vec copy", `Quick, test_vec_copy_independent);
    ("digraph counts", `Quick, test_digraph_counts);
    ("edge ids are timestamps", `Quick, test_digraph_edge_ids_are_timestamps);
    ("digraph validation", `Quick, test_digraph_validation);
    ("digraph copy", `Quick, test_digraph_copy_independent);
    ("equal_structure", `Quick, test_equal_structure_ignores_order);
    ("canonical key", `Quick, test_canonical_key_agrees_with_equality);
    ("ugraph incidence", `Quick, test_ugraph_incidence);
    ("ugraph other endpoint", `Quick, test_ugraph_other_endpoint);
    ("ugraph neighbors", `Quick, test_ugraph_neighbors);
    ("bfs on path", `Quick, test_bfs_distances_on_path);
    ("bfs unreachable", `Quick, test_bfs_unreachable);
    ("shortest path", `Quick, test_shortest_path);
    ("components", `Quick, test_components);
    ("diameter", `Quick, test_diameter);
    ("mean distance", `Quick, test_mean_distance);
    ("permute validation", `Quick, test_permute_validation);
    ("permute group laws", `Quick, test_permute_group_laws);
    ("permute action", `Quick, test_permute_action);
    ("permute homomorphism", `Quick, test_permute_action_is_homomorphism);
    ("permute degree multiset", `Quick, test_permute_preserves_degree_multiset);
    ("subrange fixes rest", `Quick, test_subrange_fixes_rest);
    ("metrics degrees", `Quick, test_metrics_degrees);
    ("degree counts and ccdf", `Quick, test_degree_counts_and_ccdf);
    ("edge list roundtrip", `Quick, test_edge_list_roundtrip);
    ("edge list file roundtrip", `Quick, test_edge_list_file_roundtrip);
    ("edge list rejects garbage", `Quick, test_edge_list_rejects_garbage);
    ("read_edge_list names the path", `Quick, test_read_edge_list_names_path);
    ("dot output", `Quick, test_dot_output);
    ("induced subgraph", `Quick, test_induced_subgraph);
    ("largest component subgraph", `Quick, test_largest_component_subgraph);
    ("clustering coefficients", `Quick, test_clustering_coefficients);
    ("clustering zero on trees", `Quick, test_clustering_tree_is_zero);
    ("assortativity star", `Quick, test_assortativity_star_negative);
    ("assortativity regular", `Quick, test_assortativity_regular_zero);
    ("knn curve star", `Quick, test_knn_curve_star);
    ("age-degree spearman", `Quick, test_age_degree_spearman);
    ("kcore path", `Quick, test_kcore_path);
    ("kcore clique with tail", `Quick, test_kcore_clique_with_tail);
    ("kcore vs brute force", `Quick, test_kcore_matches_bruteforce);
    QCheck_alcotest.to_alcotest prop_handshake;
    QCheck_alcotest.to_alcotest prop_bfs_triangle_inequality;
    QCheck_alcotest.to_alcotest prop_permutation_action_preserves_edge_count;
    QCheck_alcotest.to_alcotest prop_coreness_bounded_by_degree;
    QCheck_alcotest.to_alcotest prop_conditioned_tree_always_in_event;
  ]
