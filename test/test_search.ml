(* Tests for the search formalism: the oracle's information hiding and
   request accounting, every strategy's behaviour on known graphs, the
   runner, geographic routing and percolation search. *)

module Rng = Sf_prng.Rng
module Ugraph = Sf_graph.Ugraph
module Oracle = Sf_search.Oracle
module Strategy = Sf_search.Strategy
module Strategies = Sf_search.Strategies
module Runner = Sf_search.Runner
module Heap = Sf_search.Heap

let path_graph n = Ugraph.of_edges ~n (List.init (n - 1) (fun i -> (i + 1, i + 2)))

let star_graph n =
  (* center 1, leaves 2..n *)
  Ugraph.of_edges ~n (List.init (n - 1) (fun i -> (i + 2, 1)))

let oracle_on ?(model = Oracle.Weak) ?(source = 1) ?(target = 2) g =
  Oracle.start ~rng:(Rng.of_seed 1000) model g ~source ~target

(* --- Oracle ------------------------------------------------------------ *)

let test_oracle_initial_state () =
  let o = oracle_on ~target:5 (path_graph 5) in
  Alcotest.(check int) "no requests yet" 0 (Oracle.requests o);
  Alcotest.(check bool) "source discovered" true (Oracle.is_discovered o 1);
  Alcotest.(check bool) "others hidden" false (Oracle.is_discovered o 2);
  Alcotest.(check int) "one discovery" 1 (Oracle.discovered_count o);
  Alcotest.(check int) "source degree visible" 1 (Oracle.degree o 1);
  Alcotest.(check bool) "not found" false (Oracle.target_found o)

let test_oracle_hides_undiscovered () =
  let o = oracle_on (path_graph 5) in
  Alcotest.check_raises "degree of undiscovered"
    (Invalid_argument "Oracle.handles: vertex not discovered") (fun () ->
      ignore (Oracle.degree o 3));
  Alcotest.check_raises "handles of undiscovered"
    (Invalid_argument "Oracle.handles: vertex not discovered") (fun () ->
      ignore (Oracle.handles o 3))

let test_weak_request_reveals () =
  let o = oracle_on ~target:3 (path_graph 3) in
  let h = (Oracle.handles o 1).(0) in
  Alcotest.(check bool) "not yet requested" false (Oracle.handle_requested o h);
  Alcotest.(check (option (pair int int))) "endpoints hidden" None (Oracle.endpoints_if_known o h);
  let far = Oracle.request_weak o ~owner:1 h in
  Alcotest.(check int) "far endpoint" 2 far;
  Alcotest.(check int) "one request" 1 (Oracle.requests o);
  Alcotest.(check bool) "requested flag" true (Oracle.handle_requested o h);
  Alcotest.(check bool) "far endpoint discovered" true (Oracle.is_discovered o 2);
  Alcotest.(check int) "degree of 2 now visible" 2 (Oracle.degree o 2);
  (match Oracle.endpoints_if_known o h with
  | Some (a, b) -> Alcotest.(check bool) "endpoints now known" true ((a, b) = (1, 2) || (a, b) = (2, 1))
  | None -> Alcotest.fail "endpoints should be recognisable");
  Alcotest.(check bool) "target not found yet" false (Oracle.target_found o)

let test_shared_handle_identity () =
  (* after discovering both endpoints, the same physical edge carries
     the same handle in both incidence lists *)
  let o = oracle_on ~target:3 (path_graph 3) in
  let h = (Oracle.handles o 1).(0) in
  ignore (Oracle.request_weak o ~owner:1 h);
  let handles2 = Oracle.handles o 2 in
  Alcotest.(check bool) "edge recognisable from the other side" true
    (Array.exists (fun h' -> h' = h) handles2)

let test_wasted_requests_still_count () =
  let o = oracle_on ~target:3 (path_graph 3) in
  let h = (Oracle.handles o 1).(0) in
  ignore (Oracle.request_weak o ~owner:1 h);
  ignore (Oracle.request_weak o ~owner:1 h);
  Alcotest.(check int) "re-request costs" 2 (Oracle.requests o)

let test_request_validation () =
  let o = oracle_on (path_graph 4) in
  Alcotest.check_raises "owner undiscovered"
    (Invalid_argument "Oracle.request_weak: vertex not discovered") (fun () ->
      ignore (Oracle.request_weak o ~owner:3 0));
  Alcotest.check_raises "strong request on weak oracle"
    (Invalid_argument "Oracle.request_strong: not a strong-model instance") (fun () ->
      ignore (Oracle.request_strong o 1));
  let h = (Oracle.handles o 1).(0) in
  ignore (Oracle.request_weak o ~owner:1 h);
  (* handle of vertex 2's far side is not incident to 1 *)
  let far_handle =
    Array.to_list (Oracle.handles o 2) |> List.find (fun h' -> h' <> h)
  in
  Alcotest.check_raises "handle not incident to owner"
    (Invalid_argument "Ugraph.other_endpoint: vertex is not an endpoint") (fun () ->
      ignore (Oracle.request_weak o ~owner:1 far_handle))

let test_found_bookkeeping () =
  let o = oracle_on ~target:3 (path_graph 4) in
  let h1 = (Oracle.handles o 1).(0) in
  ignore (Oracle.request_weak o ~owner:1 h1);
  (* vertex 2 is a neighbour of target 3: neighbor counter fires at 1 *)
  Alcotest.(check (option int)) "neighbor reached at 1" (Some 1) (Oracle.requests_when_neighbor o);
  Alcotest.(check (option int)) "target not yet" None (Oracle.requests_when_found o);
  let h2 =
    Array.to_list (Oracle.handles o 2)
    |> List.find (fun h -> not (Oracle.handle_requested o h))
  in
  ignore (Oracle.request_weak o ~owner:2 h2);
  Alcotest.(check (option int)) "target found at 2" (Some 2) (Oracle.requests_when_found o);
  Alcotest.(check bool) "found" true (Oracle.target_found o)

let test_source_equals_neighbor_of_target () =
  let o = oracle_on ~source:2 ~target:3 (path_graph 4) in
  Alcotest.(check (option int)) "starting next to the target scores 0" (Some 0)
    (Oracle.requests_when_neighbor o)

let test_strong_request () =
  let o = oracle_on ~model:Oracle.Strong ~source:1 ~target:4 (star_graph 5) in
  let neighbors = Oracle.request_strong o 1 in
  Alcotest.(check int) "one request" 1 (Oracle.requests o);
  Alcotest.(check (list int)) "all leaves revealed" [ 2; 3; 4; 5 ] (List.sort compare neighbors);
  Alcotest.(check bool) "explored" true (Oracle.is_explored o 1);
  Alcotest.(check bool) "leaf discovered" true (Oracle.is_discovered o 3);
  Alcotest.(check bool) "target found" true (Oracle.target_found o);
  Alcotest.(check (option int)) "found at 1" (Some 1) (Oracle.requests_when_found o)

let test_strong_neighbor_multiplicity_collapsed () =
  let g = Ugraph.of_edges ~n:2 [ (1, 2); (1, 2); (2, 2) ] in
  let o = Oracle.start ~rng:(Rng.of_seed 3) Oracle.Strong g ~source:1 ~target:2 in
  let neighbors = Oracle.request_strong o 1 in
  Alcotest.(check (list int)) "multiplicity collapsed" [ 2 ] neighbors

let test_handle_obfuscation () =
  (* with obfuscation on, public handles are assigned in discovery
     order starting at 0, regardless of physical edge ids *)
  let g = path_graph 6 in
  let o = Oracle.start ~rng:(Rng.of_seed 4) Oracle.Weak g ~source:5 ~target:1 in
  let hs = Oracle.handles o 5 in
  Array.iter
    (fun h -> Alcotest.(check bool) "small public ids" true (h >= 0 && h < 2))
    hs

let test_self_loop_request () =
  let g = Ugraph.of_edges ~n:2 [ (1, 1); (1, 2) ] in
  let o = Oracle.start ~rng:(Rng.of_seed 5) Oracle.Weak g ~source:1 ~target:2 in
  (* find the self-loop handle: requesting it returns 1 itself *)
  let hs = Oracle.handles o 1 in
  Alcotest.(check int) "two handles (loop counted once)" 2 (Array.length hs);
  let results = Array.map (fun h -> Oracle.request_weak o ~owner:1 h) hs in
  Array.sort compare results;
  Alcotest.(check (array int)) "loop returns self, edge returns 2" [| 1; 2 |] results

(* --- Heap ------------------------------------------------------------------ *)

let test_heap_ordering () =
  let h = Heap.create () in
  List.iter (fun (p, v) -> Heap.push h ~priority:p v) [ (1., 1); (5., 2); (3., 3); (5., 4); (0.5, 5) ];
  Alcotest.(check int) "size" 5 (Heap.length h);
  let first = Heap.pop_max h in
  let second = Heap.pop_max h in
  (match (first, second) with
  | Some (p1, _), Some (p2, _) ->
    Alcotest.(check (float 1e-9)) "max first" 5. p1;
    Alcotest.(check (float 1e-9)) "max second" 5. p2
  | _ -> Alcotest.fail "pops should succeed");
  Alcotest.(check int) "size after pops" 3 (Heap.length h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in non-increasing priority order" ~count:200
    QCheck.(list (float_range (-100.) 100.))
    (fun priorities ->
      let h = Heap.create () in
      List.iteri (fun i p -> Heap.push h ~priority:p i) priorities;
      let rec drain acc =
        match Heap.pop_max h with Some (p, _) -> drain (p :: acc) | None -> acc
      in
      let popped = drain [] in
      (* drained in reverse: acc ends up ascending *)
      List.sort compare popped = popped
      && List.length popped = List.length priorities)

(* --- strategies on known graphs ---------------------------------------------- *)

let run_strategy ?(seed = 7) ?budget strategy g ~source ~target =
  let rng = Rng.of_seed seed in
  Runner.search ?budget ~rng g strategy ~source ~target

let test_all_weak_strategies_find_target_on_path () =
  let g = path_graph 12 in
  List.iter
    (fun s ->
      let o = run_strategy ~budget:100_000 s g ~source:1 ~target:12 in
      Alcotest.(check bool)
        (Printf.sprintf "%s finds the end of the path" o.Runner.strategy)
        true
        (o.Runner.to_target <> None))
    (Strategies.weak_portfolio ())

let test_bfs_cost_on_path_is_exact () =
  (* On a path searched from one end, BFS must pay exactly the distance:
     every request discovers the next vertex. *)
  let g = path_graph 10 in
  let o = run_strategy Strategies.bfs g ~source:1 ~target:10 in
  Alcotest.(check (option int)) "9 requests to reach the far end" (Some 9) o.Runner.to_target

let test_strategies_never_exceed_useful_requests_on_star () =
  (* On a star with target a leaf, any skip-known strategy needs at most
     n-1 requests (all spokes). *)
  let g = star_graph 20 in
  List.iter
    (fun s ->
      let o = run_strategy s g ~source:1 ~target:17 in
      match o.Runner.to_target with
      | Some r ->
        Alcotest.(check bool) (Printf.sprintf "%s <= 19 on star" o.Runner.strategy) true (r <= 19)
      | None -> Alcotest.fail "must find a leaf of the star")
    [ Strategies.bfs; Strategies.dfs; Strategies.high_degree; Strategies.random_edge ~skip_known:true ]

let test_strong_strategies_find_target () =
  let rng = Rng.of_seed 8 in
  let g = Sf_gen.Mori.tree rng ~p:0.6 ~t:300 in
  List.iter
    (fun s ->
      let o = run_strategy s g ~source:1 ~target:295 in
      Alcotest.(check bool)
        (Printf.sprintf "%s finds target" o.Runner.strategy)
        true
        (o.Runner.to_target <> None))
    (Strategies.strong_portfolio ())

let test_strong_cheaper_than_weak_on_star () =
  (* one strong request on the centre discovers everything *)
  let g = star_graph 30 in
  let o = run_strategy Strategies.strong_seq g ~source:1 ~target:25 in
  Alcotest.(check (option int)) "single strong request suffices" (Some 1) o.Runner.to_target

let test_runner_budget () =
  let g = path_graph 100 in
  let o = run_strategy ~budget:5 Strategies.bfs g ~source:1 ~target:100 in
  Alcotest.(check int) "stopped at budget" 5 o.Runner.total_requests;
  Alcotest.(check (option int)) "not found" None o.Runner.to_target;
  Alcotest.(check bool) "did not give up" false o.Runner.gave_up

let test_runner_give_up_on_unreachable () =
  let g = Ugraph.of_edges ~n:4 [ (1, 2); (3, 4) ] in
  let o = run_strategy Strategies.bfs g ~source:1 ~target:4 in
  Alcotest.(check bool) "gave up" true o.Runner.gave_up;
  Alcotest.(check (option int)) "never found" None o.Runner.to_target;
  Alcotest.(check int) "explored its component" 2 o.Runner.discovered

let test_runner_stop_at_neighbor () =
  let g = path_graph 10 in
  let rng = Rng.of_seed 9 in
  let o =
    Runner.search ~stop_at:Runner.At_neighbor ~rng g Strategies.bfs
      ~source:1 ~target:10
  in
  Alcotest.(check (option int)) "stops one hop early" (Some 8) o.Runner.to_neighbor;
  Alcotest.(check (option int)) "target itself not discovered" None o.Runner.to_target

let test_runner_model_mismatch () =
  let g = path_graph 4 in
  let o = oracle_on ~target:4 g in
  Alcotest.check_raises "weak oracle, strong strategy"
    (Invalid_argument "Runner.run: strategy and oracle use different knowledge models")
    (fun () -> ignore (Runner.run ~rng:(Rng.of_seed 1) Strategies.strong_seq o))

let test_source_equals_target () =
  let g = path_graph 5 in
  let o = run_strategy Strategies.bfs g ~source:3 ~target:3 in
  Alcotest.(check (option int)) "zero requests" (Some 0) o.Runner.to_target

let test_random_walk_moves () =
  (* on a path, the walk's request count equals hops taken; ensure it
     progresses and eventually arrives on a small instance *)
  let g = path_graph 6 in
  let o = run_strategy ~budget:10_000 Strategies.random_walk g ~source:1 ~target:6 in
  Alcotest.(check bool) "walk arrives" true (o.Runner.to_target <> None)

let test_high_degree_prefers_hub () =
  (* star centre has max degree: high-degree explores it before leaves *)
  let g = star_graph 15 in
  (* searching from a leaf: the first request reveals the centre, the
     strategy must then drain the centre's spokes *)
  let o = run_strategy Strategies.high_degree g ~source:3 ~target:11 in
  match o.Runner.to_target with
  | Some r -> Alcotest.(check bool) "cheap via hub" true (r <= 15)
  | None -> Alcotest.fail "high-degree must find the leaf"

(* --- information hiding: strategies cannot beat the physical limit ----------- *)

let test_no_strategy_teleports () =
  (* any outcome's discovered set must be connected through requested
     edges: |discovered| <= requests + 1 *)
  let rng = Rng.of_seed 10 in
  let g = Sf_gen.Mori.tree rng ~p:0.8 ~t:400 in
  List.iter
    (fun s ->
      let o = run_strategy s g ~source:1 ~target:399 in
      Alcotest.(check bool)
        (Printf.sprintf "%s: discoveries bounded by requests" o.Runner.strategy)
        true
        (o.Runner.discovered <= o.Runner.total_requests + 1))
    (Strategies.weak_portfolio ())

let adjacent u v w =
  List.exists (fun x -> x = w) (Ugraph.neighbors u v)

let test_discovery_path_is_real_path () =
  (* every strategy, weak and strong, must leave a certified graph path
     from the source to the target in the discovery tree - the paper's
     actual deliverable ("find a path to vertex n") *)
  let rng = Rng.of_seed 90 in
  let u = Sf_gen.Mori.graph rng ~p:0.6 ~m:2 ~n:250 in
  List.iter
    (fun strategy ->
      let oracle =
        Oracle.start ~rng strategy.Strategy.model u ~source:1 ~target:240
      in
      let outcome = Runner.run ~budget:100_000 ~rng strategy oracle in
      match outcome.Runner.to_target with
      | None -> Alcotest.fail (strategy.Strategy.name ^ " should find the target")
      | Some _ ->
        let path = Oracle.discovery_path oracle 240 in
        Alcotest.(check int) "starts at source" 1 (List.hd path);
        Alcotest.(check int) "ends at target" 240 (List.nth path (List.length path - 1));
        let rec check_edges = function
          | a :: (b :: _ as rest) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: %d-%d is an edge" strategy.Strategy.name a b)
              true (adjacent u a b);
            check_edges rest
          | _ -> ()
        in
        check_edges path)
    (Strategies.weak_portfolio () @ Strategies.strong_portfolio ())

let test_discovery_parent_of_source () =
  let o = oracle_on ~target:3 (path_graph 4) in
  Alcotest.(check (option int)) "source has no parent" None (Oracle.discovery_parent o 1);
  let h = (Oracle.handles o 1).(0) in
  ignore (Oracle.request_weak o ~owner:1 h);
  Alcotest.(check (option int)) "revealed by the source" (Some 1) (Oracle.discovery_parent o 2);
  Alcotest.(check (list int)) "two-vertex path" [ 1; 2 ] (Oracle.discovery_path o 2)

let test_epsilon_greedy_finds_target () =
  let rng = Rng.of_seed 80 in
  let g = Sf_gen.Mori.tree rng ~p:0.6 ~t:300 in
  List.iter
    (fun eps ->
      let o =
        run_strategy ~budget:50_000 (Strategies.epsilon_greedy ~epsilon:eps) g ~source:1
          ~target:295
      in
      Alcotest.(check bool)
        (Printf.sprintf "eps=%.1f finds target" eps)
        true
        (o.Runner.to_target <> None))
    [ 0.; 0.3; 1. ];
  Alcotest.check_raises "epsilon out of range"
    (Invalid_argument "Strategies.epsilon_greedy: need epsilon in [0,1]") (fun () ->
      ignore (Strategies.epsilon_greedy ~epsilon:1.5))

let test_restart_walk_finds_target () =
  let rng = Rng.of_seed 81 in
  let g = Sf_gen.Mori.tree rng ~p:0.6 ~t:120 in
  let o = run_strategy ~budget:200_000 (Strategies.restart_walk ~restart:0.1) g ~source:1 ~target:115 in
  Alcotest.(check bool) "restart walk arrives" true (o.Runner.to_target <> None);
  (* restart = 0 must behave like a plain walk (still correct) *)
  let o0 = run_strategy ~budget:200_000 (Strategies.restart_walk ~restart:0.) g ~source:1 ~target:115 in
  Alcotest.(check bool) "zero-restart walk arrives" true (o0.Runner.to_target <> None)

let test_timestamp_cheat_grabs_target_edge () =
  (* Non-obfuscated Mori tree where the father of the target is the
     start vertex: the cheat must find the target in one request. *)
  let g = Ugraph.of_edges ~n:5 [ (2, 1); (3, 1); (4, 2); (5, 1) ] in
  (* this is a valid fathers-array tree: N_2..N_5 = 1,1,2,1; target 5's
     edge has id 3 and sits in vertex 1's incidence list *)
  let rng = Rng.of_seed 77 in
  let o =
    Runner.search ~obfuscate:false ~rng g Strategies.timestamp_cheat
      ~source:1 ~target:5
  in
  Alcotest.(check (option int)) "one request via the leaked id" (Some 1) o.Runner.to_target

let test_timestamp_cheat_works_sealed () =
  (* on the default oracle the cheat degenerates to high-degree search
     but must still terminate and find the target *)
  let rng = Rng.of_seed 78 in
  let g = Sf_gen.Mori.tree rng ~p:0.6 ~t:400 in
  let o = run_strategy Strategies.timestamp_cheat g ~source:1 ~target:390 in
  Alcotest.(check bool) "still finds the target" true (o.Runner.to_target <> None)

let test_traced_run_matches_outcome () =
  let rng = Rng.of_seed 95 in
  let g = Sf_gen.Mori.tree rng ~p:0.7 ~t:200 in
  let oracle = Oracle.start ~rng Oracle.Weak g ~source:1 ~target:190 in
  let outcome, trace = Runner.run_traced ~rng Strategies.bfs oracle in
  Alcotest.(check int) "one event per request" outcome.Runner.total_requests (List.length trace);
  (* indices are 1..N in order; discovered_total is monotone *)
  List.iteri
    (fun i e -> Alcotest.(check int) "sequential indices" (i + 1) e.Runner.index)
    trace;
  let monotone, _ =
    List.fold_left
      (fun (ok, prev) e -> (ok && e.Runner.discovered_total >= prev, e.Runner.discovered_total))
      (true, 0) trace
  in
  Alcotest.(check bool) "discovery counter monotone" true monotone;
  (* every weak event reveals at most one vertex *)
  List.iter
    (fun e -> Alcotest.(check bool) "weak reveals <= 1" true (List.length e.Runner.revealed <= 1))
    trace;
  (* csv renders one line per event plus the header *)
  let csv = Runner.trace_to_csv trace in
  let lines = String.split_on_char '\n' csv |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "csv lines" (List.length trace + 1) (List.length lines)

let test_traced_strong_reveals_batches () =
  let rng = Rng.of_seed 96 in
  let g = star_graph 12 in
  let oracle = Oracle.start ~rng Oracle.Strong g ~source:1 ~target:9 in
  let _, trace = Runner.run_traced ~rng Strategies.strong_seq oracle in
  match trace with
  | [ e ] ->
    Alcotest.(check int) "one request" 1 e.Runner.index;
    Alcotest.(check int) "reveals all leaves" 11 (List.length e.Runner.revealed)
  | _ -> Alcotest.fail "single strong request expected"

(* --- geographic routing ------------------------------------------------------- *)

let test_geo_routing_on_grid () =
  let rng = Rng.of_seed 11 in
  let side = 12 in
  let t = Sf_gen.Kleinberg.generate rng ~side ~r:2. ~q:1 () in
  let u = t.Sf_gen.Kleinberg.graph in
  let dist = Sf_gen.Kleinberg.lattice_distance ~side in
  let source = 1 and target = Sf_gen.Kleinberg.vertex_of_coord ~side ~row:6 ~col:6 in
  let r = Sf_search.Geo_routing.greedy u ~dist ~source ~target ~max_steps:1000 in
  Alcotest.(check bool) "reaches target" true r.Sf_search.Geo_routing.reached;
  Alcotest.(check bool) "no more steps than lattice distance on q>=0 grid" true
    (r.Sf_search.Geo_routing.steps <= dist source target + 50)

let test_geo_routing_trivial () =
  let rng = Rng.of_seed 12 in
  let t = Sf_gen.Kleinberg.generate rng ~side:4 ~r:2. ~q:0 () in
  let u = t.Sf_gen.Kleinberg.graph in
  let dist = Sf_gen.Kleinberg.lattice_distance ~side:4 in
  let r = Sf_search.Geo_routing.greedy u ~dist ~source:5 ~target:5 ~max_steps:10 in
  Alcotest.(check int) "zero steps to self" 0 r.Sf_search.Geo_routing.steps;
  Alcotest.(check bool) "reached" true r.Sf_search.Geo_routing.reached

let test_geo_routing_pure_lattice_exact () =
  (* with q = 0 greedy follows a shortest lattice path exactly *)
  let rng = Rng.of_seed 13 in
  let side = 8 in
  let t = Sf_gen.Kleinberg.generate rng ~side ~r:2. ~q:0 () in
  let u = t.Sf_gen.Kleinberg.graph in
  let dist = Sf_gen.Kleinberg.lattice_distance ~side in
  let source = 1 and target = Sf_gen.Kleinberg.vertex_of_coord ~side ~row:3 ~col:2 in
  let r = Sf_search.Geo_routing.greedy u ~dist ~source ~target ~max_steps:100 in
  Alcotest.(check bool) "reached" true r.Sf_search.Geo_routing.reached;
  Alcotest.(check int) "exact lattice distance" (dist source target) r.Sf_search.Geo_routing.steps

(* --- percolation search --------------------------------------------------------- *)

let test_percolation_replicate () =
  let rng = Rng.of_seed 14 in
  let g = path_graph 50 in
  let replicas = Sf_search.Percolation.replicate rng g ~owner:25 ~walk_length:10 in
  Alcotest.(check bool) "owner holds a replica" true replicas.(24);
  let count = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 replicas in
  Alcotest.(check bool) "walk placed between 1 and 11 replicas" true (count >= 1 && count <= 11)

let test_percolation_finds_on_small_graph () =
  let rng = Rng.of_seed 15 in
  let u =
    Sf_gen.Config_model.searchable_power_law rng ~n:500 ~exponent:2.3 ()
  in
  let params = Sf_search.Percolation.default_params ~n:(Ugraph.n_vertices u) in
  let hits = ref 0 in
  let trials = 20 in
  for i = 1 to trials do
    let source = 1 + (i mod Ugraph.n_vertices u) in
    let target = 1 + ((i * 7) mod Ugraph.n_vertices u) in
    if source <> target then begin
      let r = Sf_search.Percolation.run rng u params ~source ~target in
      if r.Sf_search.Percolation.hit then incr hits;
      Alcotest.(check bool) "messages within budget" true
        (r.Sf_search.Percolation.messages <= params.Sf_search.Percolation.max_messages)
    end
  done;
  Alcotest.(check bool) "mostly successful" true (!hits >= trials / 2)

let test_percolation_zero_prob_rarely_hits () =
  let rng = Rng.of_seed 16 in
  let g = path_graph 200 in
  let params =
    {
      Sf_search.Percolation.replication_walk = 2;
      query_walk = 2;
      broadcast_prob = 0.;
      max_messages = 1000;
    }
  in
  (* with no broadcast and tiny walks on a long path, distant content
     is unreachable *)
  let r = Sf_search.Percolation.run rng g params ~source:1 ~target:200 in
  Alcotest.(check bool) "cannot cross the path" false r.Sf_search.Percolation.hit

(* --- qcheck: model consistency -------------------------------------------------- *)

let prop_strong_equals_weak_closure =
  (* one strong request discovers exactly what weak requests on every
     handle of the same vertex discover - the simulation the proof
     rests on *)
  QCheck.Test.make ~name:"strong request = closure of weak requests" ~count:60
    QCheck.(
      make
        ~print:(fun (seed, t) -> Printf.sprintf "(seed=%d, t=%d)" seed t)
        Gen.(pair (int_bound 100_000) (int_range 3 60)))
    (fun (seed, t) ->
      let rng = Rng.of_seed seed in
      let g = Sf_gen.Mori.graph rng ~p:0.7 ~m:2 ~n:t in
      let weak = Oracle.start ~rng:(Rng.of_seed seed) Oracle.Weak g ~source:1 ~target:t in
      let strong = Oracle.start ~rng:(Rng.of_seed seed) Oracle.Strong g ~source:1 ~target:t in
      ignore (Oracle.request_strong strong 1);
      Array.iter (fun h -> ignore (Oracle.request_weak weak ~owner:1 h)) (Oracle.handles weak 1);
      let discovered oracle =
        List.init (Oracle.discovered_count oracle) (Oracle.discovered_nth oracle)
        |> List.sort compare
      in
      discovered weak = discovered strong)

let prop_kleinberg_distance_is_metric =
  QCheck.Test.make ~name:"toroidal lattice distance is a metric" ~count:200
    QCheck.(
      make
        ~print:(fun (side, a, b, c) -> Printf.sprintf "side=%d a=%d b=%d c=%d" side a b c)
        Gen.(
          int_range 2 20 >>= fun side ->
          let n = side * side in
          triple (int_range 1 n) (int_range 1 n) (int_range 1 n)
          >>= fun (a, b, c) -> return (side, a, b, c)))
    (fun (side, a, b, c) ->
      let d = Sf_gen.Kleinberg.lattice_distance ~side in
      d a a = 0
      && d a b = d b a
      && d a b >= 0
      && d a c <= d a b + d b c
      && (d a b > 0 || a = b))

let prop_requests_never_decrease_knowledge =
  QCheck.Test.make ~name:"discovered set grows monotonically" ~count:40
    QCheck.(
      make
        ~print:(fun (seed, t) -> Printf.sprintf "(seed=%d, t=%d)" seed t)
        Gen.(pair (int_bound 100_000) (int_range 10 100)))
    (fun (seed, t) ->
      let rng = Rng.of_seed seed in
      let g = Sf_gen.Mori.tree rng ~p:0.5 ~t in
      let oracle = Oracle.start ~rng Oracle.Weak g ~source:1 ~target:t in
      let _, trace = Runner.run_traced ~rng Strategies.dfs oracle in
      fst
        (List.fold_left
           (fun (ok, prev) e -> (ok && e.Runner.discovered_total >= prev, e.Runner.discovered_total))
           (true, 1) trace))

(* --- Oracle arena ---------------------------------------------------------- *)

(* Everything a query reveals: the outcome, then per discovered vertex
   (in discovery order) its discovery path, its handles in list order
   and its explored flag. *)
let snapshot oracle outcome =
  ( outcome,
    List.init (Oracle.discovered_count oracle) (fun i ->
        let v = Oracle.discovered_nth oracle i in
        ( Oracle.discovery_path oracle v,
          Array.to_list (Oracle.handles oracle v),
          Oracle.is_explored oracle v )) )

let query_rng seed k = Rng.of_seed ((seed * 1000) + k)

let run_query ~seed g strategy k (source, target) =
  let rng = query_rng seed k in
  let oracle = Oracle.start ~rng strategy.Strategy.model g ~source ~target in
  let outcome = Runner.run ~budget:(4 * Ugraph.n_vertices g) ~rng strategy oracle in
  (oracle, snapshot oracle outcome)

let prop_arena_reuse_equivalence =
  (* a released arena serves the next query exactly as a fresh one
     would: the references run on a new domain that never releases, so
     each of its oracles gets a new arena *)
  let strategies =
    Array.of_list (Strategies.weak_portfolio () @ Strategies.strong_portfolio ())
  in
  QCheck.Test.make ~name:"arena reuse = fresh oracle" ~count:40
    QCheck.(
      make
        ~print:(fun (seed, cf, si, qs) ->
          Printf.sprintf "seed=%d cf=%b strategy=%s queries=[%s]" seed cf
            strategies.(si).Strategy.name
            (String.concat "; " (List.map (fun (s, t) -> Printf.sprintf "%d->%d" s t) qs)))
        Gen.(
          quad (int_bound 100_000) bool
            (int_bound (Array.length strategies - 1))
            (list_size (int_range 1 6) (pair (int_range 1 200) (int_range 1 200)))))
    (fun (seed, cf, si, qs) ->
      let rng = Rng.of_seed seed in
      let g =
        if cf then Sf_gen.Cooper_frieze.generate_n_vertices rng Sf_gen.Cooper_frieze.default ~n:150
        else Sf_gen.Mori.graph rng ~p:0.6 ~m:2 ~n:150
      in
      let n = Ugraph.n_vertices g in
      let qs = List.map (fun (s, t) -> (1 + ((s - 1) mod n), 1 + ((t - 1) mod n))) qs in
      let strategy = strategies.(si) in
      let fresh =
        Domain.join
          (Domain.spawn (fun () ->
               List.mapi (fun k q -> snd (run_query ~seed g strategy k q)) qs))
      in
      let reused =
        List.mapi
          (fun k q ->
            let oracle, snap = run_query ~seed g strategy k q in
            Oracle.release oracle;
            snap)
          qs
      in
      fresh = reused)

let raises_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: no exception after release" name
  | exception Invalid_argument _ -> ()

let test_use_after_release () =
  let g = Sf_gen.Mori.tree (Rng.of_seed 8) ~p:0.5 ~t:60 in
  let o = Oracle.start ~rng:(Rng.of_seed 9) Oracle.Weak g ~source:1 ~target:60 in
  let h = (Oracle.handles o 1).(0) in
  ignore (Oracle.request_weak o ~owner:1 h);
  let s = Oracle.start ~rng:(Rng.of_seed 9) Oracle.Strong g ~source:1 ~target:60 in
  Oracle.release o;
  Oracle.release s;
  Oracle.release o;
  (* the arena now serves another query; the released oracles must not
     read its state *)
  let next = Oracle.start ~rng:(Rng.of_seed 10) Oracle.Weak g ~source:2 ~target:3 in
  List.iter
    (fun o ->
      List.iter
        (fun (name, f) -> raises_invalid name f)
        [
          ("model", fun () -> ignore (Oracle.model o));
          ("n_vertices", fun () -> ignore (Oracle.n_vertices o));
          ("target", fun () -> ignore (Oracle.target o));
          ("source", fun () -> ignore (Oracle.source o));
          ("requests", fun () -> ignore (Oracle.requests o));
          ("is_discovered", fun () -> ignore (Oracle.is_discovered o 1));
          ("discovered_count", fun () -> ignore (Oracle.discovered_count o));
          ("discovered_nth", fun () -> ignore (Oracle.discovered_nth o 0));
          ("degree", fun () -> ignore (Oracle.degree o 1));
          ("handles", fun () -> ignore (Oracle.handles o 1));
          ("handle_requested", fun () -> ignore (Oracle.handle_requested o h));
          ("endpoints_if_known", fun () -> ignore (Oracle.endpoints_if_known o h));
          ("request_weak", fun () -> ignore (Oracle.request_weak o ~owner:1 h));
          ("request_strong", fun () -> ignore (Oracle.request_strong o 1));
          ("is_explored", fun () -> ignore (Oracle.is_explored o 1));
          ("discovery_parent", fun () -> ignore (Oracle.discovery_parent o 1));
          ("discovery_path", fun () -> ignore (Oracle.discovery_path o 1));
          ("target_found", fun () -> ignore (Oracle.target_found o));
          ("requests_when_found", fun () -> ignore (Oracle.requests_when_found o));
          ("requests_when_neighbor", fun () -> ignore (Oracle.requests_when_neighbor o));
        ])
    [ o; s ];
  Alcotest.check_raises "the message names the call"
    (Invalid_argument "Oracle.handles: oracle released") (fun () ->
      ignore (Oracle.handles o 1));
  Alcotest.(check int) "the live oracle is untouched" 1 (Oracle.discovered_count next);
  Oracle.release next

let test_two_live_oracles () =
  (* two oracles live on one domain, stepped in alternation, end exactly
     where each ends alone; a third started after one is released (so
     it takes that arena) leaves the other alone *)
  let g = Sf_gen.Mori.graph (Rng.of_seed 77) ~p:0.6 ~m:2 ~n:300 in
  let alone strategy k ~target =
    let oracle, snap = run_query ~seed:5 g strategy k (1, target) in
    Oracle.release oracle;
    snap
  in
  let a_ref = alone Strategies.high_degree 0 ~target:290
  and b_ref = alone Strategies.strong_high_degree 1 ~target:280 in
  let stepper strategy k ~target =
    let rng = query_rng 5 k in
    let oracle = Oracle.start ~rng strategy.Strategy.model g ~source:1 ~target in
    (oracle, strategy, rng)
  in
  let ((a, _, _) as qa) = stepper Strategies.high_degree 0 ~target:290 in
  let ((b, _, _) as qb) = stepper Strategies.strong_high_degree 1 ~target:280 in
  (* Runner.run splits the query rng for the strategy, so the same
     split is made here *)
  let step_of (oracle, strategy, rng) =
    let next = strategy.Strategy.prepare (Rng.split rng) oracle in
    fun () ->
      if Oracle.target_found oracle || Oracle.requests oracle >= 1200 then false
      else
        match next () with
        | Strategy.Request_edge (owner, h) ->
          ignore (Oracle.request_weak oracle ~owner h);
          true
        | Strategy.Request_vertex v ->
          ignore (Oracle.request_strong oracle v);
          true
        | Strategy.Give_up -> false
  in
  let step_a = step_of qa and step_b = step_of qb in
  let rec alternate a_on b_on =
    if a_on || b_on then begin
      let a_on = a_on && step_a () in
      let b_on = b_on && step_b () in
      alternate a_on b_on
    end
  in
  alternate true true;
  let check name (expected, vertices) oracle =
    Alcotest.(check int) (name ^ ": requests") expected.Runner.total_requests
      (Oracle.requests oracle);
    Alcotest.(check bool) (name ^ ": same discoveries, paths and handles") true
      (vertices = snd (snapshot oracle expected))
  in
  check "weak, interleaved" a_ref a;
  check "strong, interleaved" b_ref b;
  Oracle.release a;
  let c, _ = run_query ~seed:5 g Strategies.bfs 2 (1, 250) in
  check "strong, after a third query took the released arena" b_ref b;
  Oracle.release b;
  Oracle.release c

let test_warm_start_allocation () =
  (* on a warm domain, start + release allocates a constant: nothing
     proportional to n. Source and target are the two newest vertices
     of a Móri tree, leaves whose degree does not grow with n. *)
  let alloc_at n =
    let g = Sf_gen.Mori.tree (Rng.of_seed 3) ~p:0.5 ~t:n in
    let go () =
      Oracle.release
        (Oracle.start ~rng:(Rng.of_seed 4) Oracle.Weak g ~source:n ~target:(n - 1))
    in
    go ();
    let before = Gc.allocated_bytes () in
    go ();
    Gc.allocated_bytes () -. before
  in
  let small = alloc_at (1 lsl 12) and large = alloc_at (1 lsl 16) in
  Alcotest.(check bool)
    (Printf.sprintf "small constant (Gc.allocated_bytes grew %.0f at 2^12, %.0f at 2^16)" small
       large)
    true
    (small < 4096. && large < 4096.);
  Alcotest.(check (float 0.)) "same at 2^12 and 2^16" small large

(* --- Observability ----------------------------------------------------- *)

let test_obs_counters_match_outcome () =
  (* The obs counters are process-global, so measure deltas: one
     weak-model search on a fixed seed must advance search.requests,
     search.requests.weak and the per-strategy counter by exactly the
     outcome's total_requests — the same quantity Lemma 1 counts. *)
  let total = Sf_obs.Registry.counter "search.requests" in
  let weak = Sf_obs.Registry.counter "search.requests.weak" in
  let strong = Sf_obs.Registry.counter "search.requests.strong" in
  let by_strategy = Sf_obs.Registry.counter "search.strategy.bfs.requests" in
  let runs = Sf_obs.Registry.counter "search.runs" in
  let before = Sf_obs.Counter.value total in
  let before_weak = Sf_obs.Counter.value weak in
  let before_strong = Sf_obs.Counter.value strong in
  let before_strategy = Sf_obs.Counter.value by_strategy in
  let before_runs = Sf_obs.Counter.value runs in
  let rng = Rng.of_seed 4242 in
  let g = Sf_gen.Mori.tree rng ~p:0.5 ~t:400 in
  let outcome = Runner.search ~rng g Strategies.bfs ~source:1 ~target:400 in
  Alcotest.(check bool) "bfs reaches the target" true (outcome.Runner.to_target <> None);
  Alcotest.(check int) "search.requests counts every oracle request"
    outcome.Runner.total_requests
    (Sf_obs.Counter.value total - before);
  Alcotest.(check int) "a weak-model run only advances the weak counter"
    outcome.Runner.total_requests
    (Sf_obs.Counter.value weak - before_weak);
  Alcotest.(check int) "strong counter untouched" 0 (Sf_obs.Counter.value strong - before_strong);
  Alcotest.(check int) "per-strategy attribution" outcome.Runner.total_requests
    (Sf_obs.Counter.value by_strategy - before_strategy);
  Alcotest.(check int) "one run recorded" 1 (Sf_obs.Counter.value runs - before_runs)

let suite =
  [
    ("oracle initial state", `Quick, test_oracle_initial_state);
    ("oracle hides undiscovered", `Quick, test_oracle_hides_undiscovered);
    ("weak request reveals", `Quick, test_weak_request_reveals);
    ("shared handle identity", `Quick, test_shared_handle_identity);
    ("wasted requests count", `Quick, test_wasted_requests_still_count);
    ("request validation", `Quick, test_request_validation);
    ("found bookkeeping", `Quick, test_found_bookkeeping);
    ("source next to target", `Quick, test_source_equals_neighbor_of_target);
    ("strong request", `Quick, test_strong_request);
    ("strong multiplicity", `Quick, test_strong_neighbor_multiplicity_collapsed);
    ("handle obfuscation", `Quick, test_handle_obfuscation);
    ("self-loop request", `Quick, test_self_loop_request);
    ("heap ordering", `Quick, test_heap_ordering);
    ("weak portfolio on path", `Quick, test_all_weak_strategies_find_target_on_path);
    ("bfs exact on path", `Quick, test_bfs_cost_on_path_is_exact);
    ("strategies on star", `Quick, test_strategies_never_exceed_useful_requests_on_star);
    ("strong portfolio", `Quick, test_strong_strategies_find_target);
    ("strong star", `Quick, test_strong_cheaper_than_weak_on_star);
    ("runner budget", `Quick, test_runner_budget);
    ("runner gives up", `Quick, test_runner_give_up_on_unreachable);
    ("runner stop at neighbor", `Quick, test_runner_stop_at_neighbor);
    ("runner model mismatch", `Quick, test_runner_model_mismatch);
    ("source equals target", `Quick, test_source_equals_target);
    ("random walk arrives", `Quick, test_random_walk_moves);
    ("high degree prefers hub", `Quick, test_high_degree_prefers_hub);
    ("no strategy teleports", `Quick, test_no_strategy_teleports);
    ("discovery path is a real path", `Quick, test_discovery_path_is_real_path);
    ("discovery parent", `Quick, test_discovery_parent_of_source);
    ("epsilon greedy", `Quick, test_epsilon_greedy_finds_target);
    ("restart walk", `Quick, test_restart_walk_finds_target);
    ("timestamp cheat grabs leaked id", `Quick, test_timestamp_cheat_grabs_target_edge);
    ("timestamp cheat sealed", `Quick, test_timestamp_cheat_works_sealed);
    ("traced run", `Quick, test_traced_run_matches_outcome);
    ("traced strong batches", `Quick, test_traced_strong_reveals_batches);
    ("geo routing on grid", `Quick, test_geo_routing_on_grid);
    ("geo routing trivial", `Quick, test_geo_routing_trivial);
    ("geo routing exact on lattice", `Quick, test_geo_routing_pure_lattice_exact);
    ("percolation replicate", `Quick, test_percolation_replicate);
    ("percolation finds", `Quick, test_percolation_finds_on_small_graph);
    ("percolation needs probability", `Quick, test_percolation_zero_prob_rarely_hits);
    ("obs counters match outcome", `Quick, test_obs_counters_match_outcome);
    ("arena: use after release", `Quick, test_use_after_release);
    ("arena: two live oracles", `Quick, test_two_live_oracles);
    ("arena: warm start allocation", `Quick, test_warm_start_allocation);
    QCheck_alcotest.to_alcotest prop_heap_sorts;
    QCheck_alcotest.to_alcotest prop_strong_equals_weak_closure;
    QCheck_alcotest.to_alcotest prop_kleinberg_distance_is_metric;
    QCheck_alcotest.to_alcotest prop_requests_never_decrease_knowledge;
    QCheck_alcotest.to_alcotest prop_arena_reuse_equivalence;
  ]
