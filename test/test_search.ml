(* Tests for the search formalism: the oracle's information hiding and
   request accounting, every strategy's behaviour on known graphs, the
   runner, geographic routing and percolation search. *)

module Rng = Sf_prng.Rng
module Ugraph = Sf_graph.Ugraph
module Oracle = Sf_search.Oracle
module Strategy = Sf_search.Strategy
module Strategies = Sf_search.Strategies
module Runner = Sf_search.Runner
module Frontier = Sf_search.Frontier

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
    (Invalid_argument "Oracle.degree: vertex not discovered") (fun () ->
      ignore (Oracle.degree o 3));
  Alcotest.check_raises "handle of undiscovered"
    (Invalid_argument "Oracle.handle: vertex not discovered") (fun () ->
      ignore (Oracle.handle o 3 0));
  Alcotest.check_raises "handles of undiscovered"
    (Invalid_argument "Oracle.handles: vertex not discovered") (fun () ->
      ignore (Oracle.handles o 3))

let test_weak_request_reveals () =
  let o = oracle_on ~target:3 (path_graph 3) in
  let h = (Oracle.handles o 1).(0) in
  Alcotest.(check bool) "not yet requested" false (Oracle.handle_requested o h);
  Alcotest.(check int) "far endpoint hidden" 0 (Oracle.far_endpoint o ~owner:1 h);
  let far = Oracle.request_weak o ~owner:1 h in
  Alcotest.(check int) "far endpoint" 2 far;
  Alcotest.(check int) "one request" 1 (Oracle.requests o);
  Alcotest.(check bool) "requested flag" true (Oracle.handle_requested o h);
  Alcotest.(check bool) "far endpoint discovered" true (Oracle.is_discovered o 2);
  Alcotest.(check int) "degree of 2 now visible" 2 (Oracle.degree o 2);
  Alcotest.(check int) "far endpoint now known" 2 (Oracle.far_endpoint o ~owner:1 h);
  Alcotest.(check int) "and from the other side" 1 (Oracle.far_endpoint o ~owner:2 h);
  Alcotest.check_raises "owner must be an endpoint"
    (Invalid_argument "Ugraph.other_endpoint: vertex is not an endpoint") (fun () ->
      ignore (Oracle.far_endpoint o ~owner:3 h));
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
      Oracle.request_strong o 1);
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

let discovered_list o = List.init (Oracle.discovered_count o) (Oracle.discovered_nth o)

let test_strong_request () =
  let o = oracle_on ~model:Oracle.Strong ~source:1 ~target:4 (star_graph 5) in
  Oracle.request_strong o 1;
  Alcotest.(check int) "one request" 1 (Oracle.requests o);
  Alcotest.(check (list int)) "all leaves revealed, in incidence order" [ 1; 2; 3; 4; 5 ]
    (discovered_list o);
  Alcotest.(check bool) "explored" true (Oracle.is_explored o 1);
  Alcotest.(check bool) "leaf discovered" true (Oracle.is_discovered o 3);
  Alcotest.(check bool) "target found" true (Oracle.target_found o);
  Alcotest.(check (option int)) "found at 1" (Some 1) (Oracle.requests_when_found o)

let test_strong_neighbor_multiplicity_collapsed () =
  let g = Ugraph.of_edges ~n:2 [ (1, 2); (1, 2); (2, 2) ] in
  let o = Oracle.start ~rng:(Rng.of_seed 3) Oracle.Strong g ~source:1 ~target:2 in
  Oracle.request_strong o 1;
  Alcotest.(check (list int)) "multiplicity collapsed" [ 1; 2 ] (discovered_list o);
  Alcotest.(check int) "one request" 1 (Oracle.requests o)

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

(* --- Frontier --------------------------------------------------------------- *)

let test_heap_ordering () =
  let h = Frontier.create () in
  let entries = [ (1., 1); (5., 2); (3., 3); (5., 4); (0.5, 5) ] in
  List.iter (fun (p, v) -> Frontier.push h ~priority:p v) entries;
  Alcotest.(check int) "size" 5 (Frontier.length h);
  let priority v = fst (List.find (fun (_, v') -> v' = v) entries) in
  let pop () =
    let v = Frontier.vertex h 0 in
    Alcotest.(check int) "entry 0 is what pop_max removes" v (Frontier.pop_max h);
    (priority v, v)
  in
  let p1, v1 = pop () in
  let p2, v2 = pop () in
  Alcotest.(check (float 1e-9)) "max first" 5. p1;
  Alcotest.(check (float 1e-9)) "max second" 5. p2;
  Alcotest.(check (list int)) "both priority-5 values" [ 2; 4 ] (List.sort compare [ v1; v2 ]);
  Alcotest.(check int) "size after pops" 3 (Frontier.length h);
  Alcotest.(check int) "a pushed entry starts at handle index 0" 0 (Frontier.index h 0);
  Frontier.set_index h 0 7;
  Frontier.requeue h;
  Alcotest.(check int) "requeue keeps the size" 3 (Frontier.length h);
  Alcotest.(check int) "a lone maximum stays on top" 3 (Frontier.vertex h 0);
  Alcotest.(check int) "requeue keeps the handle index" 7 (Frontier.index h 0);
  ignore (pop ());
  ignore (pop ());
  ignore (pop ());
  Alcotest.check_raises "entry 0 of empty" (Invalid_argument "Frontier.vertex: no such entry")
    (fun () -> ignore (Frontier.vertex h 0));
  Alcotest.check_raises "pop_max of empty" (Invalid_argument "Frontier.pop_max: empty frontier")
    (fun () -> ignore (Frontier.pop_max h));
  Alcotest.check_raises "requeue of empty" (Invalid_argument "Frontier.requeue: empty frontier")
    (fun () -> Frontier.requeue h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in non-increasing priority order" ~count:200
    QCheck.(list (float_range (-100.) 100.))
    (fun priorities ->
      let h = Frontier.create () in
      List.iteri (fun i p -> Frontier.push h ~priority:p i) priorities;
      let rec drain acc =
        if Frontier.length h = 0 then acc
        else begin
          let i = Frontier.pop_max h in
          drain ((List.nth priorities i, i) :: acc)
        end
      in
      let popped = drain [] in
      (* drained in reverse: acc ends up ascending *)
      List.sort compare (List.map fst popped) = List.map fst popped
      && List.sort compare (List.map snd popped) = List.init (List.length priorities) Fun.id)

let prop_heap_requeue =
  (* requeue leaves the heap as pop_max + push with the same priority
     would, so the best-first strategies pop in the same order, ties
     included: priorities come from a small range to force ties. The
     requeued entry keeps its handle index, which pop + push resets. *)
  QCheck.Test.make ~name:"heap requeue = pop_max + push" ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 1 60) (int_bound 8)) (list (option (int_bound 8))))
    (fun (initial, ops) ->
      let prio = Hashtbl.create 64 in
      let a = Frontier.create () and b = Frontier.create () in
      let next = ref 0 in
      let push p =
        let v = !next in
        incr next;
        Hashtbl.replace prio v (float_of_int p);
        Frontier.push a ~priority:(float_of_int p) v;
        Frontier.push b ~priority:(float_of_int p) v
      in
      List.iter push initial;
      (* None requeues the top, Some p pushes a new entry *)
      List.iter
        (function
          | Some p -> push p
          | None ->
            Frontier.set_index a 0 (Frontier.vertex a 0 + 1);
            Frontier.requeue a;
            let v = Frontier.pop_max b in
            Frontier.push b ~priority:(Hashtbl.find prio v) v)
        ops;
      let drain h =
        List.init (Frontier.length h) (fun _ ->
            let i = Frontier.index h 0 in
            (Frontier.pop_max h, i))
      in
      let da = drain a in
      List.map fst da = List.map fst (drain b)
      && List.for_all (fun (v, i) -> i = 0 || i = v + 1) da)

type pool_op = Add of int * int | Drop_last | Take of int | Set_index of int * int

let prop_stack_and_pool =
  (* the stack and pool operations against a list model, across the
     buffers' growth; Take and Set_index address entry k mod length *)
  let op =
    QCheck.Gen.(
      frequency
        [
          (6, map2 (fun v i -> Add (v, i)) small_nat small_nat);
          (1, return Drop_last);
          (2, map (fun k -> Take k) small_nat);
          (1, map2 (fun k i -> Set_index (k, i)) small_nat small_nat);
        ])
  in
  QCheck.Test.make ~name:"frontier stack and pool = list model" ~count:200
    QCheck.(make Gen.(list_size (int_range 0 400) op))
    (fun ops ->
      let f = Frontier.create () in
      let contents () =
        List.init (Frontier.length f) (fun k -> (Frontier.vertex f k, Frontier.index f k))
      in
      let step model op =
        let len = List.length model in
        match op with
        | Add (v, i) ->
          Frontier.add f v i;
          model @ [ (v, i) ]
        | Drop_last when len > 0 ->
          Frontier.drop_last f;
          List.filteri (fun j _ -> j < len - 1) model
        | Take k when len > 0 ->
          let k = k mod len in
          Frontier.take f k;
          let last = List.nth model (len - 1) in
          List.filteri (fun j _ -> j < len - 1) (List.mapi (fun j e -> if j = k then last else e) model)
        | Set_index (k, i) when len > 0 ->
          let k = k mod len in
          Frontier.set_index f k i;
          List.mapi (fun j (v, x) -> if j = k then (v, i) else (v, x)) model
        | Drop_last | Take _ | Set_index _ -> model
      in
      let rec go model = function
        | [] -> true
        | op :: ops ->
          let model = step model op in
          contents () = model && go model ops
      in
      go [] ops)

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
      Oracle.request_strong strong 1;
      for i = 0 to Oracle.degree weak 1 - 1 do
        ignore (Oracle.request_weak weak ~owner:1 (Oracle.handle weak 1 i))
      done;
      let discovered oracle = List.sort compare (discovered_list oracle) in
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
   with whether each was paid for and its far endpoint once both ends
   are known (resolved through the arena's real_of_pub, which a reused
   arena overwrites rather than clears), and its explored flag. *)
let snapshot oracle outcome =
  ( outcome,
    List.init (Oracle.discovered_count oracle) (fun i ->
        let v = Oracle.discovered_nth oracle i in
        ( Oracle.discovery_path oracle v,
          List.init (Oracle.degree oracle v) (fun k ->
              let h = Oracle.handle oracle v k in
              (h, Oracle.handle_requested oracle h, Oracle.far_endpoint oracle ~owner:v h)),
          Oracle.is_explored oracle v )) )

let query_rng seed k = Rng.of_seed ((seed * 1000) + k)

let run_query ?obfuscate ~seed g strategy k (source, target) =
  let rng = query_rng seed k in
  let oracle = Oracle.start ?obfuscate ~rng strategy.Strategy.model g ~source ~target in
  let outcome = Runner.run ~budget:(4 * Ugraph.n_vertices g) ~rng strategy oracle in
  (oracle, snapshot oracle outcome)

(* What the reusing domain does before a query, besides the query:
   nothing; start and run an oracle that is never released; run a
   search whose strategy raises after [k] requests, which
   Runner.search's Fun.protect answers by releasing the oracle; or run
   and release a large query of the same strategy, whose arena the
   next query takes with every buffer, the public-id map and the
   strategy's frontiers at a high-water mark. *)
type disturbance = Quiet | Leak | Raise_after of int | Large

(* A 3,000-vertex tree: a search over it exposes thousands of handles. *)
let large_tree = lazy (Sf_gen.Mori.tree (Rng.of_seed 17) ~p:0.5 ~t:3000)

exception Strategy_failed

let raising_after k (strategy : Strategy.t) =
  {
    strategy with
    Strategy.prepare =
      (fun rng oracle ->
        let next = strategy.Strategy.prepare rng oracle in
        fun () -> if Oracle.requests oracle >= k then raise Strategy_failed else next ());
  }

let prop_arena_reuse_equivalence =
  (* a released arena serves the next query exactly as a fresh one
     would: the references run on a new domain that never releases, so
     each of its oracles gets a new arena. Vertex 1, the oldest and a
     hub, is drawn often as source and target. *)
  let strategies =
    Array.of_list
      (Strategies.weak_portfolio ()
      @ Strategies.strong_portfolio ()
      @ [ Strategies.epsilon_greedy ~epsilon:0.2; Strategies.random_edge ~skip_known:false ])
  in
  let vertex = QCheck.Gen.(frequency [ (1, return 1); (3, int_range 1 200) ]) in
  let disturbance =
    QCheck.Gen.(
      frequency
        [
          (3, return Quiet);
          (1, return Leak);
          (1, map (fun k -> Raise_after k) (int_bound 40));
          (1, return Large);
        ])
  in
  let show_disturbance = function
    | Quiet -> ""
    | Leak -> " after a leak"
    | Raise_after k -> Printf.sprintf " after a raise at %d" k
    | Large -> " after a large query"
  in
  QCheck.Test.make ~name:"arena reuse = fresh oracle" ~count:60
    QCheck.(
      make
        ~print:(fun ((seed, cf, obfuscate), si, qs) ->
          Printf.sprintf "seed=%d cf=%b obfuscate=%b strategy=%s queries=[%s]" seed cf obfuscate
            strategies.(si).Strategy.name
            (String.concat "; "
               (List.map
                  (fun ((s, t), d) -> Printf.sprintf "%d->%d%s" s t (show_disturbance d))
                  qs)))
        Gen.(
          triple
            (triple (int_bound 100_000) bool bool)
            (int_bound (Array.length strategies - 1))
            (list_size (int_range 1 6) (pair (pair vertex vertex) disturbance))))
    (fun ((seed, cf, obfuscate), si, qs) ->
      let rng = Rng.of_seed seed in
      let g =
        if cf then Sf_gen.Cooper_frieze.generate_n_vertices rng Sf_gen.Cooper_frieze.default ~n:150
        else Sf_gen.Mori.graph rng ~p:0.6 ~m:2 ~n:150
      in
      let n = Ugraph.n_vertices g in
      let qs =
        List.map (fun ((s, t), d) -> ((1 + ((s - 1) mod n), 1 + ((t - 1) mod n)), d)) qs
      in
      let strategy = strategies.(si) in
      let fresh =
        Domain.join
          (Domain.spawn (fun () ->
               List.mapi (fun k (q, _) -> snd (run_query ~obfuscate ~seed g strategy k q)) qs))
      in
      let disturb k (source, target) = function
        | Quiet -> ()
        | Leak -> ignore (run_query ~obfuscate ~seed:(seed + 1) g strategy k (target, source))
        | Raise_after r -> (
          match
            Runner.search ~obfuscate ~rng:(query_rng (seed + 2) k) g (raising_after r strategy)
              ~source:target ~target:source
          with
          | _ -> ()
          | exception Strategy_failed -> ())
        | Large ->
          let large = Lazy.force large_tree in
          ignore
            (Runner.search ~rng:(query_rng (seed + 3) k) large strategy ~source:1
               ~target:(Ugraph.n_vertices large))
      in
      let reused =
        List.mapi
          (fun k (q, d) ->
            disturb k q d;
            let oracle, snap = run_query ~obfuscate ~seed g strategy k q in
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
          ("handle", fun () -> ignore (Oracle.handle o 1 0));
          ("handle_requested", fun () -> ignore (Oracle.handle_requested o h));
          ("far_endpoint", fun () -> ignore (Oracle.far_endpoint o ~owner:1 h));
          ("request_weak", fun () -> ignore (Oracle.request_weak o ~owner:1 h));
          ("request_strong", fun () -> Oracle.request_strong o 1);
          ("is_explored", fun () -> ignore (Oracle.is_explored o 1));
          ("frontier", fun () -> ignore (Oracle.frontier o));
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

let test_handle_requested_unknown () =
  (* a handle no request could have paid for reads false, whatever the
     state of the paid bytes; after release every read raises *)
  let g = Sf_gen.Mori.tree (Rng.of_seed 12) ~p:0.5 ~t:80 in
  List.iter
    (fun obfuscate ->
      let o = Oracle.start ~obfuscate ~rng:(Rng.of_seed 13) Oracle.Weak g ~source:1 ~target:80 in
      let paid = Oracle.handles o 1 in
      Array.iter (fun h -> ignore (Oracle.request_weak o ~owner:1 h)) paid;
      let publicized =
        List.fold_left max (-1)
          (List.init (Oracle.discovered_count o) (fun i ->
               Array.fold_left max (-1) (Oracle.handles o (Oracle.discovered_nth o i))))
        + 1
      in
      let unknown =
        (if obfuscate then [ ("publicized count", publicized) ] else [])
        @ [ ("-1", -1); ("n_edges", Ugraph.n_edges g) ]
      in
      let label name = Printf.sprintf "%s (obfuscate=%b)" name obfuscate in
      Array.iter
        (fun h -> Alcotest.(check bool) (label "paid") true (Oracle.handle_requested o h))
        paid;
      List.iter
        (fun (name, h) -> Alcotest.(check bool) (label name) false (Oracle.handle_requested o h))
        unknown;
      Oracle.release o;
      List.iter
        (fun (name, h) -> raises_invalid (label name) (fun () -> Oracle.handle_requested o h))
        unknown)
    [ true; false ]

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
          Oracle.request_strong oracle v;
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

(* Words allocated on the minor heap by [f ()]. Gc.minor_words counts
   them exactly; Gc.allocated_bytes moves only at a minor collection. *)
let minor_words_of f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

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
    minor_words_of go *. float_of_int (Sys.word_size / 8)
  in
  let small = alloc_at (1 lsl 12) and large = alloc_at (1 lsl 16) in
  Alcotest.(check bool)
    (Printf.sprintf "small constant (%.0f bytes at 2^12, %.0f at 2^16)" small large)
    true
    (small < 4096. && large < 4096.);
  Alcotest.(check (float 0.)) "same at 2^12 and 2^16" small large

let test_public_ids_after_large_query () =
  (* after a released query that exposed thousands of handles, the next
     query on the same arena numbers its handles from 0 in first-exposure
     order, also for edges the earlier query had numbered: release must
     drop every key of the public-id map *)
  let n = 4096 in
  let g = Sf_gen.Mori.tree (Rng.of_seed 41) ~p:0.5 ~t:n in
  let o = Oracle.start ~rng:(Rng.of_seed 42) Oracle.Weak g ~source:1 ~target:n in
  let i = ref 0 in
  while !i < Oracle.discovered_count o do
    let v = Oracle.discovered_nth o !i in
    for k = 0 to Oracle.degree o v - 1 do
      let h = Oracle.handle o v k in
      if Oracle.far_endpoint o ~owner:v h = 0 then ignore (Oracle.request_weak o ~owner:v h)
    done;
    incr i
  done;
  Alcotest.(check int) "the first query discovers the whole tree" n (Oracle.discovered_count o);
  let last = Oracle.discovered_nth o (n - 1) in
  Oracle.release o;
  (* [last]'s edges got some of the largest ids of the first query *)
  let o = Oracle.start ~rng:(Rng.of_seed 43) Oracle.Weak g ~source:last ~target:1 in
  let next = ref 0 and seen = Hashtbl.create 64 in
  let i = ref 0 in
  while !i < Oracle.discovered_count o && !i < 64 do
    let v = Oracle.discovered_nth o !i in
    let fresh =
      List.sort compare
        (List.filter
           (fun h -> not (Hashtbl.mem seen h))
           (List.init (Oracle.degree o v) (Oracle.handle o v)))
    in
    Alcotest.(check (list int))
      (Printf.sprintf "vertex %d exposes the next %d ids" v (List.length fresh))
      (List.init (List.length fresh) (fun k -> !next + k))
      fresh;
    List.iter (fun h -> Hashtbl.replace seen h ()) fresh;
    next := !next + List.length fresh;
    for k = 0 to Oracle.degree o v - 1 do
      let h = Oracle.handle o v k in
      if Oracle.far_endpoint o ~owner:v h = 0 then ignore (Oracle.request_weak o ~owner:v h)
    done;
    incr i
  done;
  Oracle.release o

(* Words allocated directly in the major heap so far. OCaml 5.1 adds
   to major_words only at a major slice, and counts promoted words in
   it: a full major GC on each side of a window makes the difference
   exact. *)
let direct_major_words () =
  Gc.full_major ();
  let s = Gc.quick_stat () in
  s.Gc.major_words -. s.Gc.promoted_words

let test_warm_query_map_major_words () =
  (* a warm repeat of a high-degree query on a 16,384-vertex Móri tree
     finds the public-id map at its high-water size: the oracle
     allocates nothing directly in the major heap (a regrown bucket
     array would). The query's requests are recorded once, then
     replayed on an oracle built from the same stream, so the
     strategy's own scratch is not counted. *)
  let n = 16_384 in
  let g = Sf_gen.Mori.tree (Rng.of_seed 51) ~p:0.5 ~t:n in
  let rng () = Rng.of_seed 52 in
  let o = Oracle.start ~rng:(rng ()) Oracle.Weak g ~source:1 ~target:n in
  let next = Strategies.high_degree.Strategy.prepare (Rng.of_seed 53) o in
  let owners = Array.make (4 * n) 0 and hs = Array.make (4 * n) 0 in
  let count = ref 0 in
  let rec go () =
    if (not (Oracle.target_found o)) && !count < 4 * n then
      match next () with
      | Strategy.Request_edge (owner, h) ->
        owners.(!count) <- owner;
        hs.(!count) <- h;
        incr count;
        ignore (Oracle.request_weak o ~owner h);
        go ()
      | Strategy.Request_vertex _ | Strategy.Give_up -> ()
  in
  go ();
  Oracle.release o;
  Alcotest.(check bool) (Printf.sprintf "a long query (%d requests)" !count) true (!count > 1000);
  let replay () =
    let o = Oracle.start ~rng:(rng ()) Oracle.Weak g ~source:1 ~target:n in
    for i = 0 to !count - 1 do
      ignore (Oracle.request_weak o ~owner:owners.(i) hs.(i))
    done;
    Oracle.release o
  in
  replay ();
  let before = direct_major_words () in
  replay ();
  Alcotest.(check (float 0.)) "major-heap words allocated directly" 0.
    (direct_major_words () -. before)

(* ROADMAP item 9: work per paid request is flat in n. Every portfolio
   strategy runs three queries on a Móri tree of n vertices, once to
   bring the arena to its high-water mark and once measured. The
   measured run allocates nothing directly in the major heap, and
   its minor words per paid request stay under one constant per
   strategy at every n = 2^10, 2^12, 2^14, with metrics on and off.
   What is left per request is the step a stepper returns, a boxed
   priority per vertex a best-first strategy queues and the public-id
   map's cells; a strong request on a hub discovers many vertices, so
   s-high-degree pays the most. A frontier created per query fails
   the major-heap check: the custom block of a Bigarray larger than
   a few kilobytes is allocated there. Each constant is the largest
   ratio seen over those sizes plus about 10%. *)
let words_per_request =
  [
    ("bfs", 12.);
    ("dfs", 9.);
    ("rand-edge+skip", 12.);
    ("rand-walk", 5.);
    ("high-degree", 13.);
    ("min-label-dist", 13.);
    ("oldest-label", 16.);
    ("s-bfs", 28.);
    ("s-rand", 18.);
    ("s-high-degree", 76.);
    ("s-min-label", 12.);
    ("s-rand-walk", 4.);
  ]

let test_work_per_request_flat () =
  let strategies = Strategies.weak_portfolio () @ Strategies.strong_portfolio () in
  let run g strategy =
    let n = Ugraph.n_vertices g in
    let query k (source, target) =
      (Runner.search ~rng:(Rng.of_seed (70 + k)) g strategy ~source ~target).Runner.total_requests
    in
    query 0 (1, n) + query 1 (n, n / 2) + query 2 (n / 3, 2)
  in
  let was_enabled = Sf_obs.Registry.enabled () in
  Fun.protect
    ~finally:(fun () -> Sf_obs.Registry.set_enabled was_enabled)
    (fun () ->
      List.iter
        (fun log_n ->
          let g = Sf_gen.Mori.tree (Rng.of_seed (60 + log_n)) ~p:0.5 ~t:(1 lsl log_n) in
          List.iter
            (fun obs ->
              Sf_obs.Registry.set_enabled obs;
              List.iter
                (fun (strategy : Strategy.t) ->
                  let name = strategy.Strategy.name in
                  let label = Printf.sprintf "%s at n = 2^%d (obs %b)" name log_n obs in
                  ignore (run g strategy);
                  let major = direct_major_words () in
                  let minor = Gc.minor_words () in
                  let requests = run g strategy in
                  let per_request = (Gc.minor_words () -. minor) /. float_of_int requests in
                  Alcotest.(check (float 0.))
                    (label ^ ": major-heap words allocated directly")
                    0.
                    (direct_major_words () -. major);
                  let bound = List.assoc name words_per_request in
                  Alcotest.(check bool)
                    (Printf.sprintf "%s: %.2f minor words per request (bound %.0f)" label
                       per_request bound)
                    true (per_request <= bound))
                strategies)
            [ false; true ])
        [ 10; 12; 14 ])

(* A search step allocates nothing once the oracle is warm: the reads
   a stepper makes, a repeat weak request on a known edge, and the
   frontier operations of every discipline. Each call runs 10^4 times
   and must read the same Gc.minor_words as an empty closure, with the
   metrics registry on and off. *)
let test_search_step_allocates_nothing () =
  let n = 2048 in
  let g = Sf_gen.Mori.tree (Rng.of_seed 31) ~p:0.5 ~t:n in
  let o = Oracle.start ~rng:(Rng.of_seed 32) Oracle.Weak g ~source:1 ~target:n in
  (* a warm oracle: the source's handles all paid, so its far ends are
     discovered and every handle of vertex 1 resolves *)
  for i = 0 to Oracle.degree o 1 - 1 do
    ignore (Oracle.request_weak o ~owner:1 (Oracle.handle o 1 i))
  done;
  let h = Oracle.handle o 1 0 in
  let far = Oracle.far_endpoint o ~owner:1 h in
  Alcotest.(check bool) "far endpoint resolves" true (far > 0);
  (* two leased frontiers at a high-water mark the loops stay under:
     a pool with one entry, and a heap whose one entry stays below the
     pushed one, so requeue has a root *)
  let pool = Oracle.frontier o and heap = Oracle.frontier o in
  for v = 1 to 1000 do
    Frontier.add pool v 0;
    Frontier.push heap ~priority:0. v
  done;
  Frontier.clear pool;
  Frontier.clear heap;
  Frontier.add pool 1 0;
  Frontier.push heap ~priority:1. 1;
  let loop f () =
    for _ = 1 to 10_000 do
      f ()
    done
  in
  let cases =
    [
      ("request_weak on a known edge", fun () -> ignore (Oracle.request_weak o ~owner:1 h));
      ("is_discovered", fun () -> ignore (Oracle.is_discovered o far));
      ("degree", fun () -> ignore (Oracle.degree o 1));
      ("handle", fun () -> ignore (Oracle.handle o 1 0));
      ("handle_requested", fun () -> ignore (Oracle.handle_requested o h));
      ("far_endpoint", fun () -> ignore (Oracle.far_endpoint o ~owner:far h));
      ( "Frontier.add + take",
        fun () ->
          Frontier.add pool far 1;
          Frontier.take pool 0 );
      ("Frontier.set_index", fun () -> Frontier.set_index pool 0 2);
      ( "Frontier.push + pop_max",
        fun () ->
          Frontier.push heap ~priority:2. far;
          ignore (Frontier.pop_max heap) );
      ( "Frontier.requeue",
        fun () ->
          ignore (Frontier.vertex heap 0);
          Frontier.requeue heap );
    ]
  in
  (* Discovering a vertex writes its slot unboxed. Without obfuscation
     no public-id map is involved, so the first requests from vertex 1
     on a warm arena, each discovering a vertex, allocate nothing. *)
  let first_requests () =
    let o = Oracle.start ~obfuscate:false ~rng:(Rng.of_seed 33) Oracle.Weak g ~source:1 ~target:n in
    let words =
      minor_words_of (fun () ->
          for i = 0 to Oracle.degree o 1 - 1 do
            ignore (Oracle.request_weak o ~owner:1 (Oracle.handle o 1 i))
          done)
    in
    Oracle.release o;
    words
  in
  let was_enabled = Sf_obs.Registry.enabled () in
  Fun.protect
    ~finally:(fun () -> Sf_obs.Registry.set_enabled was_enabled)
    (fun () ->
      List.iter
        (fun obs ->
          Sf_obs.Registry.set_enabled obs;
          let baseline = minor_words_of (fun () -> ()) in
          List.iter
            (fun (name, f) ->
              Alcotest.(check (float 0.))
                (Printf.sprintf "%s (obs %b)" name obs)
                baseline
                (minor_words_of (loop f)))
            cases;
          ignore (first_requests ());
          Alcotest.(check (float 0.))
            (Printf.sprintf "first requests from a hub, unobfuscated (obs %b)" obs)
            baseline (first_requests ()))
        [ true; false ]);
  Oracle.release o

(* --- Portfolio golden ---------------------------------------------------- *)

(* MD5 over the Runner.search outcomes of every strategy in both
   portfolios plus eps-greedy, restart-walk, timestamp-cheat and the
   non-skipping rand-edge, on a fixed Móri tree and a fixed
   Cooper–Frieze graph, each with and without handle obfuscation.  It
   pins search behaviour across internal rewrites of the oracle and
   the strategies: replies, public-id order and rng draws must all
   stay put.  If a legitimate change moves search outcomes (rng
   stream, strategy semantics), update it together with the fabric
   and sfload goldens. *)
let pinned_portfolio_md5 = "68873f82639d69b1f6a38af6454cf29f"

let portfolio_outcomes () =
  let strategies =
    Strategies.weak_portfolio ()
    @ Strategies.strong_portfolio ()
    @ [
        Strategies.epsilon_greedy ~epsilon:0.2;
        Strategies.restart_walk ~restart:0.1;
        Strategies.timestamp_cheat;
        Strategies.random_edge ~skip_known:false;
      ]
  in
  let graphs =
    [
      ("mori", Sf_gen.Mori.tree (Rng.of_seed 2024) ~p:0.5 ~t:400);
      ( "cf",
        Sf_gen.Cooper_frieze.generate_n_vertices (Rng.of_seed 2025) Sf_gen.Cooper_frieze.default
          ~n:300 );
    ]
  in
  let b = Buffer.create 65536 in
  let opt = function None -> "-" | Some k -> string_of_int k in
  List.iteri
    (fun gi (gname, g) ->
      let n = Ugraph.n_vertices g in
      List.iter
        (fun obfuscate ->
          List.iteri
            (fun si strategy ->
              List.iteri
                (fun qi (source, target) ->
                  let case = (((gi * 2) + Bool.to_int obfuscate) * 10_000) + (si * 100) + qi in
                  let o = Runner.search ~obfuscate ~rng:(Rng.of_seed case) g strategy ~source ~target in
                  Printf.bprintf b
                    "%s %b %s %d->%d: n=%d req=%d target=%s nbr=%s disc=%d gave_up=%b\n" gname obfuscate o.Runner.strategy source target o.Runner.n_vertices
                    o.Runner.total_requests (opt o.Runner.to_target) (opt o.Runner.to_neighbor)
                    o.Runner.discovered o.Runner.gave_up)
                [ (1, n); (n, 1); (n / 2, n - 1); (3, (2 * n / 3) + 1) ])
            strategies)
        [ true; false ])
    graphs;
  Buffer.contents b

let test_portfolio_golden () =
  Alcotest.(check string) "portfolio outcome digest pinned" pinned_portfolio_md5
    (Digest.to_hex (Digest.string (portfolio_outcomes ())))

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
    ("arena: public ids from 0 after a large query", `Quick, test_public_ids_after_large_query);
    ("arena: warm query grows no map", `Quick, test_warm_query_map_major_words);
    ("work per request flat in n", `Quick, test_work_per_request_flat);
    QCheck_alcotest.to_alcotest prop_heap_sorts;
    QCheck_alcotest.to_alcotest prop_heap_requeue;
    QCheck_alcotest.to_alcotest prop_stack_and_pool;
    QCheck_alcotest.to_alcotest prop_strong_equals_weak_closure;
    QCheck_alcotest.to_alcotest prop_kleinberg_distance_is_metric;
    QCheck_alcotest.to_alcotest prop_requests_never_decrease_knowledge;
    QCheck_alcotest.to_alcotest prop_arena_reuse_equivalence;
    ("arena: unknown handles never paid", `Quick, test_handle_requested_unknown);
    ("portfolio golden", `Quick, test_portfolio_golden);
    ("search step allocates nothing", `Quick, test_search_step_allocates_nothing);
  ]
