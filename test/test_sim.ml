(* Tests for the discrete-event simulator: event-queue ordering, the
   latency models, and the query protocols on graphs with known
   structure. *)

module Rng = Sf_prng.Rng
module Ugraph = Sf_graph.Ugraph
module Event_queue = Sf_sim.Event_queue
module Network = Sf_sim.Network
module Query_sim = Sf_sim.Query_sim

let path_graph n = Ugraph.of_edges ~n (List.init (n - 1) (fun i -> (i + 1, i + 2)))
let star_graph n = Ugraph.of_edges ~n (List.init (n - 1) (fun i -> (i + 2, 1)))

let net_of ?latency g = Network.create ?latency g

(* --- Event queue --------------------------------------------------------- *)

let test_event_queue_orders_by_time () =
  let q = Event_queue.create () in
  List.iter (fun (t, v) -> Event_queue.schedule q ~time:t v) [ (3., "c"); (1., "a"); (2., "b") ];
  Alcotest.(check int) "length" 3 (Event_queue.length q);
  Alcotest.(check (option (float 0.))) "peek" (Some 1.) (Event_queue.peek_time q);
  let drain () =
    let rec go acc =
      match Event_queue.next q with Some (_, v) -> go (v :: acc) | None -> List.rev acc
    in
    go []
  in
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (drain ())

let test_event_queue_stable_ties () =
  let q = Event_queue.create () in
  for i = 0 to 9 do
    Event_queue.schedule q ~time:5. i
  done;
  let rec drain acc =
    match Event_queue.next q with Some (_, v) -> drain (v :: acc) | None -> List.rev acc
  in
  Alcotest.(check (list int)) "insertion order on ties" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (drain [])

let test_event_queue_interleaved () =
  let q = Event_queue.create () in
  Event_queue.schedule q ~time:2. "b";
  Alcotest.(check (option (pair (float 0.) string))) "pop b" (Some (2., "b")) (Event_queue.next q);
  Event_queue.schedule q ~time:1. "a";
  Event_queue.schedule q ~time:3. "c";
  Alcotest.(check (option (pair (float 0.) string))) "pop a" (Some (1., "a")) (Event_queue.next q);
  Alcotest.(check (option (pair (float 0.) string))) "pop c" (Some (3., "c")) (Event_queue.next q);
  Alcotest.(check bool) "empty" true (Event_queue.is_empty q)

let test_event_queue_rejects_bad_time () =
  let q = Event_queue.create () in
  Alcotest.check_raises "nan time" (Invalid_argument "Event_queue.schedule: bad time")
    (fun () -> Event_queue.schedule q ~time:Float.nan ());
  Alcotest.check_raises "negative time" (Invalid_argument "Event_queue.schedule: bad time")
    (fun () -> Event_queue.schedule q ~time:(-1.) ())

let prop_event_queue_sorts =
  QCheck.Test.make ~name:"event queue pops in non-decreasing time order" ~count:200
    QCheck.(list (float_range 0. 1000.))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun t -> Event_queue.schedule q ~time:t ()) times;
      let rec drain acc =
        match Event_queue.next q with Some (t, ()) -> drain (t :: acc) | None -> acc
      in
      let popped = drain [] in
      (* accumulated in reverse: must be non-increasing *)
      List.length popped = List.length times
      && fst
           (List.fold_left
              (fun (ok, prev) t -> (ok && t <= prev, t))
              (true, infinity) popped))

(* --- Network -------------------------------------------------------------- *)

let test_latency_models () =
  let rng = Rng.of_seed 1 in
  let g = path_graph 2 in
  let const = net_of ~latency:(Network.Constant 2.5) g in
  Alcotest.(check (float 1e-12)) "constant" 2.5 (Network.sample_latency const rng);
  let uni = net_of ~latency:(Network.Uniform (1., 3.)) g in
  for _ = 1 to 200 do
    let l = Network.sample_latency uni rng in
    Alcotest.(check bool) "uniform in range" true (l >= 1. && l < 3.)
  done;
  let expo = net_of ~latency:(Network.Exponential 2.) g in
  for _ = 1 to 200 do
    Alcotest.(check bool) "exponential positive" true (Network.sample_latency expo rng > 0.)
  done

let test_latency_validation () =
  let g = path_graph 2 in
  Alcotest.check_raises "bad constant" (Invalid_argument "Network: constant latency must be positive")
    (fun () -> ignore (net_of ~latency:(Network.Constant 0.) g));
  Alcotest.check_raises "bad uniform" (Invalid_argument "Network: need 0 < lo < hi") (fun () ->
      ignore (net_of ~latency:(Network.Uniform (2., 1.)) g))

(* --- Query simulation -------------------------------------------------------- *)

let test_flood_on_path_exact () =
  (* constant latency 1: the flood front advances one hop per unit, so
     the hit time equals the distance, and messages stay linear *)
  let rng = Rng.of_seed 2 in
  let net = net_of (path_graph 10) in
  let res =
    Query_sim.query ~rng net (Query_sim.Flood { ttl = 20 }) ~source:1
      ~holders:(Query_sim.single_target net 10)
  in
  Alcotest.(check bool) "hit" true res.Query_sim.hit;
  Alcotest.(check (option (float 1e-9))) "time = distance" (Some 9.) res.Query_sim.hit_time;
  Alcotest.(check bool) "messages linear" true (res.Query_sim.messages <= 12);
  Alcotest.(check int) "contacted the whole prefix" 10 res.Query_sim.contacted

let test_flood_ttl_limits_reach () =
  let rng = Rng.of_seed 3 in
  let net = net_of (path_graph 10) in
  let res =
    Query_sim.query ~rng net (Query_sim.Flood { ttl = 3 }) ~source:1
      ~holders:(Query_sim.single_target net 10)
  in
  Alcotest.(check bool) "out of reach" false res.Query_sim.hit;
  Alcotest.(check int) "stopped after ttl hops" 4 res.Query_sim.contacted

let test_flood_star_one_round () =
  let rng = Rng.of_seed 4 in
  let net = net_of (star_graph 30) in
  let res =
    Query_sim.query ~rng net (Query_sim.Flood { ttl = 5 }) ~source:1
      ~holders:(Query_sim.single_target net 17)
  in
  Alcotest.(check bool) "hit" true res.Query_sim.hit;
  Alcotest.(check (option (float 1e-9))) "one hop" (Some 1.) res.Query_sim.hit_time

let test_source_holds_content () =
  let rng = Rng.of_seed 5 in
  let net = net_of (path_graph 5) in
  let res =
    Query_sim.query ~rng net (Query_sim.Flood { ttl = 5 }) ~source:3
      ~holders:(Query_sim.single_target net 3)
  in
  Alcotest.(check bool) "instant hit" true res.Query_sim.hit;
  Alcotest.(check (option (float 1e-9))) "time zero" (Some 0.) res.Query_sim.hit_time;
  Alcotest.(check int) "no messages" 0 res.Query_sim.messages

let test_walker_on_path_progresses () =
  (* on a path a walker is a simple random walk; with enough TTL it
     reaches the end *)
  let rng = Rng.of_seed 6 in
  let net = net_of (path_graph 8) in
  let res =
    Query_sim.query ~rng net
      (Query_sim.K_walkers { k = 1; ttl = 100_000 })
      ~source:1
      ~holders:(Query_sim.single_target net 8)
  in
  Alcotest.(check bool) "walker arrives" true res.Query_sim.hit

let test_k_walkers_send_k_messages_first () =
  let rng = Rng.of_seed 7 in
  let net = net_of (star_graph 50) in
  (* target unreachable by content: count messages of a full run with
     ttl 1: exactly k transmissions *)
  let res =
    Query_sim.query ~rng net
      (Query_sim.K_walkers { k = 7; ttl = 1 })
      ~source:1
      ~holders:(Array.make 50 false)
  in
  Alcotest.(check int) "k messages" 7 res.Query_sim.messages;
  Alcotest.(check bool) "no hit" false res.Query_sim.hit

let test_percolation_q1_equals_flood_reach () =
  let rng = Rng.of_seed 8 in
  let net = net_of (path_graph 10) in
  let res =
    Query_sim.query ~rng net
      (Query_sim.Percolation { q = 1.; ttl = 20 })
      ~source:1
      ~holders:(Query_sim.single_target net 10)
  in
  Alcotest.(check bool) "q=1 reaches like flood" true res.Query_sim.hit;
  let res0 =
    Query_sim.query ~rng net
      (Query_sim.Percolation { q = 0.; ttl = 20 })
      ~source:1
      ~holders:(Query_sim.single_target net 10)
  in
  Alcotest.(check bool) "q=0 goes nowhere" false res0.Query_sim.hit;
  Alcotest.(check int) "q=0 sends nothing" 0 res0.Query_sim.messages

let test_max_messages_cap () =
  let rng = Rng.of_seed 9 in
  let g = Sf_gen.Erdos_renyi.gnm rng ~n:100 ~m:400 in
  let net = net_of g in
  let res =
    Query_sim.query ~max_messages:50 ~rng net (Query_sim.Flood { ttl = 50 }) ~source:1
      ~holders:(Array.make 100 false)
  in
  Alcotest.(check bool) "cap respected" true (res.Query_sim.messages <= 50)

let test_query_validation () =
  let rng = Rng.of_seed 10 in
  let net = net_of (path_graph 3) in
  Alcotest.check_raises "bad q" (Invalid_argument "Query_sim: q outside [0, 1]") (fun () ->
      ignore
        (Query_sim.query ~rng net (Query_sim.Percolation { q = 2.; ttl = 1 }) ~source:1
           ~holders:(Array.make 3 false)));
  Alcotest.check_raises "bad k" (Invalid_argument "Query_sim: need k >= 1") (fun () ->
      ignore
        (Query_sim.query ~rng net (Query_sim.K_walkers { k = 0; ttl = 1 }) ~source:1
           ~holders:(Array.make 3 false)));
  Alcotest.check_raises "holder size" (Invalid_argument "Query_sim.query: holder array size mismatch")
    (fun () ->
      ignore
        (Query_sim.query ~rng net (Query_sim.Flood { ttl = 1 }) ~source:1
           ~holders:(Array.make 5 false)))

let test_simulation_deterministic () =
  let run () =
    let rng = Rng.of_seed 11 in
    let g = Sf_gen.Config_model.searchable_power_law rng ~n:500 ~exponent:2.4 () in
    let net = net_of ~latency:(Network.Uniform (0.5, 1.5)) g in
    Query_sim.query ~rng net
      (Query_sim.K_walkers { k = 4; ttl = 2000 })
      ~source:1
      ~holders:(Query_sim.single_target net (Network.n_nodes net / 2))
  in
  let r1 = run () and r2 = run () in
  Alcotest.(check int) "same messages" r1.Query_sim.messages r2.Query_sim.messages;
  Alcotest.(check (option (float 1e-12))) "same hit time" r1.Query_sim.hit_time
    r2.Query_sim.hit_time

(* --- Churn ------------------------------------------------------------------ *)

module Churn_sim = Sf_sim.Churn_sim

let test_uptime_formula () =
  Alcotest.(check (float 1e-9)) "uptime 0.75"
    0.75
    (Churn_sim.uptime { Churn_sim.mean_up = 30.; mean_down = 10. })

let test_churn_everything_dead_fails () =
  (* vanishing uptime: the first hop almost surely dies *)
  let rng = Rng.of_seed 20 in
  let net = net_of (star_graph 40) in
  let churn = { Churn_sim.mean_up = 0.001; mean_down = 1000. } in
  let misses = ref 0 in
  for _ = 1 to 20 do
    let res =
      Churn_sim.query ~rng net churn
        (Sf_sim.Query_sim.Flood { ttl = 3 })
        ~source:1
        ~holders:(Sf_sim.Query_sim.single_target net 7)
    in
    if not res.Churn_sim.hit then incr misses
  done;
  Alcotest.(check bool) "almost always fails" true (!misses >= 18)

let test_churn_high_uptime_succeeds () =
  let rng = Rng.of_seed 21 in
  let net = net_of (star_graph 40) in
  let churn = { Churn_sim.mean_up = 10_000.; mean_down = 0.001 } in
  let res =
    Churn_sim.query ~rng net churn
      (Sf_sim.Query_sim.Flood { ttl = 3 })
      ~source:1
      ~holders:(Sf_sim.Query_sim.single_target net 7)
  in
  Alcotest.(check bool) "succeeds when nearly everyone is up" true res.Churn_sim.hit

let test_churn_counts_drops () =
  let rng = Rng.of_seed 22 in
  let net = net_of (star_graph 100) in
  let churn = { Churn_sim.mean_up = 10.; mean_down = 10. } in
  let res =
    Churn_sim.query ~rng net churn
      (Sf_sim.Query_sim.Flood { ttl = 2 })
      ~source:1
      ~holders:(Array.make 100 false)
  in
  (* with 50% uptime, a fair share of the 99 spokes are dropped *)
  Alcotest.(check bool)
    (Printf.sprintf "drops recorded (%d)" res.Churn_sim.dropped)
    true
    (res.Churn_sim.dropped > 20);
  Alcotest.check_raises "bad churn" (Invalid_argument "Churn_sim.query: churn means must be positive")
    (fun () ->
      ignore
        (Churn_sim.query ~rng net { Churn_sim.mean_up = 0.; mean_down = 1. }
           (Sf_sim.Query_sim.Flood { ttl = 1 }) ~source:1 ~holders:(Array.make 100 false)))

let suite =
  [
    ("event queue order", `Quick, test_event_queue_orders_by_time);
    ("event queue stable ties", `Quick, test_event_queue_stable_ties);
    ("event queue interleaved", `Quick, test_event_queue_interleaved);
    ("event queue bad time", `Quick, test_event_queue_rejects_bad_time);
    ("latency models", `Quick, test_latency_models);
    ("latency validation", `Quick, test_latency_validation);
    ("flood exact on path", `Quick, test_flood_on_path_exact);
    ("flood ttl", `Quick, test_flood_ttl_limits_reach);
    ("flood star", `Quick, test_flood_star_one_round);
    ("source holds content", `Quick, test_source_holds_content);
    ("walker on path", `Quick, test_walker_on_path_progresses);
    ("k walkers message count", `Quick, test_k_walkers_send_k_messages_first);
    ("percolation extremes", `Quick, test_percolation_q1_equals_flood_reach);
    ("max messages cap", `Quick, test_max_messages_cap);
    ("query validation", `Quick, test_query_validation);
    ("simulation deterministic", `Quick, test_simulation_deterministic);
    ("churn uptime formula", `Quick, test_uptime_formula);
    ("churn kills at low uptime", `Quick, test_churn_everything_dead_fails);
    ("churn harmless at high uptime", `Quick, test_churn_high_uptime_succeeds);
    ("churn counts drops", `Quick, test_churn_counts_drops);
    QCheck_alcotest.to_alcotest prop_event_queue_sorts;
  ]
