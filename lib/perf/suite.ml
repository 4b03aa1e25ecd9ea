open Bechamel

(* The microbenchmark definitions lived in bench/main.ml through PR 4;
   they moved here unchanged so that `sfbench record` and the bench
   harness time exactly the same closures. *)

let tests ~quick =
  let scale n = if quick then n / 8 else n in
  let rng0 = Sf_prng.Rng.of_seed 1 in
  (* Pre-built inputs shared by the per-run closures. *)
  let mori_16k = Sf_gen.Mori.tree (Sf_prng.Rng.split rng0) ~p:0.5 ~t:(scale 16_384) in
  let mori_u = Sf_graph.Ugraph.of_digraph mori_16k in
  let config_g =
    Sf_gen.Config_model.searchable_power_law (Sf_prng.Rng.split rng0) ~n:(scale 16_384)
      ~exponent:2.3 ()
  in
  let config_u = Sf_graph.Ugraph.of_digraph config_g in
  let kleinberg = Sf_gen.Kleinberg.generate (Sf_prng.Rng.split rng0) ~side:32 ~r:2. ~q:1 () in
  let kleinberg_u = Sf_graph.Ugraph.of_digraph kleinberg.Sf_gen.Kleinberg.graph in
  let degrees = Sf_graph.Metrics.in_degrees mori_16k in
  let n_mori = Sf_graph.Ugraph.n_vertices mori_u in
  let n_conf = Sf_graph.Ugraph.n_vertices config_u in
  let mk name f = Test.make ~name (Staged.stage f) in
  [
    (* T1/T2: generation of the Theorem 1 workloads *)
    mk
      (Printf.sprintf "gen: mori tree t=%d (T1)" (scale 8192))
      (fun () -> ignore (Sf_gen.Mori.tree (Sf_prng.Rng.copy rng0) ~p:0.5 ~t:(scale 8192)));
    mk
      (Printf.sprintf "gen: merged mori m=4 n=%d (T2)" (scale 2048))
      (fun () ->
        ignore (Sf_gen.Mori.graph (Sf_prng.Rng.copy rng0) ~p:0.5 ~m:4 ~n:(scale 2048)));
    (* T4: Cooper-Frieze generation, as the oriented view *)
    mk
      (Printf.sprintf "gen: cooper-frieze n=%d (T4)" (scale 4096))
      (fun () ->
        ignore
          (Sf_graph.Ugraph.to_digraph
             (Sf_gen.Cooper_frieze.generate_n_vertices (Sf_prng.Rng.copy rng0)
                Sf_gen.Cooper_frieze.default ~n:(scale 4096))));
    (* T11: configuration-model generation *)
    mk
      (Printf.sprintf "gen: config model n=%d (T11)" (scale 8192))
      (fun () ->
        ignore
          (Sf_gen.Config_model.power_law (Sf_prng.Rng.copy rng0) ~n:(scale 8192) ~exponent:2.3
             ()));
    (* T12: Kleinberg generation and routing *)
    mk "gen: kleinberg side=32 (T12)" (fun () ->
        ignore (Sf_gen.Kleinberg.generate (Sf_prng.Rng.copy rng0) ~side:32 ~r:2. ~q:1 ()));
    mk "search: greedy route side=32 (T12)" (fun () ->
        ignore
          (Sf_search.Geo_routing.greedy kleinberg_u
             ~dist:(Sf_gen.Kleinberg.lattice_distance ~side:32)
             ~source:1 ~target:600 ~max_steps:10_000));
    (* T1: a full weak-model search *)
    mk "search: bfs to neighbor on mori (T1)" (fun () ->
        ignore
          (Sf_search.Runner.search ~stop_at:Sf_search.Runner.At_neighbor
             ~rng:(Sf_prng.Rng.copy rng0) mori_u Sf_search.Strategies.bfs ~source:1
             ~target:(n_mori - 3)));
    (* T3: a strong-model search *)
    mk "search: strong high-degree on mori (T3)" (fun () ->
        ignore
          (Sf_search.Runner.search ~rng:(Sf_prng.Rng.copy rng0) mori_u
             Sf_search.Strategies.strong_high_degree ~source:1 ~target:(n_mori - 3)));
    (* T11: Adamic greedy on the configuration graph *)
    mk "search: strong high-degree on config (T11)" (fun () ->
        ignore
          (Sf_search.Runner.search ~rng:(Sf_prng.Rng.copy rng0) config_u
             Sf_search.Strategies.strong_high_degree ~source:1 ~target:(n_conf / 2)));
    (* T13: percolation query *)
    mk "search: percolation run on config (T13)" (fun () ->
        ignore
          (Sf_search.Percolation.run (Sf_prng.Rng.copy rng0) config_u
             (Sf_search.Percolation.default_params ~n:n_conf)
             ~source:1 ~target:(n_conf / 2)));
    (* T5: exact event probability at a = 10^6 *)
    mk "math: P(E_{a,b}) exact a=10^6 (T5)" (fun () ->
        ignore (Sf_core.Events.prob_exact ~p:0.5 ~a:1_000_000 ~b:1_001_000));
    (* T6: exhaustive equivalence at t=8 *)
    mk "math: exact equivalence t=8 (T6)" (fun () ->
        ignore (Sf_core.Equivalence.exact ~p:0.5 ~t:8 ~a:4 ~b:7));
    (* T6: conditioned sampling *)
    mk
      (Printf.sprintf "gen: conditioned mori t=%d (T6)" (scale 4096))
      (fun () ->
        let t = scale 4096 in
        ignore
          (Sf_gen.Mori.tree_conditioned (Sf_prng.Rng.copy rng0) ~p:0.5 ~t ~a:(t - 64) ~b:t));
    (* T8: max-degree replay *)
    mk "math: max-degree series (T8)" (fun () ->
        ignore
          (Sf_core.Max_degree.max_indegree_series (Sf_prng.Rng.copy rng0) ~p:0.8
             ~checkpoints:[ scale 16_384 ]));
    (* T9: power-law MLE *)
    mk "math: power-law MLE fit (T9)" (fun () ->
        ignore (Sf_stats.Power_law.fit degrees ~x_min:1));
    (* T10: BFS over the whole graph *)
    mk "graph: full BFS on mori (T10)" (fun () ->
        ignore (Sf_graph.Traversal.bfs_distances mori_u ~source:1));
    (* T14: permutation action *)
    mk "graph: permutation action on mori (T14)" (fun () ->
        ignore (Sf_graph.Permute.apply (Sf_graph.Permute.identity n_mori) mori_16k));
    (* T15: correlation statistics *)
    mk "graph: assortativity on config (T15)" (fun () ->
        ignore (Sf_graph.Correlation.assortativity config_u));
    mk "graph: k-core decomposition on config (T15)" (fun () ->
        ignore (Sf_graph.Kcore.coreness config_u));
    (* T6: exact rational certificate *)
    mk "math: rational certificate t=8 (T6)" (fun () ->
        ignore (Sf_core.Equivalence.exact_rational ~p_num:1 ~p_den:2 ~t:8 ~a:4 ~b:7));
    (* T19: one simulated flood *)
    (let net = Sf_sim.Network.create config_u in
     mk "sim: flood query on config (T19)" (fun () ->
         ignore
           (Sf_sim.Query_sim.query ~rng:(Sf_prng.Rng.copy rng0) net
              (Sf_sim.Query_sim.Flood { ttl = 6 })
              ~source:1
              ~holders:(Sf_sim.Query_sim.single_target net (n_conf / 2)))));
    (* T22: one churned query *)
    (let net = Sf_sim.Network.create config_u in
     mk "sim: churned flood on config (T22)" (fun () ->
         ignore
           (Sf_sim.Churn_sim.query ~rng:(Sf_prng.Rng.copy rng0) net
              { Sf_sim.Churn_sim.mean_up = 40.; mean_down = 10. }
              (Sf_sim.Query_sim.Flood { ttl = 6 })
              ~source:1
              ~holders:(Sf_sim.Query_sim.single_target net (n_conf / 2)))));
    (* giant-graph hot paths (doc/SCALING.md): the Móri and
       Cooper–Frieze growth loops straight into CSR (the "gen: mori
       tree" and "gen: cooper-frieze" entries above time the same
       loops plus the oriented Digraph view), the CSR freeze, and the
       SFGB-v2 write+map round trip *)
    mk
      (Printf.sprintf "gen: mori giant tree t=%d (T1)" (scale 8192))
      (fun () ->
        ignore (Sf_gen.Mori.graph (Sf_prng.Rng.copy rng0) ~p:0.5 ~m:1 ~n:(scale 8192)));
    mk
      (Printf.sprintf "gen: cooper-frieze giant n=%d (T4)" (scale 4096))
      (fun () ->
        ignore
          (Sf_gen.Cooper_frieze.generate_n_vertices (Sf_prng.Rng.copy rng0)
             Sf_gen.Cooper_frieze.default ~n:(scale 4096)));
    mk
      (Printf.sprintf "graph: csr freeze n=%d" (scale 16_384))
      (fun () -> ignore (Sf_graph.Csr.of_digraph mori_16k));
    (let path = Filename.temp_file "sfbench_v2" ".sfg" in
     at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
     mk "store: sfgb-v2 write+map roundtrip" (fun () ->
         Sf_store.Csr_codec.write_ugraph_file mori_u ~path;
         ignore (Sf_store.Csr_codec.map_ugraph_file ~path ())));
    (* event queue throughput *)
    mk "sim: event queue 10k schedule+drain" (fun () ->
        let q = Sf_sim.Event_queue.create () in
        let r = Sf_prng.Rng.copy rng0 in
        for i = 0 to 9_999 do
          Sf_sim.Event_queue.schedule q ~time:(Sf_prng.Rng.unit_float r) i
        done;
        while not (Sf_sim.Event_queue.is_empty q) do
          ignore (Sf_sim.Event_queue.next q)
        done);
  ]
  (* fabric overhead (doc/FABRIC.md): the checkpoint codec round trip
     through the filesystem and the coordinator's merge of complete
     shard checkpoints — the prices a distributed grid pays over an
     in-process one *)
  @
  let n_out = max 64 (scale 4096) in
  let shards = 8 in
  let spec =
    {
      Sf_fabric.Grid.gs_model = "mori";
      gs_p = 0.5;
      gs_m = 1;
      gs_alpha = 0.5;
      gs_exponent = 2.3;
      gs_sizes = [ 64 ];
      gs_strategies = [ "high-degree" ];
      gs_trials = n_out;
      gs_metric = `Neighbor;
      gs_source = `Oldest;
      gs_budget_mul = 4;
      gs_budget_add = 0;
      gs_seed = 1;
    }
  in
  let plan = Sf_fabric.Grid.make_plan ~shards spec in
  let crc = Sf_fabric.Grid.plan_crc plan in
  let token = Sf_fabric.Grid.rng_token spec in
  let dir = Filename.temp_file "sfbench_fab" "" in
  Sys.remove dir;
  Sf_fabric.Grid.mkdir_p (Filename.dirname (Sf_fabric.Grid.shard_path dir 0));
  let orng = Sf_prng.Rng.copy rng0 in
  let ckpt_of shard (lo, hi) =
    {
      Sf_fabric.Ckpt.c_grid_crc = crc;
      c_shard = shard;
      c_lo = lo;
      c_hi = hi;
      c_rng_token = token;
      c_next = hi;
      c_outcomes =
        Array.init (hi - lo) (fun _ -> (Sf_prng.Rng.unit_float orng *. 100., false, false));
      c_counters = [ ("search.request", (hi - lo) * 17) ];
    }
  in
  Array.iteri
    (fun shard range ->
      Sf_fabric.Ckpt.write ~path:(Sf_fabric.Grid.shard_path dir shard) (ckpt_of shard range))
    plan.Sf_fabric.Grid.p_shards;
  let one = ckpt_of 0 plan.Sf_fabric.Grid.p_shards.(0) in
  let wpath = Filename.concat dir "bench.ckpt" in
  Sf_fabric.Ckpt.write ~path:wpath one;
  at_exit (fun () ->
      let rm p = try Sys.remove p with Sys_error _ -> () in
      rm wpath;
      Array.iteri (fun shard _ -> rm (Sf_fabric.Grid.shard_path dir shard)) plan.Sf_fabric.Grid.p_shards;
      (try Unix.rmdir (Filename.dirname (Sf_fabric.Grid.shard_path dir 0)) with Unix.Unix_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ());
  [
    mk
      (Printf.sprintf "fabric: ckpt write %d outcomes" (Array.length one.Sf_fabric.Ckpt.c_outcomes))
      (fun () -> Sf_fabric.Ckpt.write ~path:wpath one);
    mk
      (Printf.sprintf "fabric: ckpt read %d outcomes" (Array.length one.Sf_fabric.Ckpt.c_outcomes))
      (fun () -> ignore (Sf_fabric.Ckpt.load ~path:wpath));
    mk
      (Printf.sprintf "fabric: merge %d shards x %d" shards (n_out / shards))
      (fun () -> ignore (Sf_fabric.Coordinator.merge ~dir ~grid_crc:crc plan));
  ]

let micro_cfg ~quick =
  Benchmark.cfg ~limit:200
    ~quota:(Time.second (if quick then 0.25 else 1.0))
    ~kde:None ~stabilize:true ()

let run_micro ~quick () =
  let instance = Toolkit.Instance.monotonic_clock in
  let label = Measure.label instance in
  let raw =
    Benchmark.all (micro_cfg ~quick) [ instance ]
      (Test.make_grouped ~name:"sf" (tests ~quick))
  in
  Hashtbl.fold
    (fun name (b : Benchmark.t) acc ->
      let samples =
        Array.map
          (fun m -> Measurement_raw.get ~label m /. Measurement_raw.run m)
          b.Benchmark.lr
      in
      (* a batch with zero runs would yield nan; bechamel starts runs
         at 1, so samples are always finite — but guard anyway *)
      let samples = Array.of_seq (Seq.filter Float.is_finite (Array.to_seq samples)) in
      if Array.length samples = 0 then acc else (name, samples) :: acc)
    raw []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let run_phases ~quick ~seed ~repeats =
  if repeats < 1 then invalid_arg "Suite.run_phases: need repeats >= 1";
  let acc : (string, float list ref) Hashtbl.t = Hashtbl.create 32 in
  for _ = 1 to repeats do
    List.iter
      (fun ((entry : Sf_experiments.Registry.entry), _result, dt) ->
        let name = "exp." ^ entry.Sf_experiments.Registry.id in
        let cell =
          match Hashtbl.find_opt acc name with
          | Some c -> c
          | None ->
            let c = ref [] in
            Hashtbl.add acc name c;
            c
        in
        cell := (dt *. 1e9) :: !cell)
      (Sf_experiments.Registry.run_all ~quick ~seed Sf_experiments.Registry.all)
  done;
  Hashtbl.fold
    (fun name cell rows -> (name, Array.of_list (List.rev !cell)) :: rows)
    acc []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
