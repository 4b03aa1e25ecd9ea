let max_indegree_series rng ~p ~checkpoints =
  if checkpoints = [] then invalid_arg "Max_degree.max_indegree_series: no checkpoints";
  List.iter
    (fun t -> if t < 2 then invalid_arg "Max_degree.max_indegree_series: checkpoint < 2")
    checkpoints;
  let t_max = List.fold_left max 2 checkpoints in
  let fathers = Sf_gen.Mori.tree_fathers rng ~p ~t:t_max in
  (* Replay the attachment sequence, tracking the running maximum
     indegree; the max at time t covers fathers of vertices 2..t. *)
  let indeg = Array.make t_max 0 in
  let running_max = Array.make (t_max + 1) 0 in
  let current = ref 0 in
  for k = 2 to t_max do
    let f = Sf_graph.Bigvec.get fathers (k - 2) in
    indeg.(f - 1) <- indeg.(f - 1) + 1;
    if indeg.(f - 1) > !current then current := indeg.(f - 1);
    running_max.(k) <- !current
  done;
  List.map (fun t -> (t, running_max.(t))) checkpoints

let mean_max_indegree rng ~p ~checkpoints ~trials =
  if trials < 1 then invalid_arg "Max_degree.mean_max_indegree: need trials >= 1";
  let sums = Hashtbl.create 16 in
  for _ = 1 to trials do
    List.iter
      (fun (t, m) ->
        let prev = try Hashtbl.find sums t with Not_found -> 0 in
        Hashtbl.replace sums t (prev + m))
      (max_indegree_series rng ~p ~checkpoints)
  done;
  List.map
    (fun t -> (t, float_of_int (Hashtbl.find sums t) /. float_of_int trials))
    (List.sort_uniq compare checkpoints)

let fit_exponent points =
  Sf_stats.Regression.log_log
    (List.map (fun (t, m) -> (float_of_int t, m)) points)
