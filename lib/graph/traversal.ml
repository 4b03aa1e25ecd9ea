type vertex = int

let bfs_tree g ~source =
  let n = Ugraph.n_vertices g in
  if not (Ugraph.mem_vertex g source) then invalid_arg "Traversal.bfs_tree: bad source";
  let dist = Array.make n (-1) and parent = Array.make n 0 in
  let queue = Queue.create () in
  dist.(source - 1) <- 0;
  Queue.push source queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Ugraph.iter_neighbors g u (fun v ->
        if dist.(v - 1) < 0 then begin
          dist.(v - 1) <- dist.(u - 1) + 1;
          parent.(v - 1) <- u;
          Queue.push v queue
        end)
  done;
  (dist, parent)

let bfs_distances g ~source = fst (bfs_tree g ~source)

let shortest_path g ~src ~dst =
  let dist, parent = bfs_tree g ~source:src in
  if dist.(dst - 1) < 0 then None
  else begin
    let rec walk v acc = if v = src then src :: acc else walk parent.(v - 1) (v :: acc) in
    Some (walk dst [])
  end

let connected_components g =
  let n = Ugraph.n_vertices g in
  let label = Array.make n (-1) in
  let next = ref 0 in
  for v = 1 to n do
    if label.(v - 1) < 0 then begin
      let c = !next in
      incr next;
      let queue = Queue.create () in
      label.(v - 1) <- c;
      Queue.push v queue;
      while not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        Ugraph.iter_neighbors g u (fun w ->
            if label.(w - 1) < 0 then begin
              label.(w - 1) <- c;
              Queue.push w queue
            end)
      done
    end
  done;
  label

let component_sizes g =
  let label = connected_components g in
  let c = 1 + Array.fold_left max (-1) label in
  let sizes = Array.make (max c 0) 0 in
  Array.iter (fun l -> sizes.(l) <- sizes.(l) + 1) label;
  sizes

let largest_component g =
  let label = connected_components g in
  let sizes = component_sizes g in
  if Array.length sizes = 0 then []
  else begin
    let best = ref 0 in
    Array.iteri (fun i s -> if s > sizes.(!best) then best := i) sizes;
    let acc = ref [] in
    for v = Ugraph.n_vertices g downto 1 do
      if label.(v - 1) = !best then acc := v :: !acc
    done;
    !acc
  end

let is_connected g =
  let n = Ugraph.n_vertices g in
  n = 0 || Array.for_all (fun l -> l = 0) (connected_components g)

let eccentricity g v = Array.fold_left max 0 (bfs_distances g ~source:v)

let diameter_exact g =
  let label = connected_components g in
  let sizes = component_sizes g in
  if Array.length sizes = 0 then 0
  else begin
    let best = ref 0 in
    Array.iteri (fun i s -> if s > sizes.(!best) then best := i) sizes;
    let diam = ref 0 in
    for v = 1 to Ugraph.n_vertices g do
      if label.(v - 1) = !best then diam := max !diam (eccentricity g v)
    done;
    !diam
  end

let diameter_double_sweep g rng =
  let n = Ugraph.n_vertices g in
  if n = 0 then 0
  else begin
    let start = 1 + Sf_prng.Rng.int rng n in
    let dist1 = bfs_distances g ~source:start in
    let far = ref start in
    Array.iteri (fun i d -> if d > dist1.(!far - 1) then far := i + 1) dist1;
    eccentricity g !far
  end

let mean_distance_sampled g rng ~samples =
  let n = Ugraph.n_vertices g in
  if n <= 1 || samples <= 0 then 0.
  else begin
    let total = ref 0. and count = ref 0 in
    for _ = 1 to samples do
      let source = 1 + Sf_prng.Rng.int rng n in
      let dist = bfs_distances g ~source in
      Array.iter
        (fun d ->
          if d > 0 then begin
            total := !total +. float_of_int d;
            incr count
          end)
        dist
    done;
    if !count = 0 then 0. else !total /. float_of_int !count
  end
