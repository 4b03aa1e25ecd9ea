type mapping = { to_sub : int array; of_sub : int array }

let induced g ~vertices =
  let n = Ugraph.n_vertices g in
  let to_sub = Array.make n 0 in
  List.iter
    (fun v ->
      if v < 1 || v > n then invalid_arg "Subgraph.induced: vertex out of range";
      if to_sub.(v - 1) <> 0 then invalid_arg "Subgraph.induced: duplicate vertex";
      to_sub.(v - 1) <- 1)
    vertices;
  let k = ref 0 in
  for v = 1 to n do
    if to_sub.(v - 1) <> 0 then begin
      incr k;
      to_sub.(v - 1) <- !k
    end
  done;
  let of_sub = Array.make !k 0 in
  for v = 1 to n do
    if to_sub.(v - 1) <> 0 then of_sub.(to_sub.(v - 1) - 1) <- v
  done;
  let srcs = Bigvec.create () and dsts = Bigvec.create () in
  for id = 0 to Ugraph.n_edges g - 1 do
    let s, d = Ugraph.endpoints g id in
    let s = to_sub.(s - 1) and d = to_sub.(d - 1) in
    if s <> 0 && d <> 0 then begin
      Bigvec.push srcs s;
      Bigvec.push dsts d
    end
  done;
  (Ugraph.of_csr (Csr.of_bigvecs ~n:!k srcs dsts), { to_sub; of_sub })

let largest_component g = induced g ~vertices:(Traversal.largest_component g)
