(* Every statistic reads the endpoint sections directly: the orientation
   of each edge is the order its generator wrote (src, dst), and a
   self-loop contributes 2 to its endpoint's total degree. *)

let count_endpoints u ~src ~dst =
  let a = Array.make (Ugraph.n_vertices u) 0 in
  for id = 0 to Ugraph.n_edges u - 1 do
    let s, d = Ugraph.endpoints u id in
    if src then a.(s - 1) <- a.(s - 1) + 1;
    if dst then a.(d - 1) <- a.(d - 1) + 1
  done;
  a

let in_degrees u = count_endpoints u ~src:false ~dst:true
let out_degrees u = count_endpoints u ~src:true ~dst:false
let total_degrees u = count_endpoints u ~src:true ~dst:true

let max_in_degree u = Array.fold_left max 0 (in_degrees u)
let max_total_degree u = Array.fold_left max 0 (total_degrees u)

let mean_degree u =
  let n = Ugraph.n_vertices u in
  if n = 0 then 0. else 2. *. float_of_int (Ugraph.n_edges u) /. float_of_int n

let degree_counts degrees =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun d ->
      let c = try Hashtbl.find tbl d with Not_found -> 0 in
      Hashtbl.replace tbl d (c + 1))
    degrees;
  Hashtbl.fold (fun d c acc -> (d, c) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let degree_ccdf degrees =
  let n = Array.length degrees in
  if n = 0 then []
  else begin
    let counts = degree_counts degrees in
    (* Walk degrees in descending order accumulating the tail mass. *)
    let rev = List.rev counts in
    let _, acc =
      List.fold_left
        (fun (tail, acc) (d, c) ->
          let tail = tail + c in
          (tail, (d, float_of_int tail /. float_of_int n) :: acc))
        (0, []) rev
    in
    acc
  end

let self_loops u =
  let c = ref 0 in
  for id = 0 to Ugraph.n_edges u - 1 do
    let s, d = Ugraph.endpoints u id in
    if s = d then incr c
  done;
  !c

let parallel_edges u =
  (* sort packed (min, max) endpoint pairs instead of hashing them:
     O(m log m) with one flat scratch array, no per-edge boxes — the
     difference between feasible and not at 10^7 edges *)
  let m = Ugraph.n_edges u in
  if m = 0 then 0
  else begin
    let packed = Array.make m 0 in
    for id = 0 to m - 1 do
      let s, d = Ugraph.endpoints u id in
      packed.(id) <- (min s d lsl 31) lor max s d
    done;
    Array.sort compare packed;
    let dups = ref 0 in
    for i = 1 to m - 1 do
      if packed.(i) = packed.(i - 1) then incr dups
    done;
    !dups
  end

let degree_sum_invariant u =
  Array.fold_left ( + ) 0 (total_degrees u) = 2 * Ugraph.n_edges u
