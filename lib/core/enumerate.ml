module Ugraph = Sf_graph.Ugraph

let max_t = 12

let n_outcomes ~t =
  if t < 2 || t > max_t then invalid_arg "Enumerate.n_outcomes: need 2 <= t <= 12";
  let rec go k acc = if k > t then acc else go (k + 1) (acc * (k - 1)) in
  go 3 1

let fold ~p ~t ~init ~f =
  if t < 2 || t > max_t then invalid_arg "Enumerate.fold: need 2 <= t <= 12";
  if p <= 0. || p > 1. then invalid_arg "Enumerate.fold: need 0 < p <= 1";
  let fathers = Array.make (t - 1) 1 in
  let indeg = Array.make t 0 in
  (* Recurse over the father of vertex k, threading the exact step
     probability (p·indeg(u) + (1-p)) / (p·(k-2) + (1-p)·(k-1)). *)
  let acc = ref init in
  let rec step k prob =
    if k > t then acc := f !acc ~prob ~fathers
    else begin
      let denom =
        (p *. float_of_int (k - 2)) +. ((1. -. p) *. float_of_int (k - 1))
      in
      for u = 1 to k - 1 do
        let weight = (p *. float_of_int indeg.(u - 1)) +. (1. -. p) in
        fathers.(k - 2) <- u;
        indeg.(u - 1) <- indeg.(u - 1) + 1;
        step (k + 1) (prob *. weight /. denom);
        indeg.(u - 1) <- indeg.(u - 1) - 1
      done
    end
  in
  (* Vertex 2 always attaches to vertex 1. *)
  indeg.(0) <- 1;
  step 3 1.;
  !acc

let graph_of_fathers fathers =
  Ugraph.of_edges ~n:(Array.length fathers + 1)
    (List.mapi (fun i father -> (i + 2, father)) (Array.to_list fathers))

let distribution ~p ~t ?(condition = fun _ -> true) () =
  let tbl = Hashtbl.create 256 in
  let total =
    fold ~p ~t ~init:0. ~f:(fun total ~prob ~fathers ->
        let g = graph_of_fathers fathers in
        if condition g then begin
          let key = Ugraph.canonical_key g in
          let prev = try Hashtbl.find tbl key with Not_found -> 0. in
          Hashtbl.replace tbl key (prev +. prob);
          total +. prob
        end
        else total)
  in
  if total <= 0. then []
  else
    Hashtbl.fold (fun key prob acc -> (key, prob /. total) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)

let fold_rational ~p_num ~p_den ~t ~init ~f =
  if t < 2 || t > max_t then invalid_arg "Enumerate.fold_rational: need 2 <= t <= 12";
  if p_num <= 0 || p_den < p_num then
    invalid_arg "Enumerate.fold_rational: need 0 < p_num <= p_den";
  let c = p_num and d = p_den in
  let fathers = Array.make (t - 1) 1 in
  let indeg = Array.make t 0 in
  let acc = ref init in
  let rec step k prob =
    if k > t then acc := f !acc ~prob ~fathers
    else begin
      (* denominators of the weights cancel: everything is integral *)
      let denom = (c * (k - 2)) + ((d - c) * (k - 1)) in
      for u = 1 to k - 1 do
        let weight = (c * indeg.(u - 1)) + (d - c) in
        fathers.(k - 2) <- u;
        indeg.(u - 1) <- indeg.(u - 1) + 1;
        step (k + 1)
          (Rational.mul prob (Rational.make (Int64.of_int weight) (Int64.of_int denom)));
        indeg.(u - 1) <- indeg.(u - 1) - 1
      done
    end
  in
  indeg.(0) <- 1;
  step 3 Rational.one;
  !acc

let event_prob ~p ~t ~condition =
  fold ~p ~t ~init:0. ~f:(fun total ~prob ~fathers ->
      if condition (graph_of_fathers fathers) then total +. prob else total)
