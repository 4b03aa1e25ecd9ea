let check_p p name = if p <= 0. || p > 1. then invalid_arg ("Moments." ^ name ^ ": need 0 < p <= 1")

let total_weight ~p ~t =
  check_p p "total_weight";
  if t < 3 then invalid_arg "Moments.total_weight: need t >= 3";
  (p *. float_of_int (t - 2)) +. ((1. -. p) *. float_of_int (t - 1))

let expected_indegree ~p ~v ~t =
  check_p p "expected_indegree";
  if v < 1 || t < 2 || v > t then invalid_arg "Moments.expected_indegree: need 1 <= v <= t";
  (* state at time s: the graph G_s; vertex 1 has indegree 1 at t = 2,
     vertex 2 has 0, later vertices are born with 0 at their own time *)
  let birth = max v 2 in
  let d = ref (if v = 1 then 1. else 0.) in
  for s = birth + 1 to t do
    (* arrival of vertex s updates expectations with weight W_s *)
    let w = total_weight ~p ~t:s in
    d := !d +. (((p *. !d) +. (1. -. p)) /. w)
  done;
  !d

let expected_indegree_profile ~p ~t =
  check_p p "expected_indegree_profile";
  if t < 2 then invalid_arg "Moments.expected_indegree_profile: need t >= 2";
  (* The affine recurrence d_s = d_{s-1}·(1 + p/W_s) + (1-p)/W_s has
     the closed solution d_t = (A_t/A_b)·d_b + (1-p)·A_t·(S_t - S_b)
     with A_t = ∏_{s<=t}(1 + p/W_s) and S_t = Σ_{s<=t} 1/(A_s·W_s),
     so one O(t) pass of prefix products serves every vertex. *)
  let a = Array.make (t + 1) 1. in
  let s_sum = Array.make (t + 1) 0. in
  for s = 3 to t do
    let w = total_weight ~p ~t:s in
    a.(s) <- a.(s - 1) *. (1. +. (p /. w));
    s_sum.(s) <- s_sum.(s - 1) +. (1. /. (a.(s) *. w))
  done;
  Array.init t (fun i ->
      let v = i + 1 in
      let birth = max v 2 in
      let d_birth = if v = 1 then 1. else 0. in
      (a.(t) /. a.(birth) *. d_birth)
      +. ((1. -. p) *. a.(t) *. (s_sum.(t) -. s_sum.(birth))))
