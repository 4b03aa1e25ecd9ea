module Ugraph = Sf_graph.Ugraph
module Permute = Sf_graph.Permute
module Rng = Sf_prng.Rng

type exact_report = {
  a : int;
  b : int;
  t : int;
  n_outcomes : int;
  event_prob : float;
  permutations_checked : int;
  max_discrepancy : float;
}

let check_window ~t ~a ~b name =
  if a < 2 || b < a || b > t then invalid_arg ("Equivalence." ^ name ^ ": need 2 <= a <= b <= t")

let distribution_distance dist1 dist2 =
  (* Max pointwise gap between two (key, prob) association lists. *)
  let tbl = Hashtbl.create 256 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) dist1;
  let worst = ref 0. in
  List.iter
    (fun (k, v2) ->
      let v1 = try Hashtbl.find tbl k with Not_found -> 0. in
      worst := Float.max !worst (Float.abs (v1 -. v2));
      Hashtbl.remove tbl k)
    dist2;
  Hashtbl.iter (fun _ v1 -> worst := Float.max !worst v1) tbl;
  !worst

let exact ~p ~t ~a ~b =
  check_window ~t ~a ~b "exact";
  let condition g = Events.holds g ~a ~b in
  (* Collect every conditioned outcome once; each is tiny (t <= 12). *)
  let outcomes =
    Enumerate.fold ~p ~t ~init:[] ~f:(fun acc ~prob ~fathers ->
        let g = Enumerate.graph_of_fathers fathers in
        if condition g then (g, prob) :: acc else acc)
  in
  let event_prob = List.fold_left (fun acc (_, pr) -> acc +. pr) 0. outcomes in
  let law transform =
    let tbl = Hashtbl.create 256 in
    List.iter
      (fun (g, prob) ->
        let key = Ugraph.canonical_key (transform g) in
        let prev = try Hashtbl.find tbl key with Not_found -> 0. in
        Hashtbl.replace tbl key (prev +. (prob /. event_prob)))
      outcomes;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  in
  let base = law Fun.id in
  let permutations = ref 0 and worst = ref 0. in
  for u = a + 1 to b do
    for v = u + 1 to b do
      incr permutations;
      let sigma = Permute.transposition t u v in
      let pushed = law (Permute.apply sigma) in
      worst := Float.max !worst (distribution_distance base pushed)
    done
  done;
  {
    a;
    b;
    t;
    n_outcomes = Enumerate.n_outcomes ~t;
    event_prob;
    permutations_checked = !permutations;
    max_discrepancy = !worst;
  }

type rational_report = {
  equal : bool;
  event_prob : Rational.t;
  outcomes_conditioned : int;
  permutations_checked : int;
}

let exact_rational ~p_num ~p_den ~t ~a ~b =
  check_window ~t ~a ~b "exact_rational";
  let condition g = Events.holds g ~a ~b in
  let outcomes =
    Enumerate.fold_rational ~p_num ~p_den ~t ~init:[] ~f:(fun acc ~prob ~fathers ->
        let g = Enumerate.graph_of_fathers fathers in
        if condition g then (g, prob) :: acc else acc)
  in
  let event_prob =
    List.fold_left (fun acc (_, pr) -> Rational.add acc pr) Rational.zero outcomes
  in
  (* conditional law as an exact, key-sorted association list; no
     normalisation needed for the comparison — equal unnormalised
     measures have equal conditionals *)
  let law transform =
    let tbl = Hashtbl.create 256 in
    List.iter
      (fun (g, prob) ->
        let key = Ugraph.canonical_key (transform g) in
        let prev = try Hashtbl.find tbl key with Not_found -> Rational.zero in
        Hashtbl.replace tbl key (Rational.add prev prob))
      outcomes;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (k1, _) (k2, _) -> compare k1 k2)
  in
  let base = law Fun.id in
  let permutations = ref 0 in
  let equal = ref true in
  for u = a + 1 to b do
    for v = u + 1 to b do
      incr permutations;
      let sigma = Permute.transposition t u v in
      let pushed = law (Permute.apply sigma) in
      let same =
        List.length base = List.length pushed
        && List.for_all2
             (fun (k1, p1) (k2, p2) -> k1 = k2 && Rational.equal p1 p2)
             base pushed
      in
      if not same then equal := false
    done
  done;
  {
    equal = !equal;
    event_prob;
    outcomes_conditioned = List.length outcomes;
    permutations_checked = !permutations;
  }

type mc_report = {
  trials : int;
  chi_square : float;
  dof : int;
  p_value : float;
  tv_distance : float;
}

let window_statistic g ~a ~b =
  (* A fixed (graph-independent choice of slots, capped labels)
     projection of the window: coarse enough that a chi-square with a
     few thousand samples has populated categories, fine enough to
     expose non-exchangeability. For windows wider than four, only the
     first, middle and last slots are read — a permutation moving any
     of those shifts the slot laws if the vertices are
     distinguishable. *)
  let slots =
    let w = b - a in
    if w <= 4 then List.init w (fun i -> a + 1 + i)
    else [ a + 1; a + 1 + (w / 2); b ]
  in
  let buf = Buffer.create 32 in
  List.iter
    (fun v ->
      (* read from v's incidence row, not from edge v-2: in σ(G) the
         out-edge of v keeps the id of σ⁻¹(v)'s *)
      let indeg = ref 0 and father = ref 0 in
      Ugraph.iter_incident g v (fun id ->
          let s, d = Ugraph.endpoints g id in
          if d = v then incr indeg;
          if s = v then father := d);
      let indeg = !indeg and father = !father in
      let indeg_label = if indeg >= 5 then "5+" else string_of_int indeg in
      let father_label =
        if father > a then "w" (* inside the window: only without conditioning *)
        else if father <= 3 then string_of_int father
        else "o"
      in
      Buffer.add_string buf indeg_label;
      Buffer.add_char buf ':';
      Buffer.add_string buf father_label;
      Buffer.add_char buf ';')
    slots;
  Buffer.contents buf

let counts_of samples =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun s ->
      let prev = try Hashtbl.find tbl s with Not_found -> 0 in
      Hashtbl.replace tbl s (prev + 1))
    samples;
  Hashtbl.fold (fun k c acc -> (k, c) :: acc) tbl []

let monte_carlo rng ~p ~t ~a ~b ~trials ~sigma ~conditioned =
  check_window ~t ~a ~b "monte_carlo";
  if Array.length sigma <> t then invalid_arg "Equivalence.monte_carlo: sigma size mismatch";
  Array.iteri
    (fun i img ->
      let v = i + 1 in
      if img <> v && not (v > a && v <= b) then
        invalid_arg "Equivalence.monte_carlo: sigma moves vertices outside the window")
    sigma;
  let sample () =
    if conditioned then Sf_gen.Mori.tree_conditioned rng ~p ~t ~a ~b
    else Sf_gen.Mori.tree rng ~p ~t
  in
  let side1 = List.init trials (fun _ -> window_statistic (sample ()) ~a ~b) in
  let side2 =
    List.init trials (fun _ ->
        window_statistic (Permute.apply sigma (sample ())) ~a ~b)
  in
  let c1 = counts_of side1 and c2 = counts_of side2 in
  let chi_square, dof, p_value = Sf_stats.Tests.chi_square_two_sample c1 c2 in
  { trials; chi_square; dof; p_value; tv_distance = Sf_stats.Tests.total_variation c1 c2 }

let random_window_sigma rng ~t ~a ~b =
  if b <= a then invalid_arg "Equivalence.random_window_sigma: need b > a";
  let rec draw () =
    let sigma = Permute.random_of_subrange rng ~n:t ~lo:(a + 1) ~hi:b in
    if sigma = Permute.identity t then draw () else sigma
  in
  draw ()
