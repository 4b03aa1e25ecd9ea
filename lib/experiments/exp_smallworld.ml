module Rng = Sf_prng.Rng
module Ugraph = Sf_graph.Ugraph
module Traversal = Sf_graph.Traversal
module Kleinberg = Sf_gen.Kleinberg
module Geo_routing = Sf_search.Geo_routing
module Table = Sf_stats.Table

let t10_diameter ~quick ~seed =
  let sizes = Exp.scales ~quick:[ 500; 2_000 ] ~full:[ 1_000; 4_000; 16_000; 64_000 ] quick in
  let master = Rng.of_seed seed in
  let buf = Buffer.create 2048 in
  let checks = ref [] in
  Buffer.add_string buf
    (Exp.section "T10: log diameter vs sqrt(n) search cost - small world, not searchable");
  let models =
    [
      ("Mori p=0.5", fun rng n -> Sf_gen.Mori.graph rng ~p:0.5 ~m:1 ~n);
      ( "Cooper-Frieze",
        fun rng n -> Sf_gen.Cooper_frieze.generate_n_vertices rng Sf_gen.Cooper_frieze.default ~n );
    ]
  in
  let rows = ref [] in
  List.iteri
    (fun mi (name, make) ->
      let diams = ref [] in
      List.iteri
        (fun si n ->
          let rng = Rng.split_at master ((mi * 100) + si) in
          let g = make rng n in
          let diam = Traversal.diameter_double_sweep g rng in
          let mean_dist = Traversal.mean_distance_sampled g rng ~samples:3 in
          diams := (n, diam) :: !diams;
          let bound =
            (Sf_core.Lower_bound.theorem1 ~p:0.5 ~m:1 ~n).Sf_core.Lower_bound.requests
          in
          rows :=
            [
              name;
              Sf_stats.Table.fmt_int_grouped n;
              string_of_int diam;
              Exp.fmt ~digits:1 mean_dist;
              Exp.fmt ~digits:1 (log (float_of_int n));
              Exp.fmt ~digits:1 bound;
            ]
            :: !rows;
          checks :=
            ( Printf.sprintf "%s n=%d: diameter %d <= 12 ln n" name n diam,
              float_of_int diam <= 12. *. log (float_of_int n) )
            :: !checks)
        sizes;
      (* growth check: diameter grows far slower than sqrt(n) *)
      match (List.assoc_opt (List.hd sizes) (List.rev !diams), !diams) with
      | Some d_small, (n_large, d_large) :: _ when n_large > List.hd sizes ->
        let size_ratio = float_of_int n_large /. float_of_int (List.hd sizes) in
        let diam_ratio = float_of_int d_large /. float_of_int (max 1 d_small) in
        checks :=
          ( Printf.sprintf "%s: diameter ratio %.1f well below sqrt(size ratio) %.1f" name
              diam_ratio (sqrt size_ratio),
            diam_ratio < sqrt size_ratio )
          :: !checks
      | _ -> ())
    models;
  Buffer.add_string buf
    (Table.render
       ~headers:[ "model"; "n"; "diameter (2-sweep)"; "mean distance"; "ln n"; "search bound" ]
       ~rows:(List.rev !rows) ());
  {
    Exp.id = "T10";
    title = "Scale-free graphs are small worlds yet not searchable";
    output = Buffer.contents buf;
    checks = List.rev !checks;
  }

let t12_kleinberg ~quick ~seed =
  let sides = Exp.scales ~quick:[ 10; 20 ] ~full:[ 16; 32; 64; 128; 256 ] quick in
  let rs = Exp.pick ~quick:[ 0.; 2. ] ~full:[ 0.; 1.; 2.; 3.; 4. ] quick in
  let trials = Exp.pick ~quick:10 ~full:40 quick in
  let master = Rng.of_seed seed in
  let buf = Buffer.create 2048 in
  let checks = ref [] in
  Buffer.add_string buf
    (Exp.section "T12: Kleinberg greedy routing - navigability needs the right metric (r = 2)");
  let mean_steps = Hashtbl.create 32 in
  let total_failures = ref 0 and total_routes = ref 0 in
  let rows = ref [] in
  List.iteri
    (fun ri r ->
      List.iteri
        (fun si side ->
          let rng = Rng.split_at master ((ri * 100) + si) in
          let t = Kleinberg.generate rng ~side ~r ~q:1 () in
          let g = Ugraph.of_digraph t.Kleinberg.graph in
          let dist = Kleinberg.lattice_distance ~side in
          let n = side * side in
          let summary = Sf_stats.Summary.create () in
          let failures = ref 0 in
          for _ = 1 to trials do
            let source = 1 + Rng.int rng n in
            let target = 1 + Rng.int rng n in
            if source <> target then begin
              let res = Geo_routing.greedy g ~dist ~source ~target ~max_steps:(8 * side * side) in
              incr total_routes;
              if res.Geo_routing.reached then
                Sf_stats.Summary.add summary (float_of_int res.Geo_routing.steps)
              else begin
                incr failures;
                incr total_failures
              end
            end
          done;
          Hashtbl.replace mean_steps (r, side) (Sf_stats.Summary.mean summary);
          rows :=
            [
              Exp.fmt ~digits:1 r;
              string_of_int side;
              Sf_stats.Table.fmt_int_grouped n;
              Exp.fmt ~digits:1 (Sf_stats.Summary.mean summary);
              Exp.fmt ~digits:1 (Sf_stats.Summary.ci95_halfwidth summary);
              string_of_int !failures;
            ]
            :: !rows)
        sides)
    rs;
  Buffer.add_string buf
    (Table.render
       ~headers:[ "r"; "side"; "n"; "mean greedy steps"; "±95%"; "failures" ]
       ~rows:(List.rev !rows) ());
  checks :=
    ( Printf.sprintf "greedy routing always terminates (%d/%d failures)" !total_failures
        !total_routes,
      !total_failures = 0 )
    :: !checks;
  (* the navigability separation only shows at full scale; tiny quick
     grids cannot distinguish log^2 n from polynomial growth *)
  if not quick then begin
    let small = List.hd sides and large = List.nth sides (List.length sides - 1) in
    let steps r side = try Hashtbl.find mean_steps (r, side) with Not_found -> nan in
    let growth_2 = steps 2. large /. Float.max 1. (steps 2. small) in
    let size_growth = float_of_int (large * large) /. float_of_int (small * small) in
    checks :=
      ( Printf.sprintf "r=2 routing grows slowly (factor %.2f for %.0fx nodes)" growth_2
          size_growth,
        growth_2 < sqrt size_growth /. 1.5 )
      :: !checks;
    let growth_0 = steps 0. large /. Float.max 1. (steps 0. small) in
    (* Kleinberg's separation is asymptotic: at these sizes r = 0 still
       rivals r = 2 in absolute hops (its polynomial constant is tiny),
       but its growth rate is already visibly faster — that is the
       testable shape. *)
    checks :=
      ( Printf.sprintf "r=0 grows faster than r=2 (%.2f > %.2f)" growth_0 growth_2,
        growth_0 > growth_2 )
      :: !checks;
    let growth_4 = steps 4. large /. Float.max 1. (steps 4. small) in
    checks :=
      ( Printf.sprintf "r=4 grows faster than r=2 (%.2f > %.2f)" growth_4 growth_2,
        growth_4 > growth_2 )
      :: !checks;
    checks :=
      ("r=2 beats r=4 at the largest size", steps 2. large < steps 4. large) :: !checks
  end;
  {
    Exp.id = "T12";
    title = "Kleinberg's navigable small world: the contrast class";
    output = Buffer.contents buf;
    checks = List.rev !checks;
  }
