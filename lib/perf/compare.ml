type verdict = Improved | Unchanged | Regressed

type result = {
  name : string;
  unit_label : string;
  base_median : float;
  cand_median : float;
  change_pct : float;
  base_ci : float * float;
  cand_ci : float * float;
  u : float;
  p : float;
  verdict : verdict;
}

type policy = {
  noise_floor_pct : float;
  alpha : float;
  bootstrap_iters : int;
  bootstrap_seed : int;
}

let default_policy =
  { noise_floor_pct = 2.0; alpha = 0.01; bootstrap_iters = 400; bootstrap_seed = 2007 }

let bootstrap_median_ci policy xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Compare.bootstrap_median_ci: empty sample";
  if n = 1 then (xs.(0), xs.(0))
  else begin
    let rng = Sf_prng.Rng.of_seed policy.bootstrap_seed in
    let iters = max 1 policy.bootstrap_iters in
    let medians = Array.make iters 0. in
    let resample = Array.make n 0. in
    for i = 0 to iters - 1 do
      for j = 0 to n - 1 do
        resample.(j) <- xs.(Sf_prng.Rng.int rng n)
      done;
      medians.(i) <- Sf_stats.Quantile.median resample
    done;
    ( Sf_stats.Quantile.quantile medians ~q:0.025,
      Sf_stats.Quantile.quantile medians ~q:0.975 )
  end

(* The smallest p-value Mann–Whitney can give samples of these sizes:
   the one of a complete separation, every [cand] above every [base]. *)
let min_p ~n_base ~n_cand =
  snd
    (Sf_stats.Tests.mann_whitney_u (Array.init n_base float_of_int)
       (Array.init n_cand (fun i -> float_of_int (n_base + i))))

let samples policy ~unit_label ~name ~base ~cand =
  if Array.length base = 0 || Array.length cand = 0 then
    invalid_arg "Compare.samples: empty sample";
  let base_median = Sf_stats.Quantile.median base in
  let cand_median = Sf_stats.Quantile.median cand in
  let change_pct =
    if base_median > 0. then ((cand_median /. base_median) -. 1.) *. 100.
    else if cand_median > 0. then Float.infinity
    else 0.
  in
  let base_ci = bootstrap_median_ci policy base in
  let cand_ci = bootstrap_median_ci policy cand in
  let u, p = Sf_stats.Tests.mann_whitney_u base cand in
  (* samples too short to ever clear alpha drop the test, or a
     3-sample series could never flag *)
  let significant =
    p < policy.alpha
    || min_p ~n_base:(Array.length base) ~n_cand:(Array.length cand) >= policy.alpha
  in
  let base_lo, base_hi = base_ci in
  let cand_lo, cand_hi = cand_ci in
  let verdict =
    if change_pct > policy.noise_floor_pct && significant && cand_lo > base_hi then Regressed
    else if change_pct < -.policy.noise_floor_pct && significant && cand_hi < base_lo then
      Improved
    else Unchanged
  in
  { name; unit_label; base_median; cand_median; change_pct; base_ci; cand_ci; u; p; verdict }

type file_comparison = {
  results : result list;
  only_base : string list;
  only_cand : string list;
}

let files policy ~base ~cand =
  let results =
    List.filter_map
      (fun (b : Bench_file.benchmark) ->
        Bench_file.find cand b.name
        |> Option.map (fun (c : Bench_file.benchmark) ->
               samples policy ~unit_label:b.unit_label ~name:b.name ~base:b.samples
                 ~cand:c.samples))
      base.Bench_file.benchmarks
  in
  let only_base =
    List.filter (fun n -> Bench_file.find cand n = None) (Bench_file.names base)
  in
  let only_cand =
    List.filter (fun n -> Bench_file.find base n = None) (Bench_file.names cand)
  in
  { results; only_base; only_cand }

let verdict_label = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "REGRESSED"

let fmt_ns ns =
  if Float.is_nan ns then "-"
  else if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

let fmt_value ~unit_label v =
  match unit_label with
  | "ns" -> fmt_ns v
  | "bytes" -> Printf.sprintf "%.2f MB" (v /. 1048576.)
  | u -> Printf.sprintf "%.4g %s" v u

let render results =
  Sf_stats.Table.render
    ~aligns:
      [
        Sf_stats.Table.Left; Sf_stats.Table.Right; Sf_stats.Table.Right;
        Sf_stats.Table.Right; Sf_stats.Table.Right; Sf_stats.Table.Left;
      ]
    ~headers:[ "benchmark"; "base"; "candidate"; "change"; "p"; "verdict" ]
    ~rows:
      (List.map
         (fun r ->
           [
             r.name;
             fmt_value ~unit_label:r.unit_label r.base_median;
             fmt_value ~unit_label:r.unit_label r.cand_median;
             Printf.sprintf "%+.1f%%" r.change_pct;
             Printf.sprintf "%.3f" r.p;
             verdict_label r.verdict;
           ])
         results)
    ()
