type policy = { compare : Compare.policy; max_regression_pct : float }

let default_policy = { compare = Compare.default_policy; max_regression_pct = 10.0 }

type outcome = {
  comparison : Compare.file_comparison;
  failures : Compare.result list;
  missing : string list;
  mode_mismatch : (string * string) option;
  host_mismatch : (string * string) option;
}

let run policy ~base ~cand =
  let comparison = Compare.files policy.compare ~base ~cand in
  let failures =
    List.filter
      (fun (r : Compare.result) ->
        r.verdict = Compare.Regressed && r.change_pct > policy.max_regression_pct)
      comparison.results
  in
  let mode_mismatch =
    if base.Bench_file.mode <> cand.Bench_file.mode then
      Some (base.Bench_file.mode, cand.Bench_file.mode)
    else None
  in
  let host_mismatch =
    let h (f : Bench_file.t) =
      Printf.sprintf "%s/%s/%d-bit" f.host.hostname f.host.os f.host.word_size
    in
    if h base <> h cand then Some (h base, h cand) else None
  in
  { comparison; failures; missing = comparison.only_base; mode_mismatch; host_mismatch }

let passed o = o.failures = [] && o.missing = [] && o.mode_mismatch = None

let render o =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Compare.render o.comparison.results);
  (match o.host_mismatch with
  | Some (base, cand) ->
    Buffer.add_string b
      (Printf.sprintf "note: hosts differ (baseline %s, candidate %s); medians compared anyway\n"
         base cand)
  | None -> ());
  if o.comparison.only_cand <> [] then
    Buffer.add_string b
      (Printf.sprintf "note: %d new benchmark(s) not in the baseline: %s\n"
         (List.length o.comparison.only_cand)
         (String.concat ", " o.comparison.only_cand));
  (match o.mode_mismatch with
  | Some (base, cand) ->
    Buffer.add_string b
      (Printf.sprintf "FAIL: mode mismatch (baseline %S, candidate %S) — timings not comparable\n"
         base cand)
  | None -> ());
  if o.missing <> [] then
    Buffer.add_string b
      (Printf.sprintf "FAIL: %d baseline benchmark(s) missing from the candidate: %s\n"
         (List.length o.missing)
         (String.concat ", " o.missing));
  List.iter
    (fun (r : Compare.result) ->
      Buffer.add_string b
        (Printf.sprintf "FAIL: %s regressed %+.1f%% (%s -> %s, p=%.4f)\n" r.name r.change_pct
           (Compare.fmt_value ~unit_label:r.unit_label r.base_median)
           (Compare.fmt_value ~unit_label:r.unit_label r.cand_median)
           r.p))
    o.failures;
  Buffer.add_string b
    (if passed o then "perf gate: PASS\n" else "perf gate: FAIL\n");
  Buffer.contents b
