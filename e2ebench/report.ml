(* Metrics and checks of one workload run, and their three renderings:
   [workload metric value unit] lines, the one-line JSON result, and
   samples for a scalefree.bench/1 history file. *)

type metric = {
  name : string;
  value : float;
  unit_ : string;
  n : int option;  (** sample count of a percentile or mean *)
}

type t = {
  workload : string;
  mutable metrics : metric list;  (** newest first *)
  mutable checks : (string * bool * string) list;  (** newest first *)
  mutable attempted : int;
  mutable failed : int;
  mutable per_op_ns : float array;
      (** lower-is-better throughput series for the history file:
          1e9 / per-window rate *)
}

(* The metric sets the JSON result carries, in BENCHMARK.json order:
   end-to-end for an untraced run, per-layer for a traced one. Every
   workload measures all of them; metrics of one workload only (server
   stages, fabric checkpoints, ladder rungs) are printed as lines. *)
let e2e_names = [ "setup_s"; "throughput_per_s"; "cpu_ms_per_op"; "rss_peak_mb" ]

(* The latencies head this list, not the one above. Over ten seeds the
   serve_open p50 spread 22% to 24% and the p99 34% to 74%, at or past
   the largest bound a metric may have (25%); in a closed loop the p50
   follows from the throughput and the window. *)
let layer_names =
  [
    "latency_p50_ms"; "latency_p99_ms"; "oracle.setup_us_p50"; "oracle.setup_us_p90"; "oracle.setup_alloc_kb"; "oracle.ns_per_request";
    "search.step_us_p50"; "search.step_us_p90"; "gc.alloc_mb_per_op"; "gc.major_per_kop";
    "gen.graph_ms"; "wire.decode_us"; "wire.encode_us"; "wire.bytes_per_op"; "share.oracle.setup";
    "share.search.step"; "share.wire"; "trace.overhead_pct"; "oracle.requests_per_query";
    "search.found_ratio"; "search.cost_over_sqrt_n"; "search.oracle_req_per_s"; "pool.busy_ratio";
    "fail_pct";
  ]

let create workload =
  { workload; metrics = []; checks = []; attempted = 0; failed = 0; per_op_ns = [||] }

let add ?n r name value unit_ = r.metrics <- { name; value; unit_; n } :: r.metrics

(* A percentile with its sample count. *)
let add_pct r name xs q ~scale unit_ =
  let n = Array.length xs in
  add ~n r name (if n = 0 then 0. else Util.quantile xs q *. scale) unit_

let check r name ok detail = r.checks <- (name, ok, detail) :: r.checks
let correct r = List.for_all (fun (_, ok, _) -> ok) r.checks && r.failed = 0

let find r name = List.find_opt (fun m -> m.name = name) r.metrics

let fmt_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let lines ?(checks_only = false) r =
  let ms =
    if checks_only then []
    else
      List.rev_map
        (fun m ->
          Printf.sprintf "%s %s %s %s%s" r.workload m.name (fmt_value m.value) m.unit_
            (match m.n with Some n -> Printf.sprintf " n=%d" n | None -> ""))
        r.metrics
  in
  let cs =
    List.rev_map
      (fun (name, ok, detail) ->
        Printf.sprintf "%s check.%s %s %s" r.workload name (if ok then "ok" else "FAIL") detail)
      r.checks
  in
  ms @ cs

let json_metrics ?(prefix = "") r names =
  List.map
    (fun name ->
      match find r name with
      | Some m ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
          (Sf_obs.Export.json_string (prefix ^ name))
          (Printf.sprintf "%.17g" m.value) (Sf_obs.Export.json_string m.unit_)
      | None -> failwith (Printf.sprintf "%s: metric %s was not measured" r.workload name))
    names

(* The last line of a run: one JSON object with correct, attempted,
   failed and metrics. *)
let result_json ~traced rs =
  let names = if traced then layer_names else e2e_names in
  let prefixed = List.length rs > 1 in
  let metrics =
    List.concat_map
      (fun r -> json_metrics ~prefix:(if prefixed then r.workload ^ "/" else "") r names)
      rs
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (List.for_all correct rs)
    (List.fold_left (fun a r -> a + r.attempted) 0 rs)
    (List.fold_left (fun a r -> a + r.failed) 0 rs)
    (String.concat ", " metrics)

(* One end-to-end metric as a lower-is-better ns series (bytes for
   memory), the form sfbench compare/report/gate read. *)
let history_sample r name =
  match find r name with
  | None -> None
  | Some m ->
    let v = m.value in
    Some
      (match name with
      | "setup_s" -> ("ns", [| v *. 1e9 |])
      | "throughput_per_s" ->
        ("ns", if r.per_op_ns <> [||] then r.per_op_ns else [| 1e9 /. v |])
      | "cpu_ms_per_op" -> ("ns", [| v *. 1e6 |])
      | "rss_peak_mb" -> ("bytes", [| v *. 1048576. |])
      | _ -> ("ns", [| v |]))
