(* The sharded grid: what a fabric run is *of*.

   A grid is a searchability measurement (model x sizes x strategies x
   trials, one master seed) plus a shard plan: a partition of the
   flattened task range [0, n_tasks) into contiguous [lo, hi) slices.
   The plan is persisted in DIR/grid.sfg (binary, scalefree.grid/1,
   strict codec) when a run starts and reloaded verbatim on resume, so
   shard boundaries never move once trials have been checkpointed —
   resuming with a different --workers count redistributes shards, not
   tasks.  A human-readable mirror goes to DIR/grid.json (write-only).

   Everything downstream is a pure function of the plan: worker
   processes run Searchability.run_grid_task over their slice, the
   coordinator concatenates slices in task order and feeds
   Searchability.aggregate — the same code path Searchability.measure
   uses in-process, which is the whole byte-identity argument
   (doc/FABRIC.md). *)

module Rng = Sf_prng.Rng
module S = Sf_core.Searchability
module Varint = Sf_store.Varint
module Crc32 = Sf_store.Crc32
module E = Sf_store.Codec_error

type spec = {
  gs_model : string;
  gs_p : float;
  gs_m : int;
  gs_alpha : float;
  gs_exponent : float;
  gs_sizes : int list;
  gs_strategies : string list;
  gs_trials : int;
  gs_metric : [ `Neighbor | `Target ];
  gs_source : [ `Oldest | `Random ];
  gs_budget_mul : int;
  gs_budget_add : int;
  gs_seed : int;
}

type plan = { p_spec : spec; p_shards : (int * int) array }

let core_spec spec =
  {
    S.trials = spec.gs_trials;
    S.metric = (match spec.gs_metric with `Neighbor -> S.To_neighbor | `Target -> S.To_target);
    S.budget = (fun n -> (spec.gs_budget_mul * n) + spec.gs_budget_add);
    S.source = (spec.gs_source :> [ `Oldest | `Random ]);
  }

let make_of_spec spec =
  match
    S.instance_of_model spec.gs_model ~p:spec.gs_p ~m:spec.gs_m ~alpha:spec.gs_alpha
      ~exponent:spec.gs_exponent
  with
  | Ok make -> make
  | Error msg -> invalid_arg ("Grid: " ^ msg)

let strategies_of_spec spec =
  let all =
    Sf_search.Strategies.weak_portfolio ()
    @ Sf_search.Strategies.strong_portfolio ()
    @ [ Sf_search.Strategies.random_edge ~skip_known:false ]
  in
  List.map
    (fun name ->
      match List.find_opt (fun s -> s.Sf_search.Strategy.name = name) all with
      | Some s -> s
      | None ->
        invalid_arg
          (Printf.sprintf "Grid: unknown strategy %s (known: %s)" name
             (String.concat ", " (List.map (fun s -> s.Sf_search.Strategy.name) all))))
    spec.gs_strategies

let n_tasks spec =
  S.n_grid_tasks ~sizes:spec.gs_sizes ~strategies:spec.gs_strategies ~spec:(core_spec spec)

let validate spec =
  if spec.gs_sizes = [] then invalid_arg "Grid: need at least one size";
  if spec.gs_strategies = [] then invalid_arg "Grid: need at least one strategy";
  let (_ : Rng.t -> int -> Sf_graph.Ugraph.t * int) = make_of_spec spec in
  let (_ : Sf_search.Strategy.t list) = strategies_of_spec spec in
  S.validate_grid ~sizes:spec.gs_sizes ~spec:(core_spec spec)

let rng_token spec = Rng.state_fingerprint (Rng.of_seed spec.gs_seed)

let make_plan ~shards spec =
  validate spec;
  let n = n_tasks spec in
  if shards < 1 then invalid_arg "Grid: need at least one shard";
  let shards = min shards n in
  let base = n / shards and rem = n mod shards in
  let plan = Array.make shards (0, 0) in
  let lo = ref 0 in
  for i = 0 to shards - 1 do
    let len = base + if i < rem then 1 else 0 in
    plan.(i) <- (!lo, !lo + len);
    lo := !lo + len
  done;
  { p_spec = spec; p_shards = plan }

(* ------------------------------------------------------------------ *)
(* Plan codec (scalefree.grid/1)                                       *)
(* ------------------------------------------------------------------ *)

let magic = "SFGR"
let version = 1

let encode plan =
  let s = plan.p_spec in
  let buf = Buffer.create 256 in
  Buffer.add_string buf magic;
  Buffer.add_char buf (Char.chr version);
  Varint.write_signed buf s.gs_seed;
  Varint.write buf (String.length s.gs_model);
  Buffer.add_string buf s.gs_model;
  let b8 = Bytes.create 8 in
  let add_float f =
    Bytes.set_int64_le b8 0 (Int64.bits_of_float f);
    Buffer.add_bytes buf b8
  in
  add_float s.gs_p;
  Varint.write buf s.gs_m;
  add_float s.gs_alpha;
  add_float s.gs_exponent;
  Buffer.add_char buf (match s.gs_metric with `Neighbor -> '\000' | `Target -> '\001');
  Buffer.add_char buf (match s.gs_source with `Oldest -> '\000' | `Random -> '\001');
  Varint.write buf s.gs_budget_mul;
  Varint.write_signed buf s.gs_budget_add;
  Varint.write buf s.gs_trials;
  Varint.write buf (List.length s.gs_sizes);
  List.iter (Varint.write buf) s.gs_sizes;
  Varint.write buf (List.length s.gs_strategies);
  List.iter (Varint.write_string buf) s.gs_strategies;
  Varint.write buf (Array.length plan.p_shards);
  Array.iter
    (fun (lo, hi) ->
      Varint.write buf lo;
      Varint.write buf hi)
    plan.p_shards;
  Crc32.seal buf

let read_byte s ~limit ~pos ~what =
  if pos >= limit then E.fail (E.Truncated what);
  (Char.code s.[pos], pos + 1)

let decode data =
  let len = String.length data in
  if len < 9 then E.fail (E.Truncated "grid plan");
  if String.sub data 0 4 <> magic then E.fail E.Bad_magic;
  let v = Char.code data.[4] in
  if v <> version then E.fail (E.Unsupported_version v);
  let limit = Crc32.check_sealed data in
  let pos = 5 in
  let seed, pos = Varint.read_signed data ~pos in
  let model, pos = Varint.read_string data ~limit ~pos in
  let read_float pos =
    if pos + 8 > limit then E.fail (E.Truncated "float");
    (Int64.float_of_bits (String.get_int64_le data pos), pos + 8)
  in
  let p, pos = read_float pos in
  let m, pos = Varint.read data ~pos in
  let alpha, pos = read_float pos in
  let exponent, pos = read_float pos in
  let metric_b, pos = read_byte data ~limit ~pos ~what:"metric" in
  let metric =
    match metric_b with
    | 0 -> `Neighbor
    | 1 -> `Target
    | b -> E.fail (E.Malformed (Printf.sprintf "metric byte %d" b))
  in
  let source_b, pos = read_byte data ~limit ~pos ~what:"source" in
  let source =
    match source_b with
    | 0 -> `Oldest
    | 1 -> `Random
    | b -> E.fail (E.Malformed (Printf.sprintf "source byte %d" b))
  in
  let budget_mul, pos = Varint.read data ~pos in
  let budget_add, pos = Varint.read_signed data ~pos in
  let trials, pos = Varint.read data ~pos in
  let n_sizes, pos = Varint.read data ~pos in
  if n_sizes < 0 then E.fail (E.Malformed "size count");
  let pos = ref pos in
  let sizes =
    List.init n_sizes (fun _ ->
        let v, p = Varint.read data ~pos:!pos in
        pos := p;
        v)
  in
  let n_strats, sp = Varint.read data ~pos:!pos in
  if n_strats < 0 then E.fail (E.Malformed "strategy count");
  pos := sp;
  let strategies =
    List.init n_strats (fun _ ->
        let v, p = Varint.read_string data ~limit ~pos:!pos in
        pos := p;
        v)
  in
  let n_shards, hp = Varint.read data ~pos:!pos in
  if n_shards < 0 then E.fail (E.Malformed "shard count");
  pos := hp;
  let shards =
    Array.init n_shards (fun _ ->
        let lo, p1 = Varint.read data ~pos:!pos in
        let hi, p2 = Varint.read data ~pos:p1 in
        if lo > hi then E.fail (E.Malformed "shard range");
        pos := p2;
        (lo, hi))
  in
  if !pos <> limit then
    E.fail (E.Malformed (Printf.sprintf "%d trailing byte(s)" (limit - !pos)));
  let spec =
    {
      gs_model = model;
      gs_p = p;
      gs_m = m;
      gs_alpha = alpha;
      gs_exponent = exponent;
      gs_sizes = sizes;
      gs_strategies = strategies;
      gs_trials = trials;
      gs_metric = metric;
      gs_source = source;
      gs_budget_mul = budget_mul;
      gs_budget_add = budget_add;
      gs_seed = seed;
    }
  in
  (* shards must partition [0, n_tasks) exactly *)
  let n = n_tasks spec in
  let covered = ref 0 in
  Array.iter
    (fun (lo, hi) ->
      if lo <> !covered then E.fail (E.Malformed "shards do not tile the task range");
      covered := hi)
    shards;
  if !covered <> n then E.fail (E.Malformed "shards do not cover the task range");
  { p_spec = spec; p_shards = shards }

(* ------------------------------------------------------------------ *)
(* Directory layout                                                    *)
(* ------------------------------------------------------------------ *)

let plan_path dir = Filename.concat dir "grid.sfg"
let json_path dir = Filename.concat dir "grid.json"
let shards_dir dir = Filename.concat dir "shards"
let shard_path dir i = Filename.concat (shards_dir dir) (Printf.sprintf "shard-%04d.ckpt" i)
let csv_path dir = Filename.concat dir "measure.csv"
let manifest_path dir = Filename.concat dir "manifest.json"
let sock_path dir = Filename.concat dir "fabric.sock"

let write_file_atomic path data =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let oc = open_out_bin tmp in
  (try
     output_string oc data;
     close_out oc
   with e ->
     (try close_out_noerr oc with _ -> ());
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

(* --- JSON rendering (deterministic, hand-rolled) ------------------- *)

let jstr = Sf_obs.Export.json_string
let jfloat f = jstr (Printf.sprintf "%.17g" f)

let spec_json s =
  Printf.sprintf
    "{\"model\": %s, \"p\": %s, \"m\": %d, \"alpha\": %s, \"exponent\": %s, \"sizes\": [%s], \
     \"strategies\": [%s], \"trials\": %d, \"metric\": %s, \"source\": %s, \"budget\": [%d, \
     %d], \"seed\": %d}"
    (jstr s.gs_model) (jfloat s.gs_p) s.gs_m (jfloat s.gs_alpha) (jfloat s.gs_exponent)
    (String.concat ", " (List.map string_of_int s.gs_sizes))
    (String.concat ", " (List.map jstr s.gs_strategies))
    s.gs_trials
    (jstr (match s.gs_metric with `Neighbor -> "neighbor" | `Target -> "target"))
    (jstr (match s.gs_source with `Oldest -> "oldest" | `Random -> "random"))
    s.gs_budget_mul s.gs_budget_add s.gs_seed

let shards_json plan =
  plan.p_shards |> Array.to_list
  |> List.map (fun (lo, hi) -> Printf.sprintf "[%d, %d]" lo hi)
  |> String.concat ", "

let write_plan ~dir plan =
  mkdir_p dir;
  mkdir_p (shards_dir dir);
  write_file_atomic (plan_path dir) (encode plan);
  write_file_atomic (json_path dir)
    (Printf.sprintf "{\"schema\": \"scalefree.grid/1\", \"grid\": %s, \"n_tasks\": %d, \
                     \"shards\": [%s]}\n"
       (spec_json plan.p_spec) (n_tasks plan.p_spec) (shards_json plan))

let load_plan ~dir =
  let path = plan_path dir in
  if not (Sys.file_exists path) then
    failwith (Printf.sprintf "no grid plan at %s (is this a fabric run directory?)" path);
  let data =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  (decode data, Crc32.string data)

let plan_crc plan = Crc32.string (encode plan)

(* ------------------------------------------------------------------ *)
(* Deterministic outputs                                               *)
(* ------------------------------------------------------------------ *)

let outcomes_crc outcomes =
  let buf = Buffer.create (9 * Array.length outcomes) in
  let b8 = Bytes.create 8 in
  Array.iter
    (fun (cost, truncated, gave_up) ->
      Bytes.set_int64_le b8 0 (Int64.bits_of_float cost);
      Buffer.add_bytes buf b8;
      Buffer.add_char buf
        (Char.chr ((if truncated then 1 else 0) lor if gave_up then 2 else 0)))
    outcomes;
  Crc32.string (Buffer.contents buf)

let search_prefix = "search."

let is_search name =
  String.length name >= String.length search_prefix
  && String.sub name 0 (String.length search_prefix) = search_prefix

let point_json (pt : S.point) =
  Printf.sprintf
    "{\"n\": %d, \"strategy\": %s, \"trials\": %d, \"mean\": %s, \"ci95\": %s, \"median\": \
     %s, \"q90\": %s, \"timeouts\": %d, \"gave_up\": %d}"
    pt.S.n (jstr pt.S.strategy) pt.S.trials
    (jstr (Printf.sprintf "%.6g" pt.S.mean))
    (jstr (Printf.sprintf "%.6g" pt.S.ci95))
    (jstr (Printf.sprintf "%.6g" pt.S.median))
    (jstr (Printf.sprintf "%.6g" pt.S.q90))
    pt.S.timeouts pt.S.gave_up

(* The deterministic manifest: byte-identical at any worker count and
   across any crash/resume history.  It describes the measurement, not
   the execution — the shard plan stays in grid.json, because shard
   counts legitimately differ between a sequential and a distributed
   run of the same grid.  Counters are restricted to the search.*
   family — generation and cache counters legitimately differ between
   crash histories when a corpus cache is configured (a re-run trial
   hits where the first run missed), while search.* counters are a
   function of the trials whose outcomes were persisted. *)
let manifest plan ~outcomes ~counters ~points =
  let counters = List.filter (fun (name, _) -> is_search name) counters in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"schema\": \"scalefree.fabric/1\",\n";
  Buffer.add_string buf (Printf.sprintf " \"grid\": %s,\n" (spec_json plan.p_spec));
  Buffer.add_string buf (Printf.sprintf " \"n_tasks\": %d,\n" (n_tasks plan.p_spec));
  Buffer.add_string buf
    (Printf.sprintf " \"outcomes_crc32\": \"0x%08lx\",\n" (outcomes_crc outcomes));
  Buffer.add_string buf
    (Printf.sprintf " \"counters\": {%s},\n"
       (String.concat ", "
          (List.map (fun (name, v) -> Printf.sprintf "%s: %d" (jstr name) v) counters)));
  Buffer.add_string buf
    (Printf.sprintf " \"points\": [%s]}\n" (String.concat ",\n  " (List.map point_json points)));
  Buffer.contents buf

let write_outputs ~dir plan ~outcomes ~counters =
  let spec = plan.p_spec in
  let points =
    S.aggregate ~sizes:spec.gs_sizes ~strategies:spec.gs_strategies ~spec:(core_spec spec)
      outcomes
  in
  write_file_atomic (csv_path dir) (S.points_to_csv points);
  write_file_atomic (manifest_path dir) (manifest plan ~outcomes ~counters ~points);
  points
