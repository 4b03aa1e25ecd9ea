(* Observability: per-run aggregates; per-request counting and the
   per-request "search.request" trace events live in Oracle. Strategy
   names may contain characters the metric grammar rejects ('+',
   parentheses), so they are sanitised. *)
let obs_runs = Sf_obs.Registry.counter "search.runs"
let obs_gave_up = Sf_obs.Registry.counter "search.gave_up"
let obs_budget_exhausted = Sf_obs.Registry.counter "search.budget_exhausted"
let obs_run_timer = Sf_obs.Registry.timer "search.run_s"
let obs_requests_per_run = Sf_obs.Registry.histo "search.requests_per_run"

let metric_component s =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> c | _ -> '_')
    s

(* search.strategy.<name>.requests, resolved once per strategy name:
   the registry's get-or-create takes a global mutex, so runs read this
   lock-free map instead. Get-or-create returns one counter per name,
   so a lost compare-and-set only means a later run resolves it again. *)
module Names = Map.Make (String)

let strategy_counters : Sf_obs.Counter.t Names.t Atomic.t = Atomic.make Names.empty

let strategy_counter name =
  match Names.find_opt name (Atomic.get strategy_counters) with
  | Some c -> c
  | None ->
    let c =
      Sf_obs.Registry.counter ("search.strategy." ^ metric_component name ^ ".requests")
    in
    let known = Atomic.get strategy_counters in
    ignore (Atomic.compare_and_set strategy_counters known (Names.add name c known));
    c

type outcome = {
  strategy : string;
  n_vertices : int;
  total_requests : int;
  to_target : int option;
  to_neighbor : int option;
  discovered : int;
  gave_up : bool;
}

type stop_rule = At_target | At_neighbor

let stopped stop_at oracle =
  match stop_at with
  | At_target -> Oracle.target_found oracle
  | At_neighbor -> Oracle.requests_when_neighbor oracle <> None

type trace_event = {
  index : int;
  kind : [ `Weak_edge | `Strong_vertex ];
  at : int;
  revealed : int list;
  discovered_total : int;
}

let run ?budget ?(stop_at = At_target) ~rng (strategy : Strategy.t) oracle =
  if strategy.Strategy.model <> Oracle.model oracle then
    invalid_arg "Runner.run: strategy and oracle use different knowledge models";
  let budget =
    match budget with Some b -> b | None -> (4 * Oracle.n_vertices oracle) + 64
  in
  let stepper = strategy.Strategy.prepare (Sf_prng.Rng.split rng) oracle in
  let gave_up = ref false in
  let continue = ref true in
  let requests_before = Oracle.requests oracle in
  let obs = Sf_obs.Registry.enabled () in
  let t0 = if obs then Sf_obs.Timer.now_s () else 0. in
  while !continue && (not (stopped stop_at oracle)) && Oracle.requests oracle < budget do
    match stepper () with
    | Strategy.Request_edge (owner, h) -> ignore (Oracle.request_weak oracle ~owner h)
    | Strategy.Request_vertex v -> ignore (Oracle.request_strong oracle v)
    | Strategy.Give_up ->
      gave_up := true;
      continue := false
  done;
  if !gave_up then
    Sf_obs.Trace.instant "search.gave_up"
      ~args:
        [
          ("strategy", Sf_obs.Trace.Str strategy.Strategy.name);
          ("requests", Sf_obs.Trace.Int (Oracle.requests oracle - requests_before));
          ("discovered", Sf_obs.Trace.Int (Oracle.discovered_count oracle));
        ];
  if obs then begin
    Sf_obs.Timer.add_s obs_run_timer (Sf_obs.Timer.now_s () -. t0);
    let paid = Oracle.requests oracle - requests_before in
    Sf_obs.Counter.incr obs_runs;
    if !gave_up then Sf_obs.Counter.incr obs_gave_up;
    if Oracle.requests oracle >= budget && not (stopped stop_at oracle) then
      Sf_obs.Counter.incr obs_budget_exhausted;
    Sf_obs.Histo.observe_int obs_requests_per_run paid;
    Sf_obs.Counter.add (strategy_counter strategy.Strategy.name) paid
  end;
  {
    strategy = strategy.Strategy.name;
    n_vertices = Oracle.n_vertices oracle;
    total_requests = Oracle.requests oracle;
    to_target = Oracle.requests_when_found oracle;
    to_neighbor = Oracle.requests_when_neighbor oracle;
    discovered = Oracle.discovered_count oracle;
    gave_up = !gave_up;
  }

(* run_traced replays the oracle's "search.request" stream events back
   into the record shape the CSV exporter renders: a temporary
   collector sink, attached for exactly the duration of the run. *)

let trace_event_of_stream (e : Sf_obs.Trace.event) =
  let int key =
    match List.assoc_opt key e.Sf_obs.Trace.args with Some (Sf_obs.Trace.Int i) -> i | _ -> 0
  in
  let kind =
    match List.assoc_opt "kind" e.Sf_obs.Trace.args with
    | Some (Sf_obs.Trace.Str "strong-vertex") -> `Strong_vertex
    | _ -> `Weak_edge
  in
  let revealed =
    match List.assoc_opt "revealed" e.Sf_obs.Trace.args with
    | Some (Sf_obs.Trace.Ints l) -> l
    | _ -> []
  in
  {
    index = int "index";
    kind;
    at = int "at";
    revealed;
    discovered_total = int "discovered_total";
  }

let run_traced ?budget ?stop_at ~rng strategy oracle =
  let collected = ref [] in
  let id =
    Sf_obs.Trace.attach
      {
        Sf_obs.Trace.descr = "runner.run_traced";
        emit =
          (fun e ->
            if e.Sf_obs.Trace.name = Oracle.request_event_name then
              collected := e :: !collected);
        close = (fun () -> ());
      }
  in
  let outcome =
    Fun.protect
      ~finally:(fun () -> Sf_obs.Trace.detach id)
      (fun () -> run ?budget ?stop_at ~rng strategy oracle)
  in
  (outcome, List.rev_map trace_event_of_stream !collected)

let trace_to_csv events =
  Sf_stats.Csv.to_string
    ~header:[ "index"; "kind"; "at"; "revealed"; "discovered_total" ]
    ~rows:
      (List.map
         (fun e ->
           [
             string_of_int e.index;
             (match e.kind with `Weak_edge -> "weak-edge" | `Strong_vertex -> "strong-vertex");
             string_of_int e.at;
             String.concat ";" (List.map string_of_int e.revealed);
             string_of_int e.discovered_total;
           ])
         events)

let search ?obfuscate ?budget ?stop_at ~rng g (strategy : Strategy.t) ~source ~target =
  let oracle =
    Oracle.start ?obfuscate ~rng strategy.Strategy.model g ~source ~target
  in
  Fun.protect
    ~finally:(fun () -> Oracle.release oracle)
    (fun () -> run ?budget ?stop_at ~rng strategy oracle)
