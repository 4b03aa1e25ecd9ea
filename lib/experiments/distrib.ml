(* Experiment fan-out over worker processes: the Sf_fabric.Swarm
   driving one experiment per Assign, for machines where domains
   cannot help (a runaway experiment wedging the GC, rough memory
   isolation) or where crash-tolerance matters more than latency.

   Jobs are experiment ids; Done bodies carry the rendered result plus
   the worker's registry counter deltas.  Deltas are applied to the
   coordinator's registry in job-index order after the run completes,
   so final counter totals match a sequential run regardless of which
   worker finished first — the same determinism contract run_all gives
   for domains (doc/PARALLELISM.md). *)

module Varint = Sf_store.Varint

let encode_done (result : Exp.result) ~counters =
  let buf = Buffer.create 1024 in
  Varint.write_string buf result.Exp.id;
  Varint.write_string buf result.Exp.title;
  Varint.write_string buf result.Exp.output;
  Varint.write buf (List.length result.Exp.checks);
  List.iter
    (fun (name, ok) ->
      Varint.write_string buf name;
      Buffer.add_char buf (if ok then '\001' else '\000'))
    result.Exp.checks;
  Varint.write buf (List.length counters);
  List.iter
    (fun (name, v) ->
      Varint.write_string buf name;
      Varint.write buf v)
    counters;
  Buffer.contents buf

let decode_done data =
  let limit = String.length data in
  let id, pos = Varint.read_string data ~limit ~pos:0 in
  let title, pos = Varint.read_string data ~limit ~pos in
  let output, pos = Varint.read_string data ~limit ~pos in
  let n_checks, pos = Varint.read data ~pos in
  let pos = ref pos in
  let checks =
    List.init n_checks (fun _ ->
        let name, p = Varint.read_string data ~limit ~pos:!pos in
        if p >= limit then failwith "Distrib: truncated checks";
        pos := p + 1;
        (name, data.[p] = '\001'))
  in
  let n_counters, p = Varint.read data ~pos:!pos in
  pos := p;
  let counters =
    List.init n_counters (fun _ ->
        let name, p = Varint.read_string data ~limit ~pos:!pos in
        let v, p = Varint.read data ~pos:p in
        pos := p;
        (name, v))
  in
  ({ Exp.id; title; output; checks }, counters)

(* every registry counter — unlike the fabric grid there is no
   persisted-outcome boundary to respect, a Done body accounts the
   whole experiment *)
let counters_snapshot () =
  List.filter_map
    (fun (name, m) ->
      match m with Sf_obs.Registry.Counter c -> Some (name, Sf_obs.Counter.value c) | _ -> None)
    (Sf_obs.Registry.all ())

let counters_delta ~base now =
  List.filter_map
    (fun (name, v) ->
      let b = Option.value (List.assoc_opt name base) ~default:0 in
      if v > b then Some (name, v - b) else None)
    now

let run_all_processes ~sock_path ~workers ~spawn entries =
  let entries = Array.of_list entries in
  let n = Array.length entries in
  let results : (Exp.result * (string * int) list) option array = Array.make n None in
  let outcome, (_ : Sf_fabric.Swarm.report) =
    Sf_fabric.Swarm.run ~who:"Distrib.run_all_processes" ~sock_path ~workers:(min workers n)
      ~spawn
      ~pending:(List.init n Fun.id)
      ~assign_body:(fun job -> entries.(job).Registry.id)
      ~on_done:(fun ~job ~body -> results.(job) <- Some (decode_done body))
      ()
  in
  (match outcome with `Complete -> () | `Stopped_early -> assert false);
  Array.to_list
    (Array.mapi
       (fun i entry ->
         match results.(i) with
         | None -> failwith (Printf.sprintf "Distrib: no result for %s" entry.Registry.id)
         | Some (result, counters) ->
           (* job-index order: counter totals independent of finish order *)
           List.iter
             (fun (name, v) -> Sf_obs.Counter.add (Sf_obs.Registry.counter name) v)
             counters;
           (entry, result))
       entries)

let worker_main ~connect ~quick ~seed =
  Sf_fabric.Swarm.worker_loop ~connect ~handle:(fun ~job:_ ~body ~progress:_ ~telemetry:_ ->
      match Registry.find body with
      | None -> failwith (Printf.sprintf "Distrib worker: unknown experiment %s" body)
      | Some entry ->
        let base = counters_snapshot () in
        let result = entry.Registry.run ~quick ~seed in
        encode_done result ~counters:(counters_delta ~base (counters_snapshot ())))
