(* One domain's observability output for one parallel task: the
   Capture buffer it filled.  The pool brackets every task in [capture]
   and folds the shards back with [merge] in task-index order at the
   join barrier — that fixed fold order is what makes metric totals and
   the event stream deterministic for a fixed seed at any job count
   (doc/PARALLELISM.md). *)

type t = Capture.buf

let capturing = Capture.capturing

let capture f =
  let s = Domain.DLS.get Capture.slot in
  let prev = !s in
  let buf = Capture.empty () in
  s := Some buf;
  match f () with
  | v ->
    s := prev;
    (v, buf)
  | exception exn ->
    (* a failed task's observations are discarded: merging a partial
       shard would make totals depend on where the exception struck *)
    let bt = Printexc.get_raw_backtrace () in
    s := prev;
    Printexc.raise_with_backtrace exn bt

(* The merge rule of each kind, the table in doc/PARALLELISM.md.  Each
   target is resolved again, so a shard merged inside another capture
   lands in that capture's shadows and nested captures compose; the
   lists are walked in first-touch order. *)
let merge (s : t) =
  let open Capture in
  let cur = !(Domain.DLS.get slot) in
  let cell shadow t = match cur with None -> t | Some b -> shadow b t in
  List.iter
    (fun (t, d) ->
      let c = cell counter t in
      c.n <- c.n + d.n)
    (List.rev s.counters);
  List.iter
    (fun (t, d) ->
      let c = cell timer t in
      c.total <- c.total +. d.total;
      c.count <- c.count + d.count)
    (List.rev s.timers);
  List.iter
    (fun (t, d) ->
      let c = cell histo t in
      Array.iteri (fun i k -> c.counts.(i) <- c.counts.(i) + k) d.counts;
      if c.h_count = 0 then begin
        c.stats.(1) <- d.stats.(1);
        c.stats.(2) <- d.stats.(2)
      end
      else begin
        if d.stats.(1) < c.stats.(1) then c.stats.(1) <- d.stats.(1);
        if d.stats.(2) > c.stats.(2) then c.stats.(2) <- d.stats.(2)
      end;
      c.h_count <- c.h_count + d.h_count;
      c.stats.(0) <- c.stats.(0) +. d.stats.(0))
    (List.rev s.histos);
  List.iter
    (fun (t, d) ->
      let c = cell gauge t in
      c.g_value <- d.g_value;
      c.g_set <- true)
    (List.rev s.gauges);
  Trace.replay (List.rev s.events)

(* The cross-process sibling of [merge]: what a fabric worker relays
   over the control socket is a named-counter delta list plus its
   buffered events (Sf_fabric.Relay), not a full shard — timers and
   histograms stay process-local, and exact totals are reconciled from
   checkpoints at the end of the run (Sf_fabric.Coordinator). *)
let merge_remote ~proc ~counters ~events =
  List.iter
    (fun (name, v) -> if v > 0 then Counter.add (Registry.counter name) v)
    counters;
  Trace.replay (Trace_export.tag ~proc events)
