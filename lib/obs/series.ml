(* Time-series rings over the registry: the live-telemetry substrate.

   A {e series} is a fixed-capacity ring of (timestamp, value) points
   for one scalar facet of one metric.  Sampling walks the registry
   and pushes the current value of every facet — counters as their
   count, timers as [.total_s]/[.count], set gauges as their value,
   histograms as [.count]/[.sum]/[.p50]/[.p95]/[.p99]/[.p999] — so rolling
   rates, EWMAs and windowed quantiles can be derived from a running
   process without waiting for the end-of-run manifest.

   Concurrency.  The background sampler is a systhread, not a domain:
   it shares the main domain's runtime lock AND its domain-local
   storage, so it must never open a capture frame (that would corrupt
   the pool's shard bookkeeping) and must not emit trace events (their
   stream position would be scheduling-dependent).  It therefore only
   {e reads} metric values — counter loads and gauge reads are single
   word reads, histogram buckets are int array reads; a torn read can
   at worst be one observation stale, never out of thin air — and
   refreshes the GC/RSS gauges via [~trace:false].  Ring state itself
   is guarded by a mutex shared with scrape-triggered samples. *)

(* --- one ring ------------------------------------------------------ *)

type ring = {
  r_capacity : int;
  r_ts : float array;
  r_v : float array;
  mutable r_seen : int; (* points ever pushed; head = r_seen mod cap *)
}

let ring_create ~capacity =
  if capacity < 1 then invalid_arg "Series.ring_create: capacity must be >= 1";
  { r_capacity = capacity; r_ts = Array.make capacity 0.; r_v = Array.make capacity 0.; r_seen = 0 }

let ring_seen r = r.r_seen
let ring_length r = min r.r_seen r.r_capacity

let ring_push r ~ts ~v =
  let i = r.r_seen mod r.r_capacity in
  r.r_ts.(i) <- ts;
  r.r_v.(i) <- v;
  r.r_seen <- r.r_seen + 1

(* oldest first *)
let ring_points r =
  let len = ring_length r in
  let first = r.r_seen - len in
  List.init len (fun k ->
      let i = (first + k) mod r.r_capacity in
      (r.r_ts.(i), r.r_v.(i)))

let ring_last r =
  if r.r_seen = 0 then None
  else
    let i = (r.r_seen - 1) mod r.r_capacity in
    Some (r.r_ts.(i), r.r_v.(i))

(* --- derived statistics (pure over the retained points) ------------ *)

(* Points no older than [window_s] before the newest timestamp,
   oldest first. *)
let window_points r ~window_s =
  match ring_last r with
  | None -> []
  | Some (t_last, _) ->
    List.filter (fun (ts, _) -> ts >= t_last -. window_s) (ring_points r)

let rate r ~window_s =
  match window_points r ~window_s with
  | [] | [ _ ] -> None
  | (t0, v0) :: _ as pts ->
    let tn, vn = List.nth pts (List.length pts - 1) in
    let dt = tn -. t0 in
    if dt <= 0. then None else Some ((vn -. v0) /. dt)

(* Time-decayed EWMA: each step folds the next point in with weight
   [a = 1 - exp (-dt / tau_s)], so irregular tick spacing is handled
   exactly — a long gap weighs the new point more. *)
let ewma r ~tau_s =
  if tau_s <= 0. then invalid_arg "Series.ewma: tau_s must be > 0";
  match ring_points r with
  | [] -> None
  | (t0, v0) :: rest ->
    let e, _ =
      List.fold_left
        (fun (e, t_prev) (ts, v) ->
          let dt = Float.max 0. (ts -. t_prev) in
          let a = 1. -. exp (-.dt /. tau_s) in
          (e +. (a *. (v -. e)), ts))
        (v0, t0) rest
    in
    Some e

(* Nearest-rank quantile over the values retained in the window. *)
let window_quantile r ~window_s q =
  if q < 0. || q > 1. then invalid_arg "Series.window_quantile: q outside [0,1]";
  match window_points r ~window_s with
  | [] -> None
  | pts ->
    let vs = List.map snd pts |> Array.of_list in
    Array.sort compare vs;
    let n = Array.length vs in
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    Some vs.(max 0 (min (n - 1) (rank - 1)))

(* --- the collection + background sampler --------------------------- *)

type t = {
  capacity : int;
  tick_s : float;
  mu : Mutex.t;
  rings : (string, ring) Hashtbl.t;
  mutable order : string list; (* registration order, newest first *)
  mutable n_samples : int;
  mutable running : bool;
  mutable thread : Thread.t option;
}

let create ?(capacity = 600) ?(tick_s = 0.5) () =
  if capacity < 1 then invalid_arg "Series.create: capacity must be >= 1";
  if tick_s <= 0. then invalid_arg "Series.create: tick_s must be > 0";
  {
    capacity;
    tick_s;
    mu = Mutex.create ();
    rings = Hashtbl.create 64;
    order = [];
    n_samples = 0;
    running = false;
    thread = None;
  }

let samples t = t.n_samples

let ring_for t name =
  match Hashtbl.find_opt t.rings name with
  | Some r -> r
  | None ->
    let r = ring_create ~capacity:t.capacity in
    Hashtbl.add t.rings name r;
    t.order <- name :: t.order;
    r

let push t name ~ts ~v = ring_push (ring_for t name) ~ts ~v

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* One snapshot of every registered metric.  [~trace:false] because
   this may run on the sampler thread (see the header comment). *)
let sample t =
  if Registry.enabled () then begin
    Gc_sample.sample ~trace:false ();
    let metrics = Registry.all () in
    locked t (fun () ->
        let ts = Timer.now_s () in
        List.iter
          (fun (name, m) ->
            match m with
            | Registry.Counter c -> push t name ~ts ~v:(float_of_int (Counter.value c))
            | Registry.Timer tm ->
              push t (name ^ ".total_s") ~ts ~v:(Timer.total_s tm);
              push t (name ^ ".count") ~ts ~v:(float_of_int (Timer.count tm))
            | Registry.Gauge g ->
              if Registry.gauge_set g then push t name ~ts ~v:(Registry.gauge_value g)
            | Registry.Histo h ->
              push t (name ^ ".count") ~ts ~v:(float_of_int (Histo.count h));
              push t (name ^ ".sum") ~ts ~v:(Histo.sum h);
              if Histo.count h > 0 then begin
                push t (name ^ ".p50") ~ts ~v:(Histo.quantile h 0.5);
                push t (name ^ ".p95") ~ts ~v:(Histo.quantile h 0.95);
                push t (name ^ ".p99") ~ts ~v:(Histo.quantile h 0.99);
                push t (name ^ ".p999") ~ts ~v:(Histo.quantile h 0.999)
              end)
          metrics;
        t.n_samples <- t.n_samples + 1)
  end

(* The only ring accessor: runs the reader under the collection lock.
   Handing a ring out of the lock would let callers race the sampler
   thread's pushes, so there is deliberately no [find]. *)
let with_ring t name f =
  locked t (fun () ->
      match Hashtbl.find_opt t.rings name with None -> None | Some r -> Some (f r))

(* sleep in short slices so [stop] returns promptly even at a long tick *)
let interruptible_delay t seconds =
  let slice = 0.05 in
  let rec go remaining =
    if t.running && remaining > 0. then begin
      Thread.delay (Float.min slice remaining);
      go (remaining -. slice)
    end
  in
  go seconds

let sampler_loop t =
  while t.running do
    interruptible_delay t t.tick_s;
    if t.running then sample t
  done

let start t =
  if t.thread = None then begin
    t.running <- true;
    sample t;
    (* a first point at t0, so rates are defined after one tick *)
    t.thread <- Some (Thread.create sampler_loop t)
  end

let stop t =
  match t.thread with
  | None -> ()
  | Some th ->
    t.running <- false;
    Thread.join th;
    t.thread <- None;
    sample t (* final point, so the last interval is covered *)

let running t = t.thread <> None

(* --- JSON dump (the socket [series] command) ----------------------- *)

let to_json t =
  locked t (fun () ->
      let b = Buffer.create 4096 in
      Buffer.add_string b
        (Printf.sprintf {|{"tick_s":%s,"samples":%d,"series":{|}
           (Export.json_float t.tick_s) t.n_samples);
      let names = List.sort compare t.order in
      List.iteri
        (fun i name ->
          if i > 0 then Buffer.add_char b ',';
          let r = Hashtbl.find t.rings name in
          Buffer.add_string b (Export.json_string name);
          Buffer.add_string b
            (Printf.sprintf {|:{"seen":%d,"points":[|} r.r_seen);
          List.iteri
            (fun j (ts, v) ->
              if j > 0 then Buffer.add_char b ',';
              Buffer.add_string b
                (Printf.sprintf "[%s,%s]" (Export.json_float ts) (Export.json_float v)))
            (ring_points r);
          Buffer.add_string b "]}")
        names;
      Buffer.add_string b "}}";
      Buffer.contents b)
