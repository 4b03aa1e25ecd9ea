let clock = ref Unix.gettimeofday
let set_clock f = clock := f
let now_s () = !clock ()

type t = { mutable total : float; mutable count : int; mutable started : float option }

(* Domain-local capture, same scheme as Counter: while a capture is
   open on this domain, intervals accumulate in a private delta and are
   folded in at the join barrier.  [started] lives in the delta too, so
   a start/stop pair inside a parallel task never touches the shared
   cell. *)

type delta = {
  t_target : t;
  mutable t_total : float;
  mutable t_count : int;
  mutable t_started : float option;
}

type deltas = delta list
type frame = delta list ref option

let slot : delta list ref option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let capture_begin () : frame =
  let s = Domain.DLS.get slot in
  let prev = !s in
  s := Some (ref []);
  prev

let capture_end (prev : frame) : deltas =
  let s = Domain.DLS.get slot in
  let ds = match !s with Some buf -> List.rev !buf | None -> [] in
  s := prev;
  ds

let create () = { total = 0.; count = 0; started = None }

let cell_of buf t =
  let rec find = function
    | [] ->
      let cell = { t_target = t; t_total = 0.; t_count = 0; t_started = None } in
      buf := cell :: !buf;
      cell
    | cell :: _ when cell.t_target == t -> cell
    | _ :: rest -> find rest
  in
  find !buf

(* clock steps under gettimeofday can make dt negative; clamp so the
   accumulator stays monotone *)
let record t dt =
  let dt = Float.max 0. dt in
  match !(Domain.DLS.get slot) with
  | None ->
    t.total <- t.total +. dt;
    t.count <- t.count + 1
  | Some buf ->
    let cell = cell_of buf t in
    cell.t_total <- cell.t_total +. dt;
    cell.t_count <- cell.t_count + 1

(* merge a closed delta: totals and counts in one shot, preserving the
   per-interval clamping already applied by [record] *)
let absorb t ~total ~count =
  match !(Domain.DLS.get slot) with
  | None ->
    t.total <- t.total +. total;
    t.count <- t.count + count
  | Some buf ->
    let cell = cell_of buf t in
    cell.t_total <- cell.t_total +. total;
    cell.t_count <- cell.t_count + count

let apply ds =
  List.iter (fun d -> if d.t_count > 0 then absorb d.t_target ~total:d.t_total ~count:d.t_count) ds

let add_s = record

let time t f =
  let t0 = now_s () in
  Fun.protect ~finally:(fun () -> record t (now_s () -. t0)) f

let start t =
  match !(Domain.DLS.get slot) with
  | None -> t.started <- Some (now_s ())
  | Some buf -> (cell_of buf t).t_started <- Some (now_s ())

let stop t =
  let finish cell_started set_started =
    match cell_started with
    | None -> ()
    | Some t0 ->
      set_started None;
      record t (now_s () -. t0)
  in
  match !(Domain.DLS.get slot) with
  | None -> finish t.started (fun v -> t.started <- v)
  | Some buf ->
    let cell = cell_of buf t in
    finish cell.t_started (fun v -> cell.t_started <- v)

let count t = t.count
let total_s t = t.total
let mean_s t = if t.count = 0 then 0. else t.total /. float_of_int t.count
