let clock = ref Unix.gettimeofday
let set_clock f = clock := f
let now_s () = !clock ()

type t = Capture.timer

let create () = { Capture.total = [| 0. |]; count = 0 }

(* the cell an update lands in: [t] itself, or its shadow while a
   capture is open on this domain *)
let[@inline] cell t =
  match !(Domain.DLS.get Capture.slot) with None -> t | Some b -> Capture.timer b t

(* clock steps under gettimeofday can make dt negative; clamp so the
   accumulator stays monotone; the comparison, unlike Float.max, is
   not a call that boxes its result *)
let add_s t dt =
  let c = cell t in
  if dt > 0. then c.total.(0) <- c.total.(0) +. dt;
  c.count <- c.count + 1

let time t f =
  let t0 = now_s () in
  Fun.protect ~finally:(fun () -> add_s t (now_s () -. t0)) f

let count (t : t) = t.count
let total_s (t : t) = t.total.(0)
let mean_s (t : t) = if t.count = 0 then 0. else t.total.(0) /. float_of_int t.count
