type t = Capture.counter

let create () = { Capture.n = 0 }

(* the cell an update lands in: [t] itself, or its shadow while a
   capture is open on this domain *)
let[@inline] cell t =
  match !(Domain.DLS.get Capture.slot) with None -> t | Some b -> Capture.counter b t

let incr t =
  let c = cell t in
  c.n <- c.n + 1

let add t d =
  if d < 0 then invalid_arg "Counter.add: negative delta (counters are monotone)";
  let c = cell t in
  c.n <- c.n + d

let value (t : t) = t.n
let reset (t : t) = t.n <- 0
