type t = Capture.histo

let n_buckets = Capture.n_buckets
let create = Capture.new_histo

(* the cell an update lands in: [t] itself, or its shadow while a
   capture is open on this domain *)
let[@inline] cell t =
  match !(Domain.DLS.get Capture.slot) with None -> t | Some b -> Capture.histo b t

let log_base = Float.log 2.

let bucket_index (_ : t) v =
  if v <= 1. then 0
  else
    (* epsilon guards exact powers of the base against log rounding up *)
    let i = int_of_float (Float.ceil ((Float.log v /. log_base) -. 1e-9)) in
    if i < 1 then 1 else if i >= n_buckets then n_buckets - 1 else i

(* inlined so that [observe_int]'s float stays unboxed *)
let[@inline] record (c : t) i v =
  c.counts.(i) <- c.counts.(i) + 1;
  c.h_count <- c.h_count + 1;
  let s = c.stats in
  s.(0) <- s.(0) +. v;
  if c.h_count = 1 then begin
    s.(1) <- v;
    s.(2) <- v
  end
  else begin
    if v < s.(1) then s.(1) <- v;
    if v > s.(2) then s.(2) <- v
  end

let observe t v = record (cell t) (bucket_index t v) v

let observe_int t v =
  let i =
    if v <= 1 then 0
    else
      (* for v >= 2, ceil (log2 v) is the bit length of v - 1, which is
         the exponent field of float_of_int (v - 1): no log, no loop.
         A 63-bit int gives at most 63, the last bucket. *)
      let bits = Int64.bits_of_float (float_of_int (v - 1)) in
      Int64.to_int (Int64.shift_right_logical bits 52) - 1022
  in
  record (cell t) i (float_of_int v)

let count (t : t) = t.h_count
let sum (t : t) = t.stats.(0)
let min_value (t : t) = t.stats.(1)
let max_value (t : t) = t.stats.(2)
let mean t = if count t = 0 then 0. else sum t /. float_of_int (count t)

let bucket_count (t : t) i = t.counts.(i)

let upper_bound i = if i = 0 then 1. else 2. ** float_of_int i

let buckets (t : t) =
  let acc = ref [] in
  for i = n_buckets - 1 downto 0 do
    if t.counts.(i) > 0 then acc := (upper_bound i, t.counts.(i)) :: !acc
  done;
  !acc

let quantile (t : t) q =
  if q < 0. || q > 1. then invalid_arg "Histo.quantile: need q in [0, 1]";
  if count t = 0 then Float.nan
  else begin
    let target = q *. float_of_int (count t) in
    let cum = ref 0 in
    let result = ref (upper_bound (n_buckets - 1)) in
    (try
       for i = 0 to n_buckets - 1 do
         cum := !cum + t.counts.(i);
         if float_of_int !cum >= target && t.counts.(i) > 0 then begin
           result := upper_bound i;
           raise Stdlib.Exit
         end
       done
     with Stdlib.Exit -> ());
    !result
  end
