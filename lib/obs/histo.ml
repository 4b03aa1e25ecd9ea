let n_buckets = 64

type t = {
  base : float;
  log_base : float;
  counts : int array;
  mutable count : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
}

let create ?(base = 2.0) () =
  if base <= 1. then invalid_arg "Histo.create: need base > 1";
  {
    base;
    log_base = Float.log base;
    counts = Array.make n_buckets 0;
    count = 0;
    sum = 0.;
    min_v = Float.nan;
    max_v = Float.nan;
  }

let base t = t.base

(* Domain-local capture, same scheme as Counter: a capture gives each
   touched histogram a private shadow (same base, same bucket layout)
   that absorbs the observations; [apply] merges shadows into the
   shared accumulators at the join barrier. *)

type delta = { h_target : t; h_shadow : t }
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

let shadow_of buf t =
  let rec find = function
    | [] ->
      let cell = { h_target = t; h_shadow = create ~base:t.base () } in
      buf := cell :: !buf;
      cell.h_shadow
    | cell :: _ when cell.h_target == t -> cell.h_shadow
    | _ :: rest -> find rest
  in
  find !buf

let bucket_index t v =
  if v <= 1. then 0
  else
    (* epsilon guards exact powers of the base against log rounding up *)
    let i = int_of_float (Float.ceil ((Float.log v /. t.log_base) -. 1e-9)) in
    if i < 1 then 1 else if i >= n_buckets then n_buckets - 1 else i

let observe_direct t v =
  t.counts.(bucket_index t v) <- t.counts.(bucket_index t v) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum +. v;
  if t.count = 1 then begin
    t.min_v <- v;
    t.max_v <- v
  end
  else begin
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v
  end

let observe t v =
  match !(Domain.DLS.get slot) with
  | None -> observe_direct t v
  | Some buf -> observe_direct (shadow_of buf t) v

let observe_int t v = observe t (float_of_int v)

let merge_direct ~into:t src =
  if src.count > 0 then begin
    Array.iteri (fun i c -> if c > 0 then t.counts.(i) <- t.counts.(i) + c) src.counts;
    if t.count = 0 then begin
      t.min_v <- src.min_v;
      t.max_v <- src.max_v
    end
    else begin
      if src.min_v < t.min_v then t.min_v <- src.min_v;
      if src.max_v > t.max_v then t.max_v <- src.max_v
    end;
    t.count <- t.count + src.count;
    t.sum <- t.sum +. src.sum
  end

let apply ds =
  List.iter
    (fun d ->
      match !(Domain.DLS.get slot) with
      | None -> merge_direct ~into:d.h_target d.h_shadow
      | Some buf -> merge_direct ~into:(shadow_of buf d.h_target) d.h_shadow)
    ds

let count t = t.count
let sum t = t.sum
let min_value t = t.min_v
let max_value t = t.max_v
let mean t = if t.count = 0 then 0. else t.sum /. float_of_int t.count

let bucket_count t i = t.counts.(i)

let upper_bound t i = if i = 0 then 1. else t.base ** float_of_int i

let buckets t =
  let acc = ref [] in
  for i = n_buckets - 1 downto 0 do
    if t.counts.(i) > 0 then acc := (upper_bound t i, t.counts.(i)) :: !acc
  done;
  !acc

let quantile t q =
  if q < 0. || q > 1. then invalid_arg "Histo.quantile: need q in [0, 1]";
  if t.count = 0 then Float.nan
  else begin
    let target = q *. float_of_int t.count in
    let cum = ref 0 in
    let result = ref (upper_bound t (n_buckets - 1)) in
    (try
       for i = 0 to n_buckets - 1 do
         cum := !cum + t.counts.(i);
         if float_of_int !cum >= target && t.counts.(i) > 0 then begin
           result := upper_bound t i;
           raise Stdlib.Exit
         end
       done
     with Stdlib.Exit -> ());
    !result
  end
