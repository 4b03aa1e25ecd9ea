type fit = { alpha : float; x_min : int; n_tail : int; ks : float }

let hurwitz_zeta ~alpha ~q =
  if alpha <= 1. then invalid_arg "Power_law.hurwitz_zeta: need alpha > 1";
  if q <= 0. then invalid_arg "Power_law.hurwitz_zeta: need q > 0";
  (* Direct sum to N, then Euler–Maclaurin:
     tail ≈ N^(1-a)/(a-1) + N^-a/2 + a·N^(-a-1)/12. *)
  let n_direct = 64. in
  let sum = ref 0. in
  let k = ref 0. in
  while !k < n_direct do
    sum := !sum +. ((q +. !k) ** -.alpha);
    k := !k +. 1.
  done;
  (* Tail from big_n (not yet summed): Euler–Maclaurin
     Σ_{k>=N} f(k) = ∫_N^∞ f + f(N)/2 - f'(N)/12 + ... *)
  let big_n = q +. n_direct in
  !sum
  +. (big_n ** (1. -. alpha)) /. (alpha -. 1.)
  +. ((big_n ** -.alpha) /. 2.)
  +. (alpha *. (big_n ** (-.alpha -. 1.)) /. 12.)

let tail_sample xs ~x_min =
  let tail = Array.of_seq (Seq.filter (fun x -> x >= x_min) (Array.to_seq xs)) in
  if Array.length tail = 0 then invalid_arg "Power_law: empty tail sample";
  tail

(* Exact discrete MLE: maximise
   L(α) = -α Σ log x_i - n log ζ(α, x_min)
   by golden-section search; L is concave in α on (1, ∞). *)
let mle_alpha xs ~x_min =
  if x_min < 1 then invalid_arg "Power_law.mle_alpha: need x_min >= 1";
  let tail = tail_sample xs ~x_min in
  let n = float_of_int (Array.length tail) in
  let log_sum = Array.fold_left (fun acc x -> acc +. log (float_of_int x)) 0. tail in
  let q = float_of_int x_min in
  let log_lik alpha = (-.alpha *. log_sum) -. (n *. log (hurwitz_zeta ~alpha ~q)) in
  let phi = (sqrt 5. -. 1.) /. 2. in
  let lo = ref 1.000001 and hi = ref 20. in
  let x1 = ref (!hi -. (phi *. (!hi -. !lo))) and x2 = ref (!lo +. (phi *. (!hi -. !lo))) in
  let f1 = ref (log_lik !x1) and f2 = ref (log_lik !x2) in
  while !hi -. !lo > 1e-7 do
    if !f1 > !f2 then begin
      hi := !x2;
      x2 := !x1;
      f2 := !f1;
      x1 := !hi -. (phi *. (!hi -. !lo));
      f1 := log_lik !x1
    end
    else begin
      lo := !x1;
      x1 := !x2;
      f1 := !f2;
      x2 := !lo +. (phi *. (!hi -. !lo));
      f2 := log_lik !x2
    end
  done;
  (!lo +. !hi) /. 2.

let ks_distance tail ~alpha ~x_min =
  let n = Array.length tail in
  let sorted = Array.copy tail in
  Array.sort compare sorted;
  let z = hurwitz_zeta ~alpha ~q:(float_of_int x_min) in
  (* Model CDF at integer x: 1 - ζ(α, x+1)/ζ(α, x_min). *)
  let model_cdf x = 1. -. (hurwitz_zeta ~alpha ~q:(float_of_int (x + 1)) /. z) in
  let worst = ref 0. in
  let i = ref 0 in
  while !i < n do
    (* Advance over ties so the empirical CDF is evaluated once per
       distinct value; for a discrete model the comparison is CDF vs
       CDF at each atom (both right-continuous). *)
    let x = sorted.(!i) in
    let j = ref !i in
    while !j < n && sorted.(!j) = x do
      incr j
    done;
    let emp = float_of_int !j /. float_of_int n in
    worst := max !worst (Float.abs (emp -. model_cdf x));
    i := !j
  done;
  !worst

let fit xs ~x_min =
  let alpha = mle_alpha xs ~x_min in
  let tail = tail_sample xs ~x_min in
  { alpha; x_min; n_tail = Array.length tail; ks = ks_distance tail ~alpha ~x_min }

let default_candidates xs =
  let positive = Array.of_seq (Seq.filter (fun x -> x > 0) (Array.to_seq xs)) in
  if Array.length positive = 0 then []
  else begin
    let sorted = Array.copy positive in
    Array.sort compare sorted;
    let p90 = sorted.(min (Array.length sorted - 1) (Array.length sorted * 9 / 10)) in
    let tbl = Hashtbl.create 64 in
    Array.iter (fun x -> if x <= p90 then Hashtbl.replace tbl x ()) sorted;
    Hashtbl.fold (fun x () acc -> x :: acc) tbl [] |> List.sort compare
  end

let fit_scan xs ?x_min_candidates () =
  let candidates =
    match x_min_candidates with Some c -> c | None -> default_candidates xs
  in
  let fits =
    List.filter_map
      (fun x_min ->
        (* Skip cutoffs leaving too little tail or degenerate sums. *)
        try
          let f = fit xs ~x_min in
          if f.n_tail >= 10 && Float.is_finite f.alpha && f.alpha > 1. then Some f
          else None
        with Invalid_argument _ -> None)
      candidates
  in
  match fits with
  | [] -> invalid_arg "Power_law.fit_scan: no admissible x_min candidate"
  | first :: rest ->
    List.fold_left (fun best f -> if f.ks < best.ks then f else best) first rest
