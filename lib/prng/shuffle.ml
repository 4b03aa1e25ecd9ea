let in_place_sub rng a ~pos ~len =
  if pos < 0 || len < 0 || pos > Array.length a - len then
    invalid_arg "Shuffle.in_place_sub: range out of bounds";
  for i = len - 1 downto 1 do
    let j = pos + Rng.int rng (i + 1) in
    let tmp = a.(pos + i) in
    a.(pos + i) <- a.(j);
    a.(j) <- tmp
  done

let in_place rng a = in_place_sub rng a ~pos:0 ~len:(Array.length a)

let permutation rng n =
  let a = Array.init n (fun i -> i) in
  in_place rng a;
  a

let sample_without_replacement rng ~k ~n =
  if k < 0 || k > n then invalid_arg "Shuffle.sample_without_replacement: need 0 <= k <= n";
  (* Floyd's algorithm: for j in n-k..n-1, insert a uniform value from
     [0..j], replacing collisions with j itself. *)
  let chosen = Hashtbl.create (2 * k) in
  for j = n - k to n - 1 do
    let v = Rng.int rng (j + 1) in
    if Hashtbl.mem chosen v then Hashtbl.replace chosen j ()
    else Hashtbl.replace chosen v ()
  done;
  let out = Array.make k 0 and idx = ref 0 in
  Hashtbl.iter
    (fun v () ->
      out.(!idx) <- v;
      incr idx)
    chosen;
  out

let reservoir rng ~k seq =
  if k < 0 then invalid_arg "Shuffle.reservoir: k must be non-negative";
  let buf = ref [||] and seen = ref 0 in
  Seq.iter
    (fun x ->
      incr seen;
      if !seen <= k then
        buf := Array.append !buf [| x |]
      else begin
        let j = Rng.int rng !seen in
        if j < k then !buf.(j) <- x
      end)
    seq;
  !buf
