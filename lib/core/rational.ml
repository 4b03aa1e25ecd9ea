type t = { num : int64; den : int64 }

exception Overflow

let rec gcd a b = if b = 0L then a else gcd b (Int64.rem a b)

let gcd a b =
  let g = gcd (Int64.abs a) (Int64.abs b) in
  if g = 0L then 1L else g

(* overflow-checked primitives *)
let checked_mul a b =
  if a = 0L || b = 0L then 0L
  else begin
    let r = Int64.mul a b in
    if Int64.div r b <> a then raise Overflow;
    r
  end

let checked_add a b =
  let r = Int64.add a b in
  (* same-sign operands must not flip sign *)
  if (a > 0L && b > 0L && r < 0L) || (a < 0L && b < 0L && r > 0L) then raise Overflow;
  r

let normalise num den =
  if den = 0L then invalid_arg "Rational: zero denominator";
  let sign = if den < 0L then -1L else 1L in
  let num = checked_mul num sign and den = checked_mul den sign in
  let g = gcd num den in
  { num = Int64.div num g; den = Int64.div den g }

let make num den = normalise num den
let zero = { num = 0L; den = 1L }
let one = { num = 1L; den = 1L }

let mul a b =
  (* cross-reduce before multiplying to keep intermediates small *)
  let g1 = gcd a.num b.den and g2 = gcd b.num a.den in
  normalise
    (checked_mul (Int64.div a.num g1) (Int64.div b.num g2))
    (checked_mul (Int64.div a.den g2) (Int64.div b.den g1))

let add a b =
  let g = gcd a.den b.den in
  let da = Int64.div a.den g and db = Int64.div b.den g in
  normalise
    (checked_add (checked_mul a.num db) (checked_mul b.num da))
    (checked_mul a.den db)

let neg a = { a with num = Int64.neg a.num }
let sub a b = add a (neg b)

let div a b =
  if b.num = 0L then invalid_arg "Rational.div: division by zero";
  mul a { num = b.den; den = b.num }

let equal a b = a.num = b.num && a.den = b.den

let compare a b =
  (* compare via subtraction to stay exact *)
  Int64.compare (sub a b).num 0L

let to_string t = Printf.sprintf "%Ld/%Ld" t.num t.den
let to_float t = Int64.to_float t.num /. Int64.to_float t.den
