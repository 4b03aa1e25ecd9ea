module A = Bigarray.Array1

(* Entry k: priority [prio.{k}], vertex [ent.{2k}], handle index
   [ent.{2k + 1}]. The field types name the element kinds: a Bigarray
   access whose kind is left polymorphic compiles to a boxing C call. *)
type t = {
  mutable prio : (float, Bigarray.float64_elt, Bigarray.c_layout) A.t;
  mutable ent : (int, Bigarray.int_elt, Bigarray.c_layout) A.t;
  mutable len : int;
}

let buffers cap =
  (A.create Bigarray.float64 Bigarray.c_layout cap, A.create Bigarray.int Bigarray.c_layout (2 * cap))

let create () =
  let prio, ent = buffers 64 in
  { prio; ent; len = 0 }

let clear t = t.len <- 0
let length t = t.len

let check t k name =
  if k < 0 || k >= t.len then invalid_arg ("Frontier." ^ name ^ ": no such entry")

(* Word [field] of entry [k]: 0 its vertex, 1 its handle index. *)
let get t k field name =
  check t k name;
  A.unsafe_get t.ent ((2 * k) + field)

let vertex t k = get t k 0 "vertex"
let index t k = get t k 1 "index"

let set_index t k i =
  check t k "set_index";
  A.unsafe_set t.ent ((2 * k) + 1) i

let set_entry t k v i =
  A.unsafe_set t.ent (2 * k) v;
  A.unsafe_set t.ent ((2 * k) + 1) i

let add t v i =
  let cap = A.dim t.prio in
  if t.len = cap then begin
    let prio, ent = buffers (2 * cap) in
    A.blit t.prio (A.sub prio 0 cap);
    A.blit t.ent (A.sub ent 0 (2 * cap));
    t.prio <- prio;
    t.ent <- ent
  end;
  t.len <- t.len + 1;
  set_entry t (t.len - 1) v i

let drop_last t =
  if t.len = 0 then invalid_arg "Frontier.drop_last: empty frontier";
  t.len <- t.len - 1

(* Entry [j] becomes a copy of entry [k]. *)
let copy t ~src:k j =
  A.unsafe_set t.prio j (A.unsafe_get t.prio k);
  A.unsafe_set t.ent (2 * j) (A.unsafe_get t.ent (2 * k));
  A.unsafe_set t.ent ((2 * j) + 1) (A.unsafe_get t.ent ((2 * k) + 1))

let take t k =
  check t k "take";
  t.len <- t.len - 1;
  copy t ~src:t.len k

(* No float crosses a call here: a float argument is boxed. *)
let swap t i j =
  let p = A.unsafe_get t.prio i and v = A.unsafe_get t.ent (2 * i) in
  let x = A.unsafe_get t.ent ((2 * i) + 1) in
  copy t ~src:j i;
  A.unsafe_set t.prio j p;
  set_entry t j v x

(* The sift order fixes where ties fall, and the portfolio golden pins it. *)
let sift_up t =
  let i = ref (t.len - 1) in
  while !i > 0 && A.unsafe_get t.prio ((!i - 1) / 2) < A.unsafe_get t.prio !i do
    swap t !i ((!i - 1) / 2);
    i := (!i - 1) / 2
  done

let push t ~priority v =
  add t v 0;
  A.unsafe_set t.prio (t.len - 1) priority;
  sift_up t

(* Removes the root of a non-empty heap. *)
let remove_top t =
  t.len <- t.len - 1;
  if t.len > 0 then begin
    copy t ~src:t.len 0;
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let largest = ref !i in
      if l < t.len && A.unsafe_get t.prio l > A.unsafe_get t.prio !largest then largest := l;
      if r < t.len && A.unsafe_get t.prio r > A.unsafe_get t.prio !largest then largest := r;
      if !largest = !i then continue := false
      else begin
        swap t !i !largest;
        i := !largest
      end
    done
  end

let pop_max t =
  if t.len = 0 then invalid_arg "Frontier.pop_max: empty frontier";
  let v = A.unsafe_get t.ent 0 in
  remove_top t;
  v

(* [push] inlined, so the priority stays an unboxed local. Removing
   the root left room for it. *)
let requeue t =
  if t.len = 0 then invalid_arg "Frontier.requeue: empty frontier";
  let p = A.unsafe_get t.prio 0 and v = A.unsafe_get t.ent 0 and i = A.unsafe_get t.ent 1 in
  remove_top t;
  A.unsafe_set t.prio t.len p;
  set_entry t t.len v i;
  t.len <- t.len + 1;
  sift_up t
