type t = {
  mutable prio : float array;
  mutable value : int array;
  mutable len : int;
}

let create () = { prio = Array.make 16 0.; value = Array.make 16 0; len = 0 }

let length t = t.len

let swap t i j =
  let p = t.prio.(i) and v = t.value.(i) in
  t.prio.(i) <- t.prio.(j);
  t.value.(i) <- t.value.(j);
  t.prio.(j) <- p;
  t.value.(j) <- v

let ensure t =
  if t.len = Array.length t.prio then begin
    let prio' = Array.make (2 * t.len) 0. and value' = Array.make (2 * t.len) 0 in
    Array.blit t.prio 0 prio' 0 t.len;
    Array.blit t.value 0 value' 0 t.len;
    t.prio <- prio';
    t.value <- value'
  end

(* Moves the last entry up to its place. *)
let sift_up t =
  let i = ref (t.len - 1) in
  while !i > 0 && t.prio.((!i - 1) / 2) < t.prio.(!i) do
    swap t !i ((!i - 1) / 2);
    i := (!i - 1) / 2
  done

let push t ~priority v =
  ensure t;
  t.prio.(t.len) <- priority;
  t.value.(t.len) <- v;
  t.len <- t.len + 1;
  sift_up t

let top t =
  if t.len = 0 then invalid_arg "Heap.top: empty heap";
  t.value.(0)

(* Removes the root of a non-empty heap. *)
let remove_top t =
  t.len <- t.len - 1;
  if t.len > 0 then begin
    t.prio.(0) <- t.prio.(t.len);
    t.value.(0) <- t.value.(t.len);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let largest = ref !i in
      if l < t.len && t.prio.(l) > t.prio.(!largest) then largest := l;
      if r < t.len && t.prio.(r) > t.prio.(!largest) then largest := r;
      if !largest = !i then continue := false
      else begin
        swap t !i !largest;
        i := !largest
      end
    done
  end

let pop_max t =
  if t.len = 0 then invalid_arg "Heap.pop_max: empty heap";
  let top = t.value.(0) in
  remove_top t;
  top

(* [push] inlined, so the priority stays an unboxed local: a float
   argument to a call is boxed. Removing the root left room for it. *)
let requeue t =
  if t.len = 0 then invalid_arg "Heap.requeue: empty heap";
  let priority = t.prio.(0) and v = t.value.(0) in
  remove_top t;
  t.prio.(t.len) <- priority;
  t.value.(t.len) <- v;
  t.len <- t.len + 1;
  sift_up t
