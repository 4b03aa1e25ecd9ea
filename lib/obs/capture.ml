(* The one domain-local capture behind every Sf_obs primitive.  While a
   capture is open on a domain (Pool workers, via Shard), each update
   resolves its cell to a private shadow of the target held in the
   open buffer; otherwise the cell is the target itself.  The primitive
   then runs the same direct code on whichever cell it got, and
   Shard.merge folds the shadows back at the join barrier. *)

type counter = { mutable n : int }

(* a timer's one-slot [total] and a histogram's [stats] (sum, min,
   max) hold their floats unboxed, so an update allocates nothing *)
type timer = { total : float array; mutable count : int }
type histo = { counts : int array; stats : float array; mutable h_count : int }
type gauge = { mutable g_value : float; mutable g_set : bool }

type arg = Int of int | Float of float | Str of string | Bool of bool | Ints of int list
type kind = Begin | End | Instant | Counter of float
type event = { seq : int; ts : float; name : string; kind : kind; args : (string * arg) list }

type buf = {
  mutable counters : (counter * counter) list;
  mutable timers : (timer * timer) list;
  mutable histos : (histo * histo) list;
  mutable gauges : (gauge * gauge) list;
  mutable events : event list;
}

let slot : buf option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let capturing () = Option.is_some !(Domain.DLS.get slot)

let empty () = { counters = []; timers = []; histos = []; gauges = []; events = [] }

let n_buckets = 64

let new_histo () =
  { counts = Array.make n_buckets 0; stats = [| 0.; Float.nan; Float.nan |]; h_count = 0 }

(* the lists stay tiny (a handful of distinct metrics per task), so a
   physical-equality scan beats any keyed structure; [fresh] and [add]
   are closed functions, so a lookup allocates only a missing shadow *)
let rec shadow t fresh add b = function
  | (target, s) :: rest -> if target == t then s else shadow t fresh add b rest
  | [] ->
    let s = fresh () in
    add b (t, s);
    s

let counter b t =
  shadow t (fun () -> { n = 0 }) (fun b p -> b.counters <- p :: b.counters) b b.counters

let timer b t =
  shadow t
    (fun () -> { total = [| 0. |]; count = 0 })
    (fun b p -> b.timers <- p :: b.timers)
    b b.timers

let histo b t = shadow t new_histo (fun b p -> b.histos <- p :: b.histos) b b.histos

let gauge b t =
  shadow t
    (fun () -> { g_value = 0.; g_set = false })
    (fun b p -> b.gauges <- p :: b.gauges)
    b b.gauges
