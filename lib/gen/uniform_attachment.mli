(** Uniform-attachment recursive trees and graphs — the [p -> 0] end of
    the uniform/preferential spectrum and a degree-law control (its
    indegree tail is geometric, not a power law). *)

val tree : Sf_prng.Rng.t -> t:int -> Sf_graph.Ugraph.t
(** Random recursive tree on [1..t]: vertex [k >= 2] attaches to a
    uniform vertex of [1..k-1]. Edge ids are insertion timestamps.
    @raise Invalid_argument unless [t >= 2]. *)

val graph : Sf_prng.Rng.t -> n:int -> m:int -> Sf_graph.Ugraph.t
(** Each arriving vertex sends [m] out-edges to independently uniform
    older vertices (repeats allowed). Seed: vertices 1, 2 and one
    edge. *)
