(** Induced subgraphs with compact relabelling. *)

type mapping = { to_sub : int array; of_sub : int array }
(** [to_sub.(v-1)] is the new id of original vertex [v] (0 when
    dropped); [of_sub.(v'-1)] is the original id of new vertex [v']. *)

val induced : Ugraph.t -> vertices:int list -> Ugraph.t * mapping
(** Keep exactly the given vertices (relabelled [1..k] in ascending
    original order) and every edge whose two endpoints are kept.
    @raise Invalid_argument on out-of-range or duplicate vertices. *)

val largest_component : Ugraph.t -> Ugraph.t * mapping
(** Induced subgraph on a largest connected component. *)
