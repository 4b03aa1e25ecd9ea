(** Sarshar–Boykin–Roychowdhury percolation search [SBR04]: the
    replication-based protocol the paper cites as the sublinear
    workaround for unsearchable power-law networks.

    The protocol trades storage for lookup time: every content owner
    replicates its content along a random walk; a querier also walks,
    then broadcasts the query epidemically (each edge forwards with
    probability [broadcast_prob] — bond percolation). Above the
    percolation threshold of the high-degree core, the replica walk
    and the query cluster intersect with high probability while both
    remain far smaller than [n].

    Cost is counted in {e messages} (edge transmissions), the natural
    analogue of the request count in the paper's model. *)

type params = {
  replication_walk : int; (** replica-walk length of the content owner *)
  query_walk : int; (** walk length seeding the query *)
  broadcast_prob : float; (** per-edge forwarding probability *)
  max_messages : int; (** hard message budget *)
}

val default_params : n:int -> params
(** The √n-flavoured setting of the paper: walks of length [⌈√n⌉],
    forwarding probability 0.5, budget [8n]. *)

type result = {
  hit : bool; (** did the query meet a replica? *)
  messages : int;
  contacted : int; (** distinct vertices the query reached *)
  replicas : int; (** distinct vertices holding a replica *)
}

val replicate :
  Sf_prng.Rng.t -> Sf_graph.Ugraph.t -> owner:int -> walk_length:int -> bool array
(** Replica placement: the set of vertices visited by a random walk
    from [owner] (owner included), as a membership array. *)

val run :
  Sf_prng.Rng.t -> Sf_graph.Ugraph.t -> params -> source:int -> target:int -> result
(** Replicate the target's content, then query from [source]: a seed
    walk, then probabilistic flooding from every vertex it contacted.
    Stops early on the first replica hit or when the message budget is
    exhausted. *)
