(** The strategy portfolio measured against the paper's lower bounds.

    Weak-model strategies (request = one edge endpoint):
    - [bfs] — flood outward in discovery order; the expanding-ring
      search of unstructured P2P systems.
    - [dfs] — depth-first probing.
    - [random_edge] — request a uniformly random unexplored handle of
      the discovered region ([~skip_known:true] never re-requests an
      edge whose endpoints are both known).
    - [random_walk] — the memoryless walk of Adamic et al.: hop along
      a uniform incident edge, paying every hop.
    - [high_degree] — Adamic et al.'s degree-seeking greedy: always
      request from the highest-degree discovered vertex with an
      unexplored handle.
    - ["min-label-dist"] (in {!weak_portfolio}) — prefer vertices
      whose {e identity} is numerically closest to the target's: the
      natural attempt to exploit the label structure (identities are
      insertion times).
    - ["oldest-label"] (in {!weak_portfolio}) — prefer small
      identities: chase the old, highly connected core first.

    Strong-model strategies (request = full neighbourhood):
    [strong_seq], ["s-rand"], [strong_high_degree], ["s-min-label"]
    (the quoted ones reached through {!strong_portfolio}) — the same
    disciplines on whole-vertex requests.

    Each discipline keeps its work list in a {!Frontier} leased from
    the oracle ({!Oracle.frontier}): a stack for [dfs], a pool for
    [random_edge] and ["s-rand"], and a max-heap for the best-first
    disciplines, which share one weak and one strong best-first
    combinator internal to this module. [bfs] and [strong_seq] walk
    the discovery sequence itself. *)

val bfs : Strategy.t
val dfs : Strategy.t
val random_edge : skip_known:bool -> Strategy.t
val random_walk : Strategy.t
val high_degree : Strategy.t

val strong_seq : Strategy.t
val strong_high_degree : Strategy.t

val strong_random_walk : Strategy.t
(** The random walk in Adamic et al.'s cost model: every hop is one
    whole-vertex request, revisits included. *)

val epsilon_greedy : epsilon:float -> Strategy.t
(** Mixture discipline: with probability [epsilon] take the uniform
    random-edge step, otherwise the high-degree greedy step (each
    falling back to the other when out of moves). The classic
    exploration/exploitation knob for unstructured search. *)

val restart_walk : restart:float -> Strategy.t
(** Random walk that teleports back to the source with probability
    [restart] before each hop — the standard fix for walks drifting
    into the periphery of heavy-tailed graphs. *)

val timestamp_cheat : Strategy.t
(** {b A deliberate model violation, for the T17 ablation.} In a Móri
    tree the physical edge id [e] is the out-edge of vertex [e + 2],
    so on a non-obfuscated oracle this strategy can {e recognise} the
    target's own edge (id [target − 2]) for free the moment the
    target's father is discovered, and grabs it. Timestamps break the
    exchangeability argument behind Lemma 2 (σ(G) carries permuted
    timestamps), so the paper's {e proof} does not survive this leak —
    but the measured cost barely drops: the father of a fresh vertex
    is a near-uniformly spread vertex, and knowing {e which} edge is
    the target's does not reveal {e where} it is. Against the default
    (obfuscated) oracle the grab rule matches a meaningless
    discovery-order id and the strategy degenerates to its high-degree
    fallback. *)

val weak_portfolio : unit -> Strategy.t list
(** The default weak-model adversary set used by the experiments. *)

val strong_portfolio : unit -> Strategy.t list
