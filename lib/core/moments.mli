(** Exact degree moments of the Móri growth process.

    The attachment rule gives a linear recurrence for the expected
    indegree of a fixed vertex: writing [W_t = p(t−2) + (1−p)(t−1)]
    for the total attachment weight when vertex [t] arrives,

    {[ E[d_{t+1}(v)] = E[d_t(v)] · (1 + p/W_{t+1}) + (1−p)/W_{t+1} ]}

    (one new arrival hits [v] with probability
    [(p·d + (1−p))/W]). Iterating from [d_s(v) = 0] at [v]'s birth
    time [s = v] gives the exact mean — no mean-field approximation —
    which grows like [(t/s)^p], the age–degree law behind the paper's
    degree distribution and max-degree facts (T8, T9) and the
    "age and degree are positively correlated" observation (T15).

    Everything here is O(t) arithmetic, validated against simulation
    in the test suite. *)

val expected_indegree : p:float -> v:int -> t:int -> float
(** Exact [E\[indegree of v in G_t\]] for [1 <= v <= t]. Runs the
    recurrence from [v]'s birth (vertex 1 starts at time 2 with
    indegree 1). *)

val expected_indegree_profile : p:float -> t:int -> float array
(** [a.(v-1) = E[d_t(v)]] for all vertices at once, O(t). The sum of
    the profile is exactly [t - 1] (one edge per arrival). *)
