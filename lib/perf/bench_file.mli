(** The versioned [BENCH_<n>.json] schema — one durable record of a
    benchmark run, the unit of the repo's performance trajectory.

    A BENCH file stores the {e raw per-sample arrays} of every series
    a run records (the experiment phase timers of [sfbench record],
    the end-to-end metrics of [e2ebench/run.sh --record]), not just
    their means: the comparison engine ({!Compare}) needs whole
    samples for the Mann–Whitney test and the bootstrap confidence
    intervals, and a mean alone cannot be re-analysed once the run is gone.

    Files live under [bench/history/] as [BENCH_0001.json],
    [BENCH_0002.json], …; committing them is what turns one-shot runs
    into a trajectory ({!History}). Commit hash and date are {e
    injected by the caller} ([bin/sfbench.ml]) so the library stays
    deterministic and testable; the host fingerprint records enough to
    tell whether two files are comparable at all. Schema evolution is
    explicit: the [schema] field is ["scalefree.bench/1"], and a
    reader rejects any other id rather than guessing.

    The format is documented for humans in [doc/OBSERVABILITY.md]
    ("Performance trajectory"). *)

val schema_id : string
(** ["scalefree.bench/1"]. *)

type host = {
  hostname : string;
  os : string;  (** [Sys.os_type] *)
  word_size : int;
  ocaml : string;  (** [Sys.ocaml_version] *)
}

type benchmark = {
  name : string;  (** e.g. ["exp.T1"] or ["e2e/serve_capped: setup_s"] *)
  unit_label : string;
      (** ["ns"] for times, ["bytes"] for sizes; every series is
          lower-is-better *)
  samples : float array;  (** raw per-sample values, at least one *)
}

type t = {
  commit : string;  (** injected by the caller; ["unknown"] is legal *)
  date : string;  (** injected by the caller, ISO-8601 UTC *)
  host : host;
  jobs : int;
  seed : int;
  mode : string;
      (** ["quick"], ["full"] or ["e2e"] (smoke and full e2e runs
          alike); gates refuse to mix modes *)
  benchmarks : benchmark list;
}

val current_host : unit -> host

val to_json : t -> string

val of_json : string -> (t, string) result
(** Parse {e and validate}: the schema id must match {!schema_id}
    exactly, every benchmark needs a non-empty name unique within the
    file and a non-empty array of finite, non-negative samples, and
    [jobs] must be positive. Anything else is an [Error] naming the
    offending field. *)

val write : path:string -> t -> unit
val read : path:string -> (t, string) result
(** [Error] covers unreadable files as well as invalid documents. *)

val find : t -> string -> benchmark option
val names : t -> string list
(** Benchmark names in file order. *)

(** {1 The history naming convention} *)

val filename : int -> string
(** [filename 7 = "BENCH_0007.json"].
    @raise Invalid_argument if the index is not positive. *)

val index_of_filename : string -> int option
(** Inverse of {!filename} on basenames; [None] for anything else. *)

val list_dir : dir:string -> (int * string) list
(** The [(index, full path)] of every [BENCH_*.json] in [dir],
    ascending by index. A missing directory is an empty history. *)

val next_index : dir:string -> int
(** One past the largest recorded index; [1] for an empty history. *)
