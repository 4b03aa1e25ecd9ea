(** Growable vector of machine ints on flat Bigarray [int32] storage.

    {!Vec} stores OCaml ints (one word each) in a boxed-header array;
    fine at toy sizes, 8 bytes per entry at n = 10M. This variant
    packs entries into an unboxed [int32] Bigarray — half the memory,
    no GC scanning of the payload — and is the growth buffer behind
    every graph: each generator appends its edges' endpoints to two of
    them and freezes them with {!Csr.of_bigvecs} (doc/SCALING.md).

    Values must fit in 32 bits ([-2{^31} .. 2{^31}-1]); {!push} and
    {!set} reject anything wider. Vertex ids and edge ids in this
    codebase are bounded by the CSR limits (doc/SCALING.md), so the
    restriction is never binding in practice. *)

type buf = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type t

val max_value : int
(** Largest storable value, [2{^31} - 1]. *)

val create : ?capacity:int -> unit -> t
val create_buf : int -> buf
(** A fresh uninitialised flat buffer, for callers that know the final
    length up front. *)

val of_buf : buf -> t
(** A vector over the whole of [buf], without a copy: its length is
    the buffer's. *)

val length : t -> int

val get : t -> int -> int
(** @raise Invalid_argument if out of bounds. *)

val unsafe_get : t -> int -> int
(** No bounds check — hot-loop accessor; the caller owns the proof. *)

val set : t -> int -> int -> unit
(** @raise Invalid_argument if out of bounds or the value exceeds
    32 bits. *)

val push : t -> int -> unit
(** Amortised O(1) append (doubling growth).
    @raise Invalid_argument if the value exceeds 32 bits. *)

val to_buf : t -> buf
(** The first [length] entries as a freshly allocated flat buffer. *)
