(** Zipfian distribution sampler.

    Implements Hörmann's rejection-inversion method, valid for any
    exponent [s > 0] (including [s >= 1], which the common YCSB formula
    cannot handle). This mirrors sysbench's [rand-zipfian-exp] knob used
    throughout the paper's evaluation. *)

type t

val create : n:int -> s:float -> t
(** [create ~n ~s] prepares a sampler over ranks [0 .. n-1] with
    exponent [s]. Rank 0 is the most popular item.
    Raises [Invalid_argument] if [n <= 0] or [s <= 0]. *)

val sample : t -> Rng.t -> int
(** Draw a rank in [\[0, n)]; smaller ranks are exponentially more
    likely. Allocates nothing. *)
