(** Growable int buffers.

    Flat, unboxed storage for per-element side tables (one int per
    union-find element, indexed by the element) and for fixed-width
    records of a few ints each.  The buffer doubles when full, so a push
    is amortized O(1) and steady-state use allocates nothing.

    As in {!Ivec}, the fields are exposed for zero-overhead reads and
    in-place updates of slots below [len]; only {!push} extends [len]. *)

type t = { mutable data : int array; mutable len : int }
(** Slots [0, len) of [data] are the contents; [data] may be longer. *)

val create : unit -> t
val push : t -> int -> unit
