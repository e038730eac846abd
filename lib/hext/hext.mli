open Ace_netlist

(** HEXT — the hierarchical circuit extractor (public entry points).

    The front-end partitions the chip into non-overlapping windows
    ({!Content}), recognizing redundant windows through a canonical-form
    table; the back-end extracts each {e unique} leaf window with the
    scanline engine in interface mode and composes adjacent windows,
    memoizing compose results ({!Ace_core.Fragment}).  The output is a hierarchical
    wirelist ({!Ace_netlist.Hier.t}) whose flattening equals the flat
    extractor's circuit (tested). *)

type stats = {
  leaf_extractions : int;  (** calls to the (modified) flat extractor *)
  compose_calls : int;  (** compose operations actually performed *)
  window_hits : int;  (** redundant windows recognized by the table *)
  compose_hits : int;  (** compose results served from the memo table *)
  front_end_seconds : float;  (** partitioning and window recognition *)
  leaf_seconds : float;  (** flat extraction of unique leaf windows *)
  compose_seconds : float;  (** composing windows *)
}

(** [back_end_seconds] = leaf + compose (HEXT Table 5-1's split). *)
val back_end_seconds : stats -> float

(** Fraction of back-end time spent composing (HEXT Table 5-2). *)
val compose_fraction : stats -> float

(** A persistent window-redundancy and compose table.  Entries are keyed
    by canonical window {e content}, so one cache is valid across designs:
    passing the same cache to successive extractions of edited versions of
    a chip re-extracts only the windows that actually changed.  This is
    the {e incremental extractor} ACE §6 points to as future work. *)
type cache

val create_cache : unit -> cache

(** Extract a design hierarchically.  [leaf_limit] bounds the number of
    geometry boxes a leaf window may hold before the partitioner keeps
    slicing (default 512).  [memoize] turns the window-redundancy and
    compose tables off for ablation runs (default true).  [cache] persists
    those tables across calls (incremental extraction). *)
val extract :
  ?leaf_limit:int ->
  ?memoize:bool ->
  ?cache:cache ->
  Ace_cif.Design.t ->
  Hier.t * stats

(** Extract and flatten to a flat circuit (the papers note most CAD tools
    want a flat wirelist; flattening is linear in circuit size). *)
val extract_flat :
  ?leaf_limit:int ->
  ?memoize:bool ->
  ?cache:cache ->
  ?name:string ->
  Ace_cif.Design.t ->
  Circuit.t * stats

(** {1 Cell summaries}

    Helpers for consumers (hierarchical LVS) that memoize per-part
    analysis results across instances. *)

val cell_fingerprint : Hier.part -> int
(** Structural fingerprint of a part: a hash over its net count, name,
    exports, net names, devices, and child instance bindings.  Identical
    parts share a fingerprint, so a per-fingerprint memo visits each
    distinct cell exactly once. *)

