open Ace_netlist

(** Series/parallel transistor-chain reduction.

    Schematic transistors are routinely drawn as several layout fingers:
    parallel devices sharing gate and both channel terminals (widths add),
    and series chains through anonymous internal nets sharing gate and
    width (lengths add).  Reducing both circuits to this canonical form
    before comparison makes LVS insensitive to fingering, and the
    multiplicity counts expose genuinely duplicated devices.

    Reduction is conservative: only anonymous internal nets with exactly
    two channel terminals and no gate terminals are collapsed by the
    series rule, so user-visible nets always survive.  [anonymous]
    decides which nets qualify (default: nets with no name at all); the
    comparator passes "no name shared with the other side", so a net
    auto-named by a SPICE round trip reduces exactly like its unnamed
    layout counterpart. *)

type t = {
  circuit : Circuit.t;  (** the reduced circuit (original nets kept) *)
  mult : int array;
      (** per reduced device: how many original devices it absorbed in
          parallel (series chains count as their parallel multiplicity) *)
  merged : int;  (** total merge operations performed *)
}

val reduce :
  ?cancel:Ace_core.Cancel.t ->
  ?anonymous:(Circuit.net -> bool) ->
  Circuit.t ->
  t

val canonicalize :
  ?cancel:Ace_core.Cancel.t ->
  ?seed:(int -> int) ->
  ?anonymous:(Circuit.net -> bool) ->
  t ->
  t
(** Canonical terminal order for commutative series gate chains.

    A series chain of identical devices linked through anonymous interior
    nets (no gate terminals, exactly two channel terminals each) conducts
    iff all its gates do, regardless of gate order — so a NAND drawn with
    swapped inputs is electrically the layout's NAND, yet a purely
    structural compare reports a net split.  [canonicalize] rewrites each
    such chain into a canonical order: keys come from partition refinement
    on a collapsed graph where the whole chain is one super-device with an
    unordered gate set (keys cannot depend on gate position), seeded by
    [seed] (e.g. shared net names and rails, identically on both sides).
    A chain is reoriented only when its endpoint keys are distinct, and
    gates are stable-sorted by key, so refinement-indistinguishable ties
    are left exactly as found — symmetric structures are never scrambled.

    [mult] stays aligned because chain members are required to share
    dtype, size, and multiplicity; only terminal assignments move.
    [cancel] is checked once per refinement round. *)
