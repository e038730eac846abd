open Ace_netlist

(** Hierarchical LVS over HEXT cell summaries.

    Instead of flattening the layout and re-matching every instance of
    every cell, this pass compares each distinct part (keyed by
    {!Ace_hext.Hext.cell_fingerprint}) against candidate reference
    subcircuits ONCE via the flat comparator, memoizes the verdict
    together with the boundary-pin correspondence, and substitutes every
    further instance as an opaque multi-terminal pseudo-device.  The
    residual top-level glue — unsubstituted transistors plus
    pseudo-devices on both sides — is then verified by the same seeded
    partition refinement.

    Verdicts are provably identical to the flat compare because the
    hierarchical path only ever CONFIRMS equivalence: a hierarchical
    Clean requires a complete witness (every reference cell instance
    paired, pin-role multisets corresponding, glue color multisets
    equal), and any obstruction — an unmatched cell, a shared net name
    hidden inside a substituted instance, a glue discrepancy — falls back
    to {!Match.run} on the flattened layout, which owns the verdict.  In
    the fallback the hierarchical pass contributes [lvs-cell-mismatch]
    (error) and [lvs-cell-unmatched] (hint) findings naming the offending
    cell type, prepended to the flat findings on a Mismatch. *)

type result = {
  r : Match.result;
  cell_matches : int;  (** distinct cell summaries compared *)
  cell_hits : int;  (** instances served from the summary memo *)
  fallback : bool;  (** the verdict came from the flat comparator *)
}

(** [run ?cancel ?with_sizes ?tolerance ?vdd ?gnd ?max_findings ~layout
    ~reference ?ref_view ()] compares the hierarchical [layout] wirelist
    against the flat [reference].  [ref_view] is the reference's own
    hierarchy ({!Reference.hier_view}); when [None] (flat or obstructed
    reference) the pass degenerates to the flat comparator immediately.
    The optional knobs have the same meaning as in {!Match.run}. *)
val run :
  ?cancel:Ace_core.Cancel.t ->
  ?with_sizes:bool ->
  ?tolerance:float ->
  ?vdd:string ->
  ?gnd:string ->
  ?max_findings:int ->
  layout:Hier.t ->
  reference:Circuit.t ->
  ?ref_view:Reference.hview ->
  unit ->
  result

val glue_colors :
  ?cancel:Ace_core.Cancel.t ->
  nets:int ->
  seed:(int -> int) ->
  (int * (int * int) list) array ->
  int array * int array
(** The refinement behind the glue verdict, for one side: devices given as
    [(tag, (role, net) terminals)] over nets [0 .. nets - 1], initial net
    colors from [seed].  Returns the sorted colors of the nets with a
    terminal and the sorted device colors; two sides correspond when both
    arrays are equal.  [cancel] is checked once per round. *)
