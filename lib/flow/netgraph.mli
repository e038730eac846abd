open Ace_tech
open Ace_netlist

(** Dataflow over the net/device bipartite graph.

    A netlist analysis assigns each net a lattice value; a device's channel
    propagates a function of the source-side value (gated by the gate net's
    value) into the drain-side net, symmetrically in both directions.  This
    module builds the corresponding equation system — net value = seed
    joined with all channel inflows, clamped nets pinned to their seed —
    and hands it to {!Solver}. *)

type 'a lattice = {
  bottom : 'a;
  join : 'a -> 'a -> 'a;
  equal : 'a -> 'a -> bool;
}

type 'a spec = {
  lat : 'a lattice;
  seed : 'a array;  (** per-net initial contribution *)
  clamp : bool array;  (** clamped nets keep exactly their seed *)
  attr : int array;  (** per-net static attribute fed to [flow] *)
  flow :
    Nmos.device_type ->
    gate:'a ->
    gattr:int ->
    src:'a ->
    sattr:int ->
    dattr:int ->
    'a;
      (** value a channel contributes to the net on the far side *)
}

(** [solve spec devices ~net_count] returns the least-fixpoint net values,
    the per-net join of channel inflows recomputed from the final values
    (clamped nets included — this is what flows {e into} a net regardless
    of what the net holds), and solver statistics.  All arrays in [spec]
    must have length [net_count]. *)
val solve :
  ?cancel:Ace_core.Cancel.t ->
  'a spec ->
  Circuit.device array ->
  net_count:int ->
  'a array * 'a array * Solver.stats
