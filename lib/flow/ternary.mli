open Ace_netlist

(** Ternary switch-level abstract interpretation.

    Each net is assigned the {e set} of drive conditions it can exhibit
    across all input assignments, encoded as a bit mask over
    strength × {0, 1, X} plus a floating marker:

    - {!s0}/{!s1}/{!sx}: strong (rail- or input-driven) low/high/unknown;
    - {!w0}/{!w1}/{!wx}: the same weakened through a depletion load;
    - {!float_bit}: the net is not always driven (charge storage).

    Primary inputs are treated as top ({!s0} ∨ {!s1}); the analysis is a
    may-analysis, so every concrete steady state is covered by the mask
    (possible contention is reported, proven-impossible behaviour such as
    a gate that can never go high is reported as dead logic). *)

val s0 : int
val s1 : int
val sx : int
val w0 : int
val w1 : int
val wx : int
val float_bit : int

val may0 : int -> bool
val may1 : int -> bool
val mayx : int -> bool

(** Render a mask, e.g. ["{S1,W0,FLOAT}"]. *)
val mask_to_string : int -> string

type dead = Never_high | Never_low

type verdict = {
  values : int array;  (** per-net abstract value *)
  inflows : int array;  (** per-net join of channel inflows *)
  floating : bool array;  (** phase-A complement: charge-storage nets *)
  inputs : bool array;  (** the input set the analysis assumed *)
  vdd : int;
  gnd : int;
  contention : int list;
      (** nets where a strong 0 and a strong 1 can fight *)
  bridges : int list;
      (** device indices forming a direct VDD–GND enhancement channel *)
  dead : (int * dead) list;  (** gate nets with a provably constant level *)
  float_nets : int list;  (** driven-sometimes nets that can float *)
  share : int list;
      (** devices that can connect two floating (charge-sharing) nets *)
  x_devices : int list;  (** devices whose gate can be X *)
  x_nets : int list;  (** nets that can carry an X level *)
  stats : Solver.stats;
}

(** Flat analysis: phase A (the nets that are always driven) then phase
    B (every net's drive mask) on the whole circuit.  Total for any
    well-formed circuit, including [vdd = gnd] (the shared net is then
    clamped to [s0 ∨ s1]).  [inputs] defaults to the named nets that gate
    at least one device, never appear on a channel and are not a rail —
    the same exemption the undriven lint rule applies.  [cancel] is
    polled inside both solves. *)
val analyze :
  ?cancel:Ace_core.Cancel.t ->
  ?inputs:bool array ->
  Circuit.t ->
  vdd:int ->
  gnd:int ->
  verdict

(** [x_trace v c net] walks inflows backwards from [net] to a floating
    X source and returns the chain source-first ([[net]] when the net is
    its own source or no source is found).  Deterministic. *)
val x_trace : verdict -> Circuit.t -> int -> int list
