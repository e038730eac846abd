open Ace_netlist

(** Static timing analysis over the recognized gate network.

    The papers list "timing errors … and performance characteristics" among
    what wirelist consumers check.  This analyzer combines {!Gates} (which
    gates exist), {!Parasitics} (what each gate drives) and a simple
    RC delay model: each gate's delay is its depletion pull-up's on-
    resistance times the capacitance it drives (gate loads plus wire
    capacitance when the circuit was extracted with geometry). *)

type timed_gate = {
  gate : Gates.gate;
  delay_s : float;  (** this stage's RC delay, seconds *)
  arrival_s : float;  (** worst-case arrival at the gate's output *)
}

type result = {
  critical_path : timed_gate list;  (** source first *)
  critical_delay_s : float;
  gate_count : int;
  has_feedback : bool;  (** combinational cycles found (latch/oscillator) *)
}

(** [None] when no gates are recognized (e.g. pure pass-transistor
    arrays). *)
val analyze :
  ?params:Ace_tech.Nmos.params ->
  ?vdd:string ->
  ?gnd:string ->
  Circuit.t ->
  result option

(** As {!analyze}, but a missing power rail is reported as a
    ["missing-rail"] diagnostic rather than folded into the silent
    no-gates [None]. *)
val analyze_checked :
  ?params:Ace_tech.Nmos.params ->
  ?vdd:string ->
  ?gnd:string ->
  Circuit.t ->
  result option * Ace_diag.Diag.t list

val pp_result : Circuit.t -> Format.formatter -> result -> unit
