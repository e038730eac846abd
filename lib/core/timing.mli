(** Phase timing for the extraction pipeline.

    ACE §5 reports a coarse distribution of time over the extraction
    algorithm (parsing/sorting 40%, list updates 15%, device computation
    20%, storage/io 10%, miscellaneous 15%).  The engine charges wall time
    to these phases so the benchmark can regenerate that table. *)

type phase =
  | Front_end  (** parsing, instantiating, sorting (geometry source) *)
  | List_update  (** entering new geometry, updating active lists *)
  | Devices  (** computing devices, nets, connectivity *)
  | Output  (** storage allocation, output, initialization *)

val phase_name : phase -> string

(** Short machine-readable identifier ([front_end], [devices], …): the
    name of the phase's trace span and of its bench metric. *)
val phase_slug : phase -> string

type t

val create : unit -> t

(** [charge t phase f] runs [f ()], adding its wall time to [phase] (also
    on exceptions).  Rides {!Ace_trace.Trace.timed}: when a trace session
    is recording, the same clock samples are also emitted as a span named
    {!phase_slug}[ phase], so phase timings reconstructed from the trace
    agree exactly with the accumulated seconds. *)
val charge : t -> phase -> (unit -> 'a) -> 'a

(** Add externally measured seconds to a phase (e.g. CIF text parsing,
    which happens before the engine runs). *)
val add : t -> phase -> float -> unit

(** Seconds accumulated in a phase. *)
val seconds : t -> phase -> float

(** Percentage of the summed seconds per phase, in declaration order. *)
val distribution : t -> (phase * float) list
