(** NMOS process parameters and device-formation rules.

    ACE itself deliberately embeds no circuit model — it outputs geometry so
    that "a post-processing program" can compute capacitances and
    resistances.  The electrical numbers here therefore belong to the
    post-processor ([Ace_analysis]), not to the extractor; the extractor only
    uses [lambda] (grid quantum for non-manhattan approximation) and the
    structural rules below. *)

(** Transistor flavor: implant makes a depletion-mode device. *)
type device_type = Enhancement | Depletion

val device_type_equal : device_type -> device_type -> bool

(** Wirelist part names, as in the papers' figures ("nEnh" / "nDep"). *)
val device_type_name : device_type -> string

type params = {
  lambda : int;
      (** feature size in CIF centimicrons (Mead–Conway: 250 = 2.5 µm) *)
  sheet_ohms_diffusion : float;
  sheet_ohms_poly : float;
  sheet_ohms_metal : float;
  cap_area_diffusion : float;  (** fF per λ² *)
  cap_area_poly : float;
  cap_area_metal : float;
  cap_gate : float;  (** fF per λ² of channel *)
}

(** Mead–Conway textbook values. *)
val default : params

(** Sheet resistance of a conducting layer (Ω/□). *)
val sheet_ohms : params -> Layer.t -> float

(** Area capacitance of a conducting layer (fF/λ²). *)
val cap_area : params -> Layer.t -> float

(** Structural rule: a channel exists where diffusion and poly overlap with
    no buried contact; implant decides the flavor. *)
val channel_type : implanted:bool -> device_type

(** Minimal pull-up/pull-down ratio for a restoring NMOS gate driven by
    restored levels (Mead–Conway: 4). *)
val min_inverter_ratio : float
