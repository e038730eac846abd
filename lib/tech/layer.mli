(** Mask layers of the Mead–Conway NMOS process.

    These are the seven layers the papers' extractor knows about.  The four
    "interacting" layers scanned simultaneously for device recognition are
    diffusion, poly, buried and implant (ACE §3); the conducting layers
    carrying signals across window boundaries are diffusion, poly and metal
    (HEXT §3). *)

type t =
  | Diffusion  (** ND — n+ diffusion *)
  | Poly  (** NP — polysilicon *)
  | Contact  (** NC — contact cut (metal to poly or diffusion) *)
  | Metal  (** NM — metal *)
  | Implant  (** NI — depletion-mode implant *)
  | Buried  (** NB — buried contact (poly to diffusion) *)
  | Glass  (** NG — overglass openings *)

val all : t list

(** CIF layer names as used by the Mead–Conway NMOS design rules. *)
val to_cif_name : t -> string

val of_cif_name : string -> t option

(** Layers that carry electrical signals (metal, poly, diffusion). *)
val conducting : t -> bool

(** Conducting layers, in the order nets prefer for naming/location
    (metal, then poly, then diffusion). *)
val conducting_layers : t list

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

(** Dense index in [0, count); usable as an array index. *)
val index : t -> int

(** Inverse of {!index}; raises [Invalid_argument] outside [0, count). *)
val of_index : int -> t

val count : int

val pp : Format.formatter -> t -> unit
