type t = Diffusion | Poly | Contact | Metal | Implant | Buried | Glass

let all = [ Diffusion; Poly; Contact; Metal; Implant; Buried; Glass ]

let to_cif_name = function
  | Diffusion -> "ND"
  | Poly -> "NP"
  | Contact -> "NC"
  | Metal -> "NM"
  | Implant -> "NI"
  | Buried -> "NB"
  | Glass -> "NG"

let of_cif_name = function
  | "ND" -> Some Diffusion
  | "NP" -> Some Poly
  | "NC" -> Some Contact
  | "NM" -> Some Metal
  | "NI" -> Some Implant
  | "NB" -> Some Buried
  | "NG" -> Some Glass
  | _ -> None

let conducting = function
  | Metal | Poly | Diffusion -> true
  | Contact | Implant | Buried | Glass -> false

let conducting_layers = [ Metal; Poly; Diffusion ]

let index = function
  | Diffusion -> 0
  | Poly -> 1
  | Contact -> 2
  | Metal -> 3
  | Implant -> 4
  | Buried -> 5
  | Glass -> 6

let of_index = function
  | 0 -> Diffusion
  | 1 -> Poly
  | 2 -> Contact
  | 3 -> Metal
  | 4 -> Implant
  | 5 -> Buried
  | 6 -> Glass
  | i -> invalid_arg (Printf.sprintf "Layer.of_index: %d" i)

let count = 7
let equal a b = index a = index b
let compare a b = Int.compare (index a) (index b)
let hash = index
let pp ppf t = Format.pp_print_string ppf (to_cif_name t)
