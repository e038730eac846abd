type device_type = Enhancement | Depletion

let device_type_equal a b =
  match (a, b) with
  | Enhancement, Enhancement | Depletion, Depletion -> true
  | Enhancement, Depletion | Depletion, Enhancement -> false

let device_type_name = function
  | Enhancement -> "nEnh"
  | Depletion -> "nDep"

type params = {
  lambda : int;
  sheet_ohms_diffusion : float;
  sheet_ohms_poly : float;
  sheet_ohms_metal : float;
  cap_area_diffusion : float;
  cap_area_poly : float;
  cap_area_metal : float;
  cap_gate : float;
}

let default =
  {
    lambda = 250;
    sheet_ohms_diffusion = 10.0;
    sheet_ohms_poly = 30.0;
    sheet_ohms_metal = 0.03;
    cap_area_diffusion = 0.625;
    cap_area_poly = 0.25;
    cap_area_metal = 0.1875;
    cap_gate = 2.5;
  }

let sheet_ohms p = function
  | Layer.Diffusion -> p.sheet_ohms_diffusion
  | Layer.Poly -> p.sheet_ohms_poly
  | Layer.Metal -> p.sheet_ohms_metal
  | Layer.Contact | Layer.Implant | Layer.Buried | Layer.Glass -> 0.0

let cap_area p = function
  | Layer.Diffusion -> p.cap_area_diffusion
  | Layer.Poly -> p.cap_area_poly
  | Layer.Metal -> p.cap_area_metal
  | Layer.Contact | Layer.Implant | Layer.Buried | Layer.Glass -> 0.0

let channel_type ~implanted = if implanted then Depletion else Enhancement
let min_inverter_ratio = 4.0
