type t = { l : int; b : int; r : int; t : int }

let make ~l ~b ~r ~t =
  if l >= r || b >= t then
    invalid_arg
      (Printf.sprintf "Box.make: degenerate box l=%d b=%d r=%d t=%d" l b r t);
  { l; b; r; t }

(* CIF boxes have centimicron resolution; round corners outward for odd
   sizes so the box never collapses. *)
let low_edge ~center ~size = center - (size / 2)

let of_center_size ~cx ~cy ~w ~h =
  if w <= 0 || h <= 0 then invalid_arg "Box.of_center_size: non-positive size";
  let l = low_edge ~center:cx ~size:w and b = low_edge ~center:cy ~size:h in
  make ~l ~b ~r:(l + w) ~t:(b + h)

let width bx = bx.r - bx.l
let height bx = bx.t - bx.b
let area bx = width bx * height bx
let center bx = Point.make ((bx.l + bx.r) / 2) ((bx.b + bx.t) / 2)
let min_corner bx = Point.make bx.l bx.b
let equal a b = a.l = b.l && a.b = b.b && a.r = b.r && a.t = b.t

let compare a b =
  let c = Int.compare a.b b.b in
  if c <> 0 then c
  else
    let c = Int.compare a.l b.l in
    if c <> 0 then c
    else
      let c = Int.compare a.t b.t in
      if c <> 0 then c else Int.compare a.r b.r

let contains_point bx (p : Point.t) =
  bx.l <= p.x && p.x < bx.r && bx.b <= p.y && p.y < bx.t

let overlaps a b = a.l < b.r && b.l < a.r && a.b < b.t && b.b < a.t

let touches a b =
  (* Positive-area overlap or positive-length shared edge; corner-only
     contact does not count (it carries no electrical connection). *)
  (a.l <= b.r && b.l <= a.r && a.b < b.t && b.b < a.t)
  || (a.l < b.r && b.l < a.r && a.b <= b.t && b.b <= a.t)

let intersection a b =
  let l = max a.l b.l
  and r = min a.r b.r
  and b' = max a.b b.b
  and t = min a.t b.t in
  if l < r && b' < t then Some { l; b = b'; r; t } else None

let hull a b =
  { l = min a.l b.l; b = min a.b b.b; r = max a.r b.r; t = max a.t b.t }

let hull_list = function
  | [] -> None
  | bx :: rest -> Some (List.fold_left hull bx rest)

let translate bx ~dx ~dy =
  { l = bx.l + dx; b = bx.b + dy; r = bx.r + dx; t = bx.t + dy }

let clip bx ~window = intersection bx window

let pp ppf bx =
  Format.fprintf ppf "[%d,%d)x[%d,%d)" bx.l bx.r bx.b bx.t
