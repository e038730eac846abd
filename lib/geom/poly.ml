type polygon = Point.t list

let edges poly =
  match poly with
  | [] | [ _ ] -> []
  | first :: _ ->
      let rec go = function
        | [] -> []
        | [ last ] -> [ (last, first) ]
        | a :: (b :: _ as rest) -> (a, b) :: go rest
      in
      go poly

let is_manhattan poly =
  List.for_all
    (fun ((a : Point.t), (b : Point.t)) -> a.x = b.x || a.y = b.y)
    (edges poly)

(* Twice the signed area (shoelace); the sign tells orientation. *)
let double_area poly =
  List.fold_left
    (fun acc ((a : Point.t), (b : Point.t)) -> acc + ((a.x * b.y) - (b.x * a.y)))
    0 (edges poly)

(* Scanline fill: for a horizontal band [y0, y1), collect the x-extent the
   polygon covers, sampled on the band midline (exact for manhattan
   polygons whose band boundaries are vertex y's).  Even-odd rule. *)
let band_intervals poly_edges ~y0 ~y1 =
  let ym2 = y0 + y1 in
  (* work with doubled y to keep the midline integral *)
  let crossings =
    List.filter_map
      (fun ((a : Point.t), (b : Point.t)) ->
        if a.y = b.y then None (* horizontal edge: never crosses midline *)
        else
          let p, q = if a.y <= b.y then (a, b) else (b, a) in
          let py2 = 2 * p.y and qy2 = 2 * q.y in
          if py2 <= ym2 && ym2 < qy2 then
            if p.x = q.x then Some p.x
            else
              (* x where the edge meets the midline, rounded to nearest *)
              let num = (p.x * (qy2 - ym2)) + (q.x * (ym2 - py2)) in
              let den = qy2 - py2 in
              Some (int_of_float (Float.round (float_of_int num /. float_of_int den)))
          else None)
      poly_edges
  in
  let xs = List.sort Int.compare crossings in
  let rec pair = function
    | x0 :: x1 :: rest -> (x0, x1) :: pair rest
    | _ -> []
  in
  Interval.of_spans (pair xs)

let band_boundaries poly ~quantum =
  let ys = List.sort_uniq Int.compare (List.map (fun (p : Point.t) -> p.y) poly) in
  match ys with
  | [] | [ _ ] -> []
  | y_min :: _ ->
      let y_max = List.fold_left max y_min ys in
      if is_manhattan poly then ys
      else
        (* subdivide at quantum steps, keeping vertex y's *)
        let q = max 1 quantum in
        let rec fill y acc = if y >= y_max then acc else fill (y + q) (y :: acc) in
        List.sort_uniq Int.compare (ys @ fill y_min [])

let coalesce_columns boxes =
  (* Merge vertically stacked boxes with identical x-extent to cut the box
     count of tall decompositions. *)
  let sorted =
    List.sort
      (fun (a : Box.t) (b : Box.t) ->
        let c = Int.compare a.l b.l in
        if c <> 0 then c
        else
          let c = Int.compare a.r b.r in
          if c <> 0 then c else Int.compare a.b b.b)
      boxes
  in
  let rec go acc = function
    | [] -> List.rev acc
    | (bx : Box.t) :: rest -> (
        match acc with
        | (prev : Box.t) :: acc'
          when prev.l = bx.l && prev.r = bx.r && prev.t = bx.b ->
            go (Box.make ~l:prev.l ~b:prev.b ~r:prev.r ~t:bx.t :: acc') rest
        | _ -> go (bx :: acc) rest)
  in
  go [] sorted

let boxes_of_polygon ~quantum poly =
  let poly =
    (* drop consecutive duplicate vertices *)
    let rec dedup = function
      | a :: b :: rest when Point.equal a b -> dedup (b :: rest)
      | a :: rest -> a :: dedup rest
      | [] -> []
    in
    match dedup poly with
    | a :: rest when (match List.rev rest with
                      | last :: _ -> Point.equal a last
                      | [] -> false) ->
        a :: List.filteri (fun i _ -> i < List.length rest - 1) rest
    | p -> p
  in
  if List.length poly < 3 || double_area poly = 0 then []
  else
    let es = edges poly in
    let bands = band_boundaries poly ~quantum in
    let rec strips = function
      | y0 :: (y1 :: _ as rest) ->
          let spans = band_intervals es ~y0 ~y1 in
          let boxes =
            List.map
              (fun (s : Interval.span) -> Box.make ~l:s.lo ~b:y0 ~r:s.hi ~t:y1)
              spans
          in
          boxes @ strips rest
      | _ -> []
    in
    coalesce_columns (strips bands)

let segment_boxes ~quantum ~width (a : Point.t) (b : Point.t) =
  let h = width / 2 in
  let h' = width - h in
  if a.x = b.x then
    let lo = min a.y b.y and hi = max a.y b.y in
    [ Box.make ~l:(a.x - h) ~b:(lo - h) ~r:(a.x + h') ~t:(hi + h') ]
  else if a.y = b.y then
    let lo = min a.x b.x and hi = max a.x b.x in
    [ Box.make ~l:(lo - h) ~b:(a.y - h) ~r:(hi + h') ~t:(a.y + h') ]
  else
    (* sloped segment: build the rectangle polygon around the centerline and
       decompose it; end caps handled by extending along the direction *)
    let dx = float_of_int (b.x - a.x) and dy = float_of_int (b.y - a.y) in
    let len = sqrt ((dx *. dx) +. (dy *. dy)) in
    let ux = dx /. len and uy = dy /. len in
    let hw = float_of_int width /. 2.0 in
    let px = -.uy *. hw and py = ux *. hw in
    let ex = ux *. hw and ey = uy *. hw in
    let fx = float_of_int and r = int_of_float in
    let corner sx sy ox oy =
      Point.make (r (fx a.x +. (sx *. ex) +. (ox *. px)))
        (r (fx a.y +. (sy *. ey) +. (oy *. py)))
    in
    let corner_b sx sy ox oy =
      Point.make (r (fx b.x +. (sx *. ex) +. (ox *. px)))
        (r (fx b.y +. (sy *. ey) +. (oy *. py)))
    in
    let quad =
      [ corner (-1.) (-1.) 1. 1.; corner (-1.) (-1.) (-1.) (-1.);
        corner_b 1. 1. (-1.) (-1.); corner_b 1. 1. 1. 1. ]
    in
    boxes_of_polygon ~quantum quad

let boxes_of_wire ~quantum ~width path =
  if width <= 0 then invalid_arg "Poly.boxes_of_wire: non-positive width";
  match path with
  | [] -> []
  | [ (p : Point.t) ] ->
      let h = width / 2 in
      let h' = width - h in
      [ Box.make ~l:(p.x - h) ~b:(p.y - h) ~r:(p.x + h') ~t:(p.y + h') ]
  | _ ->
      let rec segs = function
        | a :: (b :: _ as rest) ->
            segment_boxes ~quantum ~width a b @ segs rest
        | _ -> []
      in
      segs path

let boxes_of_round_flash ~quantum ~diameter ~center:(c : Point.t) =
  if diameter <= 0 then invalid_arg "Poly.boxes_of_round_flash";
  let rad = max 1 (diameter / 2) in
  (* never let the strip height reach the radius, or small flashes would
     vanish entirely into the inscribed-row approximation *)
  let q = max 1 (min quantum (max 1 (rad / 2))) in
  let rec rows y acc =
    if y >= rad then acc
    else
      let y1 = min rad (y + q) in
      (* inscribed half-width at the row farther from the center *)
      let ym = max (abs y) (abs y1) in
      let hw = int_of_float (sqrt (float_of_int ((rad * rad) - (ym * ym)))) in
      let acc =
        if hw > 0 then
          Box.make ~l:(c.x - hw) ~b:(c.y + y) ~r:(c.x + hw) ~t:(c.y + y1) :: acc
        else acc
      in
      rows y1 acc
  in
  coalesce_columns (rows (-rad) [])

let total_area boxes = List.fold_left (fun acc b -> acc + Box.area b) 0 boxes
