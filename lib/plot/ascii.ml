open Ace_geom
open Ace_tech

(* cell classification priority; a diffusion∧poly crossing shows as the
   transistor channel 'X' *)
let char_of_mask mask =
  let has lyr = mask land (1 lsl Layer.index lyr) <> 0 in
  if has Layer.Contact then '#'
  else if has Layer.Diffusion && has Layer.Poly && not (has Layer.Buried) then
    'X'
  else if has Layer.Buried && has Layer.Diffusion && has Layer.Poly then 'B'
  else if has Layer.Metal then 'm'
  else if has Layer.Poly then 'p'
  else if has Layer.Diffusion then 'd'
  else if has Layer.Implant then 'i'
  else if has Layer.Glass then 'g'
  else ' '

let render ?(grid = 250) boxes =
  match Box.hull_list (List.map snd boxes) with
  | None -> []
  | Some bbox ->
      let floor_div a b = if a >= 0 then a / b else -(((-a) + b - 1) / b) in
      let ceil_div a b = -floor_div (-a) b in
      let x0 = floor_div bbox.Box.l grid and y0 = floor_div bbox.Box.b grid in
      let x1 = ceil_div bbox.Box.r grid and y1 = ceil_div bbox.Box.t grid in
      let gw = x1 - x0 and gh = y1 - y0 in
      let masks = Array.make (gw * gh) 0 in
      List.iter
        (fun (lyr, (bx : Box.t)) ->
          let cl = max 0 (floor_div bx.l grid - x0)
          and cr = min gw (ceil_div bx.r grid - x0)
          and cb = max 0 (floor_div bx.b grid - y0)
          and ct = min gh (ceil_div bx.t grid - y0) in
          for y = cb to ct - 1 do
            for x = cl to cr - 1 do
              masks.((y * gw) + x) <-
                masks.((y * gw) + x) lor (1 lsl Layer.index lyr)
            done
          done)
        boxes;
      List.init gh (fun row ->
          let y = gh - 1 - row in
          String.init gw (fun x -> char_of_mask masks.((y * gw) + x)))

let render_design ?grid design = render ?grid (Ace_cif.Flatten.flatten design)
let to_string rows = String.concat "\n" rows ^ "\n"
