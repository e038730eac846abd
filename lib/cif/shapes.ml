open Ace_geom

type orient = Along_x | Along_y | Sloped of Point.t

let classify_direction = function
  | None -> Along_x
  | Some (d : Point.t) ->
      if d.y = 0 && d.x <> 0 then Along_x
      else if d.x = 0 && d.y <> 0 then Along_y
      else Sloped d

let push_box (buf : Ibuf.t) l b r t =
  Ibuf.push buf l;
  Ibuf.push buf b;
  Ibuf.push buf r;
  Ibuf.push buf t

let push_centered buf (center : Point.t) w h =
  let l = Box.low_edge ~center:center.x ~size:w
  and b = Box.low_edge ~center:center.y ~size:h in
  push_box buf l b (l + w) (b + h)

let push_boxes buf boxes =
  List.iter (fun (bx : Box.t) -> push_box buf bx.l bx.b bx.r bx.t) boxes

let add_boxes ~quantum (shape : Ast.shape) buf =
  match shape with
  | Ast.Box { length; width; center; direction } -> (
      if length > 0 && width > 0 then
        match classify_direction direction with
        | Along_x -> push_centered buf center length width
        | Along_y -> push_centered buf center width length
        | Sloped d ->
            (* rotate the rectangle's corners about the center *)
            let fl = float_of_int in
            let len = sqrt ((fl d.x *. fl d.x) +. (fl d.y *. fl d.y)) in
            let ux = fl d.x /. len and uy = fl d.y /. len in
            let hx = fl length /. 2.0 and hy = fl width /. 2.0 in
            let corner sx sy =
              Point.make
                (center.x
                 + int_of_float (Float.round ((sx *. hx *. ux) -. (sy *. hy *. uy))))
                (center.y
                 + int_of_float (Float.round ((sx *. hx *. uy) +. (sy *. hy *. ux))))
            in
            push_boxes buf
              (Poly.boxes_of_polygon ~quantum
                 [ corner (-1.) (-1.); corner 1. (-1.); corner 1. 1.; corner (-1.) 1. ]))
  | Ast.Polygon pts -> push_boxes buf (Poly.boxes_of_polygon ~quantum pts)
  | Ast.Wire { width; path } ->
      push_boxes buf (Poly.boxes_of_wire ~quantum ~width path)
  | Ast.Round_flash { diameter; center } ->
      push_boxes buf (Poly.boxes_of_round_flash ~quantum ~diameter ~center)

let boxes_of_shape ~quantum shape =
  (* room for one box, the common case *)
  let buf = { Ibuf.data = Array.make 4 0; len = 0 } in
  add_boxes ~quantum shape buf;
  let d = buf.data and acc = ref [] in
  for k = (buf.len / 4) - 1 downto 0 do
    let i = 4 * k in
    acc := Box.make ~l:d.(i) ~b:d.(i + 1) ~r:d.(i + 2) ~t:d.(i + 3) :: !acc
  done;
  !acc

let shape_bbox (shape : Ast.shape) =
  match shape with
  | Ast.Box { length; width; center; direction } ->
      if length <= 0 || width <= 0 then None
      else (
        match classify_direction direction with
        | Along_x ->
            Some (Box.of_center_size ~cx:center.x ~cy:center.y ~w:length ~h:width)
        | Along_y ->
            Some (Box.of_center_size ~cx:center.x ~cy:center.y ~w:width ~h:length)
        | Sloped _ ->
            (* conservative square covering any rotation *)
            let d = length + width in
            Some
              (Box.make ~l:(center.x - d) ~b:(center.y - d) ~r:(center.x + d)
                 ~t:(center.y + d)))
  | Ast.Polygon pts -> (
      match pts with
      | [] -> None
      | (p0 : Point.t) :: rest ->
          let l, b, r, t =
            List.fold_left
              (fun (l, b, r, t) (p : Point.t) ->
                (min l p.x, min b p.y, max r p.x, max t p.y))
              (p0.x, p0.y, p0.x, p0.y)
              rest
          in
          if l < r && b < t then Some (Box.make ~l ~b ~r ~t) else None)
  | Ast.Wire { width; path } -> (
      match path with
      | [] -> None
      | (p0 : Point.t) :: rest ->
          let l, b, r, t =
            List.fold_left
              (fun (l, b, r, t) (p : Point.t) ->
                (min l p.x, min b p.y, max r p.x, max t p.y))
              (p0.x, p0.y, p0.x, p0.y)
              rest
          in
          let h = (width / 2) + 1 in
          Some (Box.make ~l:(l - h) ~b:(b - h) ~r:(r + h) ~t:(t + h)))
  | Ast.Round_flash { diameter; center } ->
      if diameter <= 0 then None
      else
        let rad = (diameter + 1) / 2 in
        Some
          (Box.make ~l:(center.x - rad) ~b:(center.y - rad) ~r:(center.x + rad)
             ~t:(center.y + rad))
