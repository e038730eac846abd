(* A transform is six ints [xx xy yx yy dx dy], mapping p to
   (xx·x + xy·y + dx, yx·x + yy·y + dy).  It is an int array so that the
   int-level forms below, which read and write transforms stored inside
   larger int arrays, can be the one copy of each rule; the record-level
   operations are defined through them. *)
type t = int array

let ints = 6
let make xx xy yx yy dx dy = [| xx; xy; yx; yy; dx; dy |]
let identity = make 1 0 0 1 0 0
let translation ~dx ~dy = make 1 0 0 1 dx dy
let mirror_x = make (-1) 0 0 1 0 0
let mirror_y = make 1 0 0 (-1) 0 0

let rotation ~a ~b =
  match (compare a 0, compare b 0) with
  | 1, 0 -> identity
  | 0, 1 -> make 0 (-1) 1 0 0 0
  | -1, 0 -> make (-1) 0 0 (-1) 0 0
  | 0, -1 -> make 0 1 (-1) 0 0 0
  | _ ->
      invalid_arg
        (Printf.sprintf "Transform.rotation: non-manhattan direction (%d,%d)" a
           b)

let blit (t : t) dst pos = Array.blit t 0 dst pos ints

(* [compose_into o oi i ii dst pos]: outer (inner p).  Every input is read
   before the first write, so [dst] may alias either operand. *)
let compose_into (o : int array) oi (i : int array) ii (dst : int array) pos =
  let oxx = o.(oi) and oxy = o.(oi + 1) and oyx = o.(oi + 2)
  and oyy = o.(oi + 3) and odx = o.(oi + 4) and ody = o.(oi + 5) in
  let ixx = i.(ii) and ixy = i.(ii + 1) and iyx = i.(ii + 2)
  and iyy = i.(ii + 3) and idx = i.(ii + 4) and idy = i.(ii + 5) in
  dst.(pos) <- (oxx * ixx) + (oxy * iyx);
  dst.(pos + 1) <- (oxx * ixy) + (oxy * iyy);
  dst.(pos + 2) <- (oyx * ixx) + (oyy * iyx);
  dst.(pos + 3) <- (oyx * ixy) + (oyy * iyy);
  dst.(pos + 4) <- (oxx * idx) + (oxy * idy) + odx;
  dst.(pos + 5) <- (oyx * idx) + (oyy * idy) + ody

(* The corners (l, b) and (r, t) map to opposite corners of the image, so
   the image's extent on each axis is spanned by their two images. *)
let apply_box_into (tr : int array) ti ~l ~b ~r ~t (dst : int array) pos =
  let xx = tr.(ti) and xy = tr.(ti + 1) and yx = tr.(ti + 2)
  and yy = tr.(ti + 3) and dx = tr.(ti + 4) and dy = tr.(ti + 5) in
  let x1 = (xx * l) + (xy * b) and x2 = (xx * r) + (xy * t) in
  let y1 = (yx * l) + (yy * b) and y2 = (yx * r) + (yy * t) in
  dst.(pos) <- Int.min x1 x2 + dx;
  dst.(pos + 1) <- Int.min y1 y2 + dy;
  dst.(pos + 2) <- Int.max x1 x2 + dx;
  dst.(pos + 3) <- Int.max y1 y2 + dy

let compose o i =
  let dst = Array.make ints 0 in
  compose_into o 0 i 0 dst 0;
  dst

let then_ t op = compose op t

let apply t (p : Point.t) =
  Point.make
    ((t.(0) * p.x) + (t.(1) * p.y) + t.(4))
    ((t.(2) * p.x) + (t.(3) * p.y) + t.(5))

let inverse t =
  (* The rotation part is orthogonal, so its inverse is its transpose. *)
  let xx = t.(0) and xy = t.(2) and yx = t.(1) and yy = t.(3) in
  make xx xy yx yy
    (-((xx * t.(4)) + (xy * t.(5))))
    (-((yx * t.(4)) + (yy * t.(5))))

let apply_box t (bx : Box.t) =
  let d = Array.make 4 0 in
  apply_box_into t 0 ~l:bx.l ~b:bx.b ~r:bx.r ~t:bx.t d 0;
  Box.make ~l:d.(0) ~b:d.(1) ~r:d.(2) ~t:d.(3)

let equal (a : t) (b : t) =
  a.(0) = b.(0) && a.(1) = b.(1) && a.(2) = b.(2) && a.(3) = b.(3)
  && a.(4) = b.(4) && a.(5) = b.(5)

let pp ppf t =
  Format.fprintf ppf "[%d %d; %d %d]+(%d,%d)" t.(0) t.(1) t.(2) t.(3) t.(4)
    t.(5)
