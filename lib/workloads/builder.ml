open Ace_tech
open Ace_geom

type t = {
  lam : int;
  mutable symbols : Ace_cif.Ast.symbol_def list;  (* reversed *)
  mutable next_id : int;
}

let create ?(lambda = 250) () =
  (* even λ keeps CIF box centers integral, so boxes round-trip exactly *)
  if lambda <= 0 || lambda mod 2 <> 0 then
    invalid_arg "Builder.create: lambda must be positive and even";
  { lam = lambda; symbols = []; next_id = 1 }

let lambda t = t.lam

let box t layer ~l ~b ~r ~t_ =
  if l >= r || b >= t_ then invalid_arg "Builder.box: degenerate box";
  let s = t.lam in
  Ace_cif.Ast.Shape
    {
      layer = Layer.to_cif_name layer;
      shape =
        Ace_cif.Ast.Box
          {
            length = (r - l) * s;
            width = (t_ - b) * s;
            center = Point.make ((l + r) * s / 2) ((b + t_) * s / 2);
            direction = None;
          };
    }

let label t name ~x ~y ?layer () =
  Ace_cif.Ast.Label
    {
      name;
      position = Point.make (x * t.lam) (y * t.lam);
      layer = Option.map Layer.to_cif_name layer;
    }

let symbol t ?name elements =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.symbols <- { Ace_cif.Ast.id; name; elements } :: t.symbols;
  id

let translate t ~dx ~dy = Ace_cif.Ast.Translate (dx * t.lam, dy * t.lam)

let call t id ~dx ~dy =
  Ace_cif.Ast.Call { symbol = id; ops = [ translate t ~dx ~dy ] }

let file t top_level =
  { Ace_cif.Ast.symbols = List.rev t.symbols; top_level }

let design t top_level = Ace_cif.Design.of_ast (file t top_level)
