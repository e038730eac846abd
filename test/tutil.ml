(* Shared helpers and generators for the test suites. *)
open Ace_geom
open Ace_tech

let box ~l ~b ~r ~t = Box.make ~l ~b ~r ~t

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Random layout generation                                            *)
(* ------------------------------------------------------------------ *)

(* Small λ-aligned layouts: coordinates in [0, extent), sizes 1..12.
   Layer mix favours the conducting/interacting layers so transistors,
   contacts and buried contacts all appear regularly. *)
let gen_layer =
  QCheck2.Gen.frequency
    [
      (4, QCheck2.Gen.return Layer.Diffusion);
      (4, QCheck2.Gen.return Layer.Poly);
      (3, QCheck2.Gen.return Layer.Metal);
      (2, QCheck2.Gen.return Layer.Contact);
      (1, QCheck2.Gen.return Layer.Buried);
      (1, QCheck2.Gen.return Layer.Implant);
    ]

let gen_box ?(extent = 40) () =
  let open QCheck2.Gen in
  let* l = int_range 0 (extent - 2) in
  let* b = int_range 0 (extent - 2) in
  let* w = int_range 1 (min 12 (extent - l - 1)) in
  let* h = int_range 1 (min 12 (extent - b - 1)) in
  return (Box.make ~l ~b ~r:(l + w) ~t:(b + h))

let gen_layout ?(extent = 40) ?(min_boxes = 1) ?(max_boxes = 30) () =
  let open QCheck2.Gen in
  let* n = int_range min_boxes max_boxes in
  list_size (return n)
    (let* lyr = gen_layer in
     let* bx = gen_box ~extent () in
     return (lyr, bx))

let print_layout layout =
  String.concat "; "
    (List.map
       (fun (lyr, bx) -> Format.asprintf "%a %a" Layer.pp lyr Box.pp bx)
       layout)

(* Random hierarchical designs: a few symbols of random geometry, placed
   (possibly overlapping, possibly transformed) at the top level. *)
let gen_transform_ops =
  let open QCheck2.Gen in
  let* dx = int_range 0 60 in
  let* dy = int_range 0 60 in
  let* flavour = int_range 0 5 in
  let base = [ Ace_cif.Ast.Translate (dx, dy) ] in
  return
    (match flavour with
    | 0 | 1 -> base
    | 2 -> Ace_cif.Ast.Mirror_x :: base
    | 3 -> Ace_cif.Ast.Mirror_y :: base
    | 4 -> Ace_cif.Ast.Rotate (0, 1) :: base
    | _ -> Ace_cif.Ast.Rotate (-1, 0) :: base)

let element_of_box lyr (bx : Box.t) =
  Ace_cif.Ast.Shape
    {
      layer = Layer.to_cif_name lyr;
      shape =
        Ace_cif.Ast.Box
          {
            length = Box.width bx;
            width = Box.height bx;
            center = Box.center bx;
            direction = None;
          };
    }

(* Labels land on the min corner of a generated box, so they reliably hit
   conducting geometry and exercise name attachment. *)
let labels_for prefix layout =
  List.filteri (fun i _ -> i < 2) layout
  |> List.mapi (fun i (lyr, (bx : Box.t)) ->
         Ace_cif.Ast.Label
           {
             name = Printf.sprintf "%s%d" prefix i;
             position = Point.make bx.l bx.b;
             layer =
               (if Layer.conducting lyr then Some (Layer.to_cif_name lyr)
                else None);
           })

let gen_design =
  let open QCheck2.Gen in
  let* n_symbols = int_range 1 3 in
  let* symbol_layouts =
    list_size (return n_symbols) (gen_layout ~extent:24 ~max_boxes:10 ())
  in
  let* with_labels = bool in
  let symbols =
    List.mapi
      (fun i layout ->
        {
          Ace_cif.Ast.id = i + 1;
          name = None;
          elements =
            List.map (fun (lyr, bx) -> element_of_box lyr bx) layout
            @ (if with_labels then labels_for (Printf.sprintf "S%d_" i) layout
               else []);
        })
      symbol_layouts
  in
  let* n_calls = int_range 1 6 in
  let* calls =
    list_size (return n_calls)
      (let* sym = int_range 1 n_symbols in
       let* ops = gen_transform_ops in
       return (Ace_cif.Ast.Call { symbol = sym; ops }))
  in
  let* extra = gen_layout ~extent:80 ~min_boxes:0 ~max_boxes:6 () in
  let top =
    calls
    @ List.map (fun (lyr, bx) -> element_of_box lyr bx) extra
    @ if with_labels then labels_for "T" extra else []
  in
  return { Ace_cif.Ast.symbols; top_level = top }

let print_design file = Ace_cif.Writer.to_string file

(* Box centers must be integral for exact CIF round-trips: double all
   coordinates of a layout. *)
let even_layout layout =
  List.map
    (fun (lyr, (bx : Box.t)) ->
      ( lyr,
        Box.make ~l:(2 * bx.l) ~b:(2 * bx.b) ~r:(2 * bx.r) ~t:(2 * bx.t) ))
    layout

let circuit_equal ?with_sizes a b =
  Ace_lvs.Match.exact ?with_sizes a b = Ace_lvs.Match.Equivalent

(* Random abstract circuits (not from layout): for wirelist/SPICE/compare
   round-trip properties. *)
let gen_circuit =
  let open QCheck2.Gen in
  let* n_nets = int_range 2 10 in
  let* n_devs = int_range 0 12 in
  let* devices =
    list_size (return n_devs)
      (let* dtype =
         oneof [ return Nmos.Enhancement; return Nmos.Depletion ]
       in
       let* gate = int_range 0 (n_nets - 1) in
       let* source = int_range 0 (n_nets - 1) in
       let* drain = int_range 0 (n_nets - 1) in
       let* length = int_range 1 20 in
       let* width = int_range 1 20 in
       let* x = int_range (-100) 100 in
       let* y = int_range (-100) 100 in
       return
         {
           Ace_netlist.Circuit.dtype;
           gate;
           source;
           drain;
           length = length * 50;
           width = width * 50;
           location = Point.make x y;
           geometry = [];
         })
  in
  let* named = int_range 0 (min 3 (n_nets - 1)) in
  let nets =
    Array.init n_nets (fun i ->
        {
          Ace_netlist.Circuit.names =
            (if i < named then [ Printf.sprintf "SIG%d" i ] else []);
          location = Point.make i i;
          geometry = [];
        })
  in
  return
    {
      Ace_netlist.Circuit.name = "random";
      devices = Array.of_list devices;
      nets;
    }
