open Ace_tech

let single_inverter ?lambda () =
  let b = Builder.create ?lambda () in
  let inv = Builder.symbol b ~name:"inverter" (Cells.inverter ~labels:true b) in
  Builder.file b [ Builder.call b inv ~dx:0 ~dy:0 ]

let single_nand2 ?lambda () =
  let b = Builder.create ?lambda () in
  let g = Builder.symbol b ~name:"nand2" (Cells.nand2 ~labels:true b) in
  Builder.file b [ Builder.call b g ~dx:0 ~dy:0 ]

let single_nor2 ?lambda () =
  let b = Builder.create ?lambda () in
  let g = Builder.symbol b ~name:"nor2" (Cells.nor2 ~labels:true b) in
  Builder.file b [ Builder.call b g ~dx:0 ~dy:0 ]

let single_mux2 ?lambda () =
  let b = Builder.create ?lambda () in
  let g = Builder.symbol b ~name:"mux2" (Cells.mux2 ~labels:true b) in
  Builder.file b [ Builder.call b g ~dx:0 ~dy:0 ]

(* Cross-coupled inverter pair.  The forward path uses the standard
   output-to-next-input connector at the cell seam; the feedback path
   taps the second inverter's pull-up poly, runs down its right edge,
   back under both cells below the GND rail, and up into the first
   inverter's input poly.  Everything sits at (4,4) so the feedback
   stays in positive coordinates. *)
let latch ?lambda () =
  let b = Builder.create ?lambda () in
  let w = Cells.cell_width in
  let linked =
    Builder.symbol b ~name:"inv_fwd"
      (Cells.inverter b @ Cells.output_to_next_input b)
  in
  let last = Builder.symbol b ~name:"inv_back" (Cells.inverter b) in
  Builder.file b
    [
      Builder.call b linked ~dx:4 ~dy:4;
      Builder.call b last ~dx:(4 + w) ~dy:4;
      (* feedback: tap east of the second pull-up, down, under, up, in *)
      Builder.box b Layer.Poly ~l:(4 + (2 * w) - 4) ~b:16 ~r:(4 + (2 * w)) ~t_:18;
      Builder.box b Layer.Poly ~l:(4 + (2 * w) - 2) ~b:0 ~r:(4 + (2 * w)) ~t_:18;
      Builder.box b Layer.Poly ~l:0 ~b:0 ~r:(4 + (2 * w)) ~t_:2;
      Builder.box b Layer.Poly ~l:0 ~b:0 ~r:2 ~t_:10;
      Builder.box b Layer.Poly ~l:0 ~b:8 ~r:6 ~t_:10;
      Builder.label b "VDD" ~x:5 ~y:28 ~layer:Layer.Metal ();
      Builder.label b "GND" ~x:5 ~y:5 ~layer:Layer.Metal ();
      Builder.label b "QB" ~x:11 ~y:17 ~layer:Layer.Diffusion ();
      Builder.label b "Q" ~x:(4 + w + 7) ~y:17 ~layer:Layer.Diffusion ();
    ]

let inverter_chain ?lambda ~n () =
  if n <= 0 then invalid_arg "Chips.inverter_chain: n must be positive";
  let b = Builder.create ?lambda () in
  let linked =
    Builder.symbol b ~name:"inv_linked"
      (Cells.inverter b @ Cells.output_to_next_input b)
  in
  let last = Builder.symbol b ~name:"inv_last" (Cells.inverter b) in
  Builder.file b
    (List.init n (fun i ->
         Builder.call b
           (if i < n - 1 then linked else last)
           ~dx:(i * Cells.cell_width) ~dy:0)
    @ [
        Builder.label b "INP" ~x:1 ~y:5 ~layer:Layer.Poly ();
        Builder.label b "VDD" ~x:1 ~y:24 ~layer:Layer.Metal ();
        Builder.label b "GND" ~x:1 ~y:1 ~layer:Layer.Metal ();
        Builder.label b "OUT"
          ~x:(((n - 1) * Cells.cell_width) + 7)
          ~y:13 ~layer:Layer.Diffusion ();
      ])

let four_inverters ?lambda () =
  let b = Builder.create ?lambda () in
  let w = Cells.cell_width in
  let linked =
    Builder.symbol b ~name:"inverter"
      (Cells.inverter b @ Cells.output_to_next_input b)
  in
  let pair =
    Builder.symbol b ~name:"pair"
      [ Builder.call b linked ~dx:0 ~dy:0; Builder.call b linked ~dx:w ~dy:0 ]
  in
  let quad =
    Builder.symbol b ~name:"quad"
      [ Builder.call b pair ~dx:0 ~dy:0; Builder.call b pair ~dx:(2 * w) ~dy:0 ]
  in
  Builder.file b
    [
      Builder.call b quad ~dx:0 ~dy:0;
      Builder.label b "in" ~x:1 ~y:5 ~layer:Layer.Poly ();
      Builder.label b "VDD" ~x:1 ~y:24 ~layer:Layer.Metal ();
      Builder.label b "GND" ~x:1 ~y:1 ~layer:Layer.Metal ();
      Builder.label b "out" ~x:((3 * w) + 7) ~y:13 ~layer:Layer.Diffusion ();
    ]

let ram_array ?lambda ~rows ~cols () = Arrays.mesh ?lambda ~rows ~cols ()

(* ------------------------------------------------------------------ *)
(* Datapath: bit-slices of chained inverters                            *)
(* ------------------------------------------------------------------ *)

let datapath_section b ~bits ~stages ~x0 ~y0 =
  if bits <= 0 || stages <= 0 then invalid_arg "Chips.datapath: bad size";
  let linked =
    Builder.symbol b (Cells.inverter b @ Cells.output_to_next_input b)
  in
  let last = Builder.symbol b (Cells.inverter b) in
  let slice =
    Builder.symbol b ~name:"slice"
      (List.init stages (fun i ->
           Builder.call b
             (if i < stages - 1 then linked else last)
             ~dx:(i * Cells.cell_width) ~dy:0))
  in
  (* vertical pitch leaves a 3λ gap so adjacent slices' rails keep the
     metal spacing rule (and never short VDD into GND) *)
  let pitch = Cells.cell_height + 3 in
  List.init bits (fun j -> Builder.call b slice ~dx:x0 ~dy:(y0 + (j * pitch)))

let datapath ?lambda ~bits ~stages () =
  let b = Builder.create ?lambda () in
  Builder.file b (datapath_section b ~bits ~stages ~x0:0 ~y0:0)

(* ------------------------------------------------------------------ *)
(* Random logic: jittered unique cells plus random metal routing        *)
(* ------------------------------------------------------------------ *)

(* A deterministic split-mix style generator so workloads are reproducible
   across runs and platforms. *)
module Rng = struct
  type t = { mutable state : int }

  let create seed = { state = (seed * 2654435761) lor 1 }

  let next t =
    let s = t.state in
    let s = s lxor (s lsl 13) in
    let s = s lxor (s lsr 7) in
    let s = s lxor (s lsl 17) in
    t.state <- s;
    s land max_int

  let int t bound = if bound <= 0 then 0 else next t mod bound
end

(* An inverter with rng-perturbed decorative details: the perturbations keep
   the circuit an inverter but make the geometry of every cell unique, so a
   hierarchical extractor finds nothing to reuse — the character of the
   papers' irregular chips. *)
let jittered_inverter b rng =
  let input_end = 11 + Rng.int rng 3 in
  let stub_x = Rng.int rng 11 in
  let stub2_x = Rng.int rng 11 in
  [
    Builder.box b Layer.Metal ~l:0 ~b:23 ~r:Cells.cell_width ~t_:Cells.cell_height;
    Builder.box b Layer.Metal ~l:0 ~b:0 ~r:Cells.cell_width ~t_:3;
    Builder.box b Layer.Diffusion ~l:6 ~b:7 ~r:8 ~t_:25;
    Builder.box b Layer.Poly ~l:4 ~b:12 ~r:10 ~t_:22;
    Builder.box b Layer.Buried ~l:5 ~b:12 ~r:9 ~t_:14;
    Builder.box b Layer.Implant ~l:3 ~b:13 ~r:11 ~t_:23;
    Builder.box b Layer.Contact ~l:6 ~b:23 ~r:8 ~t_:25;
    Builder.box b Layer.Diffusion ~l:6 ~b:2 ~r:8 ~t_:7;
    Builder.box b Layer.Poly ~l:0 ~b:4 ~r:input_end ~t_:6;
    Builder.box b Layer.Contact ~l:6 ~b:1 ~r:8 ~t_:3;
    (* decorative rail stubs — unique per cell *)
    Builder.box b Layer.Metal ~l:stub_x ~b:20 ~r:(stub_x + 2) ~t_:23;
    Builder.box b Layer.Metal ~l:stub2_x ~b:3 ~r:(stub2_x + 2) ~t_:4;
  ]

(* Cell frames on a grid with 2λ horizontal gaps and 4λ routing rows. *)
let rl_pitch_x = Cells.cell_width + 2
let rl_pitch_y = Cells.cell_height + 4

let random_wire b rng ~grid_cols ~cells ~index ~x0 ~y0 =
  let src = Rng.int rng cells and dst = Rng.int rng cells in
  if src = dst then []
  else
    let pos i =
      ( x0 + (i mod grid_cols * rl_pitch_x),
        y0 + (i / grid_cols * rl_pitch_y) )
    in
    let sx, sy = pos src and dx, dy = pos dst in
    let vtrack = 14 + Rng.int rng 2 (* x offset of the gap drop *) in
    let htrack = Cells.cell_height + 1 + (index mod 3) in
    [
      (* output tap: contact over the pull-up poly, metal east into the gap *)
      Builder.box b Layer.Contact ~l:(sx + 8) ~b:(sy + 12) ~r:(sx + 10)
        ~t_:(sy + 14);
      Builder.box b Layer.Metal ~l:(sx + 8) ~b:(sy + 12) ~r:(sx + vtrack + 1)
        ~t_:(sy + 14);
      (* up the gap to the routing row above the source row *)
      Builder.box b Layer.Metal ~l:(sx + vtrack) ~b:(sy + 12)
        ~r:(sx + vtrack + 1)
        ~t_:(sy + htrack + 1);
      (* along the routing row to the destination gap *)
      Builder.box b Layer.Metal
        ~l:(min (sx + vtrack) (dx - 2))
        ~b:(sy + htrack)
        ~r:(max (sx + vtrack + 1) (dx - 1))
        ~t_:(sy + htrack + 1);
      (* down the destination's west gap to its input row *)
      Builder.box b Layer.Metal ~l:(dx - 2) ~b:(min (dy + 4) (sy + htrack))
        ~r:(dx - 1)
        ~t_:(max (dy + 6) (sy + htrack + 1));
      (* east into the input poly, contact *)
      Builder.box b Layer.Metal ~l:(dx - 2) ~b:(dy + 4) ~r:(dx + 3) ~t_:(dy + 6);
      Builder.box b Layer.Contact ~l:(dx + 1) ~b:(dy + 4) ~r:(dx + 3) ~t_:(dy + 6);
    ]

let random_logic_section b rng ~cells ~wires ~x0 ~y0 =
  let grid_cols = max 1 (int_of_float (ceil (sqrt (float_of_int cells)))) in
  let cell_elems =
    List.concat
      (List.init cells (fun i ->
           let sym = Builder.symbol b (jittered_inverter b rng) in
           let dx = x0 + (i mod grid_cols * rl_pitch_x) in
           let dy = y0 + (i / grid_cols * rl_pitch_y) in
           [ Builder.call b sym ~dx ~dy ]))
  in
  let wire_elems =
    if cells < 2 then []
    else
      List.concat
        (List.init wires (fun index ->
             random_wire b rng ~grid_cols ~cells ~index ~x0 ~y0))
  in
  (* wires stay top-level geometry: a whole-chip wiring symbol would defeat
     any partitioner, whereas plain boxes can be split at window cuts *)
  cell_elems @ wire_elems

let random_logic ?lambda ~cells ~seed () =
  let b = Builder.create ?lambda () in
  let rng = Rng.create seed in
  Builder.file b
    (random_logic_section b rng ~cells ~wires:(cells / 2) ~x0:0 ~y0:0)

(* ------------------------------------------------------------------ *)
(* Paper-chip recipes                                                   *)
(* ------------------------------------------------------------------ *)

type recipe = {
  chip_name : string;
  devices_target : int;
  character : string;
  build : scale:float -> Ace_cif.Design.t;
}

let scaled target scale = max 1 (int_of_float (float_of_int target *. scale))

(* Sections laid out left to right with wide gaps. *)
let build_mixed ?lambda ~seed sections ~scale =
  let b = Builder.create ?lambda () in
  let rng = Rng.create seed in
  let x0 = ref 0 in
  let elements =
    List.concat_map
      (fun section ->
        match section with
        | `Ram devices ->
            let n = scaled devices scale in
            let side = max 1 (int_of_float (sqrt (float_of_int n))) in
            let cell = Builder.symbol b (Cells.array_cell b) in
            let row =
              Builder.symbol b
                (List.init side (fun i ->
                     Builder.call b cell ~dx:(i * Cells.array_cell_pitch) ~dy:0))
            in
            let arr =
              Builder.symbol b
                (List.init side (fun j ->
                     Builder.call b row ~dx:0 ~dy:(j * Cells.array_cell_pitch)))
            in
            let el = Builder.call b arr ~dx:!x0 ~dy:0 in
            x0 := !x0 + (side * Cells.array_cell_pitch) + 40;
            [ el ]
        | `Datapath devices ->
            let n = scaled devices scale in
            let bits = max 1 (int_of_float (sqrt (float_of_int (n / 2)) /. 2.)) in
            let stages = max 1 (n / 2 / bits) in
            let els = datapath_section b ~bits ~stages ~x0:!x0 ~y0:0 in
            x0 := !x0 + (stages * Cells.cell_width) + 40;
            els
        | `Random devices ->
            let cells = max 1 (scaled devices scale / 2) in
            let els =
              random_logic_section b rng ~cells ~wires:(cells / 2) ~x0:!x0 ~y0:0
            in
            let grid_cols =
              max 1 (int_of_float (ceil (sqrt (float_of_int cells))))
            in
            x0 := !x0 + (grid_cols * rl_pitch_x) + 40;
            els)
      sections
  in
  Ace_cif.Design.of_ast (Builder.file b elements)

let recipe chip_name devices_target character ~seed sections =
  {
    chip_name;
    devices_target;
    character;
    build = (fun ~scale -> build_mixed ~seed sections ~scale);
  }

let paper_suite =
  [
    recipe "cherry" 881 "irregular" ~seed:11 [ `Random 881 ];
    recipe "dchip" 4884 "mixed" ~seed:22 [ `Datapath 2440; `Random 2444 ];
    recipe "schip2" 9473 "irregular" ~seed:33 [ `Random 8050; `Datapath 1423 ];
    recipe "testram" 20480 "regular" ~seed:44 [ `Ram 20480 ];
    recipe "psc" 25521 "mixed" ~seed:55
      [ `Random 15312; `Datapath 5105; `Ram 5104 ];
    recipe "scheme81" 32031 "mixed" ~seed:66
      [ `Ram 12812; `Datapath 9610; `Random 9609 ];
    recipe "riscb" 42084 "regular" ~seed:77
      [ `Ram 21042; `Datapath 16834; `Random 4208 ];
  ]

let comparison_suite =
  List.filter
    (fun r ->
      List.mem r.chip_name [ "cherry"; "dchip"; "schip2"; "testram"; "riscb" ])
    paper_suite
