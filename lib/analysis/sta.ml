open Ace_tech
open Ace_netlist

type timed_gate = { gate : Gates.gate; delay_s : float; arrival_s : float }

type result = {
  critical_path : timed_gate list;
  critical_delay_s : float;
  gate_count : int;
  has_feedback : bool;
}

let gate_inputs = function
  | Gates.Inverter { input; _ } -> [ input ]
  | Gates.Nand { inputs; _ } | Gates.Nor { inputs; _ } -> inputs

(* Channel on-resistance per square, Ω: a typical NMOS figure, also the
   resistance charged to a gate without a depletion pull-up. *)
let r_on_per_square = 10_000.0

let analyze ?(params = Nmos.default) ?vdd ?gnd (c : Circuit.t) =
  let recognition = Gates.recognize ?vdd ?gnd c in
  match recognition.Gates.gates with
  | [] -> None
  | gates ->
      let gates = Array.of_list gates in
      let n = Array.length gates in
      (* pull-up resistance per output net *)
      let pullup_r = Hashtbl.create 16 in
      Array.iter
        (fun (d : Circuit.device) ->
          if d.dtype = Nmos.Depletion then begin
            let r = Parasitics.device_resistance ~r_on_per_square d in
            if not (Hashtbl.mem pullup_r d.gate) then
              Hashtbl.replace pullup_r d.gate r
          end)
        c.Circuit.devices;
      (* capacitive load on a net: all gates it drives, plus wire cap when
         geometry is available *)
      let load_cap net =
        let gate_cap =
          Array.fold_left
            (fun acc (d : Circuit.device) ->
              if d.gate = net then acc +. Parasitics.device_gate_cap ~params d
              else acc)
            0.0 c.Circuit.devices
        in
        let wire_cap =
          match Parasitics.net_parasitics ~params c net with
          | p -> p.Parasitics.cap_ff
          | exception Invalid_argument _ -> 0.0
        in
        gate_cap +. wire_cap
      in
      let delay i =
        let out = Gates.gate_output gates.(i) in
        let r =
          match Hashtbl.find_opt pullup_r out with
          | Some r -> r
          | None -> r_on_per_square
        in
        (* fF × Ω → seconds *)
        r *. load_cap out *. 1e-15
      in
      let delays = Array.init n delay in
      (* successor edges: gate i drives gate j when output(i) ∈ inputs(j) *)
      let by_input = Hashtbl.create 16 in
      Array.iteri
        (fun j g ->
          List.iter
            (fun input ->
              let prev = try Hashtbl.find by_input input with Not_found -> [] in
              Hashtbl.replace by_input input (j :: prev))
            (gate_inputs g))
        gates;
      let successors i =
        match Hashtbl.find_opt by_input (Gates.gate_output gates.(i)) with
        | Some js -> js
        | None -> []
      in
      (* longest path by memoized DFS; cycles contribute no further depth
         but are reported *)
      let memo = Array.make n None in
      let on_stack = Array.make n false in
      let has_feedback = ref false in
      let rec longest i =
        match memo.(i) with
        | Some v -> v
        | None ->
            if on_stack.(i) then begin
              has_feedback := true;
              (0.0, [])
            end
            else begin
              on_stack.(i) <- true;
              let best_tail =
                List.fold_left
                  (fun (bd, bp) j ->
                    let d, p = longest j in
                    if d > bd then (d, p) else (bd, bp))
                  (0.0, []) (successors i)
              in
              on_stack.(i) <- false;
              let v = (delays.(i) +. fst best_tail, i :: snd best_tail) in
              memo.(i) <- Some v;
              v
            end
      in
      let best =
        Array.to_list (Array.init n longest)
        |> List.fold_left (fun (bd, bp) (d, p) -> if d > bd then (d, p) else (bd, bp))
             (0.0, [])
      in
      let _, path_indices = best in
      let critical_path =
        let arrival = ref 0.0 in
        List.map
          (fun i ->
            arrival := !arrival +. delays.(i);
            { gate = gates.(i); delay_s = delays.(i); arrival_s = !arrival })
          path_indices
      in
      Some
        {
          critical_path;
          critical_delay_s = fst best;
          gate_count = n;
          has_feedback = !has_feedback;
        }

(* As [analyze], but explains itself: a missing rail (the usual reason
   recognition finds no gates) comes back as a "missing-rail" diagnostic
   instead of a silent [None]. *)
let analyze_checked ?params ?(vdd = "VDD") ?(gnd = "GND") (c : Circuit.t) =
  let missing name =
    Ace_diag.Diag.error ~code:"missing-rail"
      (Printf.sprintf
         "no net named %S (even case-insensitively): timing analysis needs \
          both power rails"
         name)
  in
  let diags =
    (match Circuit.find_rail c vdd with None -> [ missing vdd ] | Some _ -> [])
    @
    match Circuit.find_rail c gnd with None -> [ missing gnd ] | Some _ -> []
  in
  match diags with
  | _ :: _ -> (None, diags)
  | [] -> (analyze ?params ~vdd ~gnd c, [])

let pp_result c ppf r =
  Format.fprintf ppf
    "%d gates, critical path %d stages, %.2f ns%s@."
    r.gate_count
    (List.length r.critical_path)
    (r.critical_delay_s *. 1e9)
    (if r.has_feedback then " (feedback loops present)" else "");
  List.iter
    (fun tg ->
      Format.fprintf ppf "  %a  +%.3f ns  @@ %.3f ns@."
        (Gates.pp_gate c) tg.gate (tg.delay_s *. 1e9) (tg.arrival_s *. 1e9))
    r.critical_path
