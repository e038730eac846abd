open Ace_tech
open Ace_netlist

type 'a lattice = {
  bottom : 'a;
  join : 'a -> 'a -> 'a;
  equal : 'a -> 'a -> bool;
}

type 'a spec = {
  lat : 'a lattice;
  seed : 'a array;
  clamp : bool array;
  attr : int array;
  flow :
    Nmos.device_type ->
    gate:'a ->
    gattr:int ->
    src:'a ->
    sattr:int ->
    dattr:int ->
    'a;
}

(* inc.(n): one entry per channel terminal touching n, as
   (far-side net, gate net, device type). *)
let incidence devices net_count =
  let inc = Array.make net_count [] in
  Array.iter
    (fun (d : Circuit.device) ->
      if d.source >= 0 && d.source < net_count && d.drain >= 0
         && d.drain < net_count && d.gate >= 0 && d.gate < net_count
      then begin
        inc.(d.drain) <- (d.source, d.gate, d.dtype) :: inc.(d.drain);
        inc.(d.source) <- (d.drain, d.gate, d.dtype) :: inc.(d.source)
      end)
    devices;
  inc

let inflow_at (spec : 'a spec) inc env n =
  List.fold_left
    (fun acc (other, g, dtype) ->
      spec.lat.join acc
        (spec.flow dtype ~gate:(env g) ~gattr:spec.attr.(g) ~src:(env other)
           ~sattr:spec.attr.(other) ~dattr:spec.attr.(n)))
    spec.lat.bottom inc.(n)

let solve (type a) ?cancel (spec : a spec) devices ~net_count =
  let module L = struct
    type t = a

    let bottom = spec.lat.bottom
    let join = spec.lat.join
    let equal = spec.lat.equal

    (* All lattices used over netlists here are finite; join widens. *)
    let widen = spec.lat.join
  end in
  let module S = Solver.Make (L) in
  let inc = incidence devices net_count in
  let inflow_of env n = inflow_at spec inc env n in
  let system =
    {
      S.size = net_count;
      deps =
        (fun n ->
          if spec.clamp.(n) then []
          else
            List.concat_map (fun (other, g, _) -> [ other; g ]) inc.(n));
      transfer =
        (fun env n ->
          if spec.clamp.(n) then spec.seed.(n)
          else spec.lat.join spec.seed.(n) (inflow_of env n));
    }
  in
  let values, stats = S.solve ?cancel system in
  let inflows = Array.init net_count (inflow_of (fun v -> values.(v))) in
  (values, inflows, stats)
