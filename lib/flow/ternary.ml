open Ace_tech
open Ace_netlist

let s0 = 1
let s1 = 2
let sx = 4
let w0 = 8
let w1 = 16
let wx = 32
let float_bit = 64
let strong = s0 lor s1 lor sx
let weak = w0 lor w1 lor wx
let may0 m = m land (s0 lor w0) <> 0
let may1 m = m land (s1 lor w1) <> 0
let mayx m = m land (sx lor wx lor float_bit) <> 0

let mask_to_string m =
  let bits =
    [
      (s0, "S0"); (s1, "S1"); (sx, "SX"); (w0, "W0"); (w1, "W1"); (wx, "WX");
      (float_bit, "FLOAT");
    ]
  in
  let parts =
    List.filter_map (fun (b, n) -> if m land b <> 0 then Some n else None) bits
  in
  "{" ^ String.concat "," parts ^ "}"

(* Demote strong drive to weak: passing through a depletion load. *)
let weaken m = ((m land strong) lsl 3) lor (m land weak)

(* Everything becomes unknown at its strength: passing through a channel
   whose gate may be X (or may be floating, hence at an unknown level). *)
let xify m =
  (if m land strong <> 0 then sx else 0) lor (if m land weak <> 0 then wx else 0)

(* Channel transfer: what a device passes from [src] towards the other
   terminal given the abstract [gate] value.  Depletion always conducts
   and weakens; enhancement conducts when the gate may be high, and
   contributes an X-ified copy when the gate may be X. *)
let device_flow dtype ~gate ~src =
  let c = src land (strong lor weak) in
  match dtype with
  | Nmos.Depletion -> weaken c
  | Nmos.Enhancement ->
      (if may1 gate then c else 0) lor (if mayx gate then xify c else 0)

let mask_lattice =
  {
    Netgraph.bottom = 0;
    join = ( lor );
    equal = Int.equal;
  }

let bool_lattice =
  {
    Netgraph.bottom = false;
    join = ( || );
    equal = Bool.equal;
  }

(* Heuristic primary inputs: named nets that gate at least one device,
   never appear on a channel, and are not a rail — the same exemption the
   undriven lint rule applies. *)
let default_inputs (c : Circuit.t) ~vdd ~gnd =
  let n = Circuit.net_count c in
  let gates = Array.make n false in
  let channels = Array.make n false in
  Array.iter
    (fun (d : Circuit.device) ->
      if d.gate >= 0 && d.gate < n then gates.(d.gate) <- true;
      if d.source >= 0 && d.source < n then channels.(d.source) <- true;
      if d.drain >= 0 && d.drain < n then channels.(d.drain) <- true)
    c.devices;
  Array.init n (fun i ->
      gates.(i) && (not channels.(i)) && i <> vdd && i <> gnd
      && c.nets.(i).Circuit.names <> [])

(* Phase A: nets that are always driven (conservatively: reachable from a
   rail or input through depletion channels and enhancement channels gated
   by VDD).  The complement is the charge-storage set. *)
let always_driven ?cancel (c : Circuit.t) ~vdd ~gnd ~inputs =
  let n = Circuit.net_count c in
  let seed = Array.make n false in
  let clamp = Array.make n false in
  let attr = Array.make n 0 in
  Array.iteri
    (fun i inp ->
      if inp then begin
        seed.(i) <- true;
        clamp.(i) <- true
      end)
    inputs;
  List.iter
    (fun r ->
      if r >= 0 && r < n then begin
        seed.(r) <- true;
        clamp.(r) <- true
      end)
    [ vdd; gnd ];
  if vdd >= 0 && vdd < n then attr.(vdd) <- 1;
  let spec =
    {
      Netgraph.lat = bool_lattice;
      seed;
      clamp;
      attr;
      flow =
        (fun dtype ~gate:_ ~gattr ~src ~sattr:_ ~dattr:_ ->
          src && (dtype = Nmos.Depletion || gattr = 1));
    }
  in
  let driven, _, stats = Netgraph.solve ?cancel spec c.devices ~net_count:n in
  (driven, stats)

(* Phase B's equation system (seeds, clamps, channel transfer), once the
   floating set is known. *)
let signal_spec (c : Circuit.t) ~vdd ~gnd ~inputs ~floating =
  let n = Circuit.net_count c in
  let seed = Array.init n (fun i -> if floating.(i) then float_bit else 0) in
  let clamp = Array.make n false in
  Array.iteri
    (fun i inp ->
      if inp then begin
        seed.(i) <- s0 lor s1;
        clamp.(i) <- true
      end)
    inputs;
  if vdd >= 0 && vdd < n then begin
    seed.(vdd) <- s1;
    clamp.(vdd) <- true
  end;
  if gnd >= 0 && gnd < n then begin
    seed.(gnd) <- (if gnd = vdd then s0 lor s1 else s0);
    clamp.(gnd) <- true
  end;
  {
    Netgraph.lat = mask_lattice;
    seed;
    clamp;
    attr = Array.make n 0;
    flow =
      (fun dtype ~gate ~gattr:_ ~src ~sattr:_ ~dattr:_ ->
        device_flow dtype ~gate ~src);
  }

type dead = Never_high | Never_low

type verdict = {
  values : int array;
  inflows : int array;
  floating : bool array;
  inputs : bool array;
  vdd : int;
  gnd : int;
  contention : int list;
  bridges : int list;
  dead : (int * dead) list;
  float_nets : int list;
  share : int list;
  x_devices : int list;
  x_nets : int list;
  stats : Solver.stats;
}

let make_verdict (c : Circuit.t) ~vdd ~gnd ~inputs ~floating ~clamp ~values
    ~inflows ~stats =
  let n = Circuit.net_count c in
  let gates = Array.make n false in
  Array.iter
    (fun (d : Circuit.device) ->
      if d.gate >= 0 && d.gate < n then gates.(d.gate) <- true)
    c.devices;
  let in_range i = i >= 0 && i < n in
  let contention = ref [] in
  for i = n - 1 downto 0 do
    let full = values.(i) lor inflows.(i) in
    let inf = inflows.(i) in
    if (full land s1 <> 0 && inf land s0 <> 0)
       || (full land s0 <> 0 && inf land s1 <> 0)
    then contention := i :: !contention
  done;
  let bridges = ref [] in
  let share = ref [] in
  let x_devices = ref [] in
  for di = Array.length c.devices - 1 downto 0 do
    let d = c.devices.(di) in
    if d.dtype = Nmos.Enhancement && d.source <> d.drain
       && in_range d.source && in_range d.drain && in_range d.gate
    then begin
      let gv = values.(d.gate) in
      let conducts = may1 gv || mayx gv in
      if conducts
         && ((d.source = vdd && d.drain = gnd)
            || (d.source = gnd && d.drain = vdd))
         && vdd <> gnd
      then bridges := di :: !bridges;
      if conducts
         && values.(d.source) land float_bit <> 0
         && values.(d.drain) land float_bit <> 0
      then share := di :: !share;
      if mayx gv then x_devices := di :: !x_devices
    end
  done;
  let dead = ref [] in
  for i = n - 1 downto 0 do
    let v = values.(i) in
    if gates.(i) && (not clamp.(i)) && i <> vdd && i <> gnd && v <> 0
       && v land float_bit = 0
       && v land (sx lor wx) = 0
    then
      match (may1 v, may0 v) with
      | true, false -> dead := (i, Never_low) :: !dead
      | false, true -> dead := (i, Never_high) :: !dead
      | _ -> ()
  done;
  let float_nets = ref [] in
  let x_nets = ref [] in
  for i = n - 1 downto 0 do
    let v = values.(i) in
    if (not clamp.(i)) && v land float_bit <> 0 && v <> float_bit then
      float_nets := i :: !float_nets;
    if v land (sx lor wx) <> 0 then x_nets := i :: !x_nets
  done;
  {
    values;
    inflows;
    floating;
    inputs;
    vdd;
    gnd;
    contention = !contention;
    bridges = !bridges;
    dead = !dead;
    float_nets = !float_nets;
    share = !share;
    x_devices = !x_devices;
    x_nets = !x_nets;
    stats;
  }

let merge_stats (a : Solver.stats) (b : Solver.stats) =
  {
    Solver.sccs = b.Solver.sccs;
    max_scc = max a.Solver.max_scc b.Solver.max_scc;
    iterations = a.Solver.iterations + b.Solver.iterations;
    widenings = a.Solver.widenings + b.Solver.widenings;
    converged = a.Solver.converged && b.Solver.converged;
  }

let analyze ?cancel ?inputs (c : Circuit.t) ~vdd ~gnd =
  let n = Circuit.net_count c in
  let inputs =
    match inputs with Some a -> a | None -> default_inputs c ~vdd ~gnd
  in
  let driven, stats_a = always_driven ?cancel c ~vdd ~gnd ~inputs in
  let floating = Array.map not driven in
  let spec = signal_spec c ~vdd ~gnd ~inputs ~floating in
  let values, inflows, stats_b =
    Netgraph.solve ?cancel spec c.devices ~net_count:n
  in
  make_verdict c ~vdd ~gnd ~inputs ~floating ~clamp:spec.Netgraph.clamp ~values
    ~inflows ~stats:(merge_stats stats_a stats_b)

let x_trace v (c : Circuit.t) net =
  let n = Circuit.net_count c in
  if net < 0 || net >= n then [ net ]
  else if v.values.(net) land float_bit <> 0 then [ net ]
  else begin
    (* Backward BFS along channels that can carry X towards [net]; stop at
       the first net that can float (the X source).  Deterministic: devices
       scanned in index order, queue is FIFO. *)
    let adj = Array.make n [] in
    for di = Array.length c.devices - 1 downto 0 do
      let d = c.devices.(di) in
      if d.source >= 0 && d.source < n && d.drain >= 0 && d.drain < n
         && d.gate >= 0 && d.gate < n
      then begin
        let gv = v.values.(d.gate) in
        let conducts =
          match d.dtype with
          | Nmos.Depletion -> true
          | Nmos.Enhancement -> may1 gv || mayx gv
        in
        if conducts then begin
          adj.(d.drain) <- d.source :: adj.(d.drain);
          adj.(d.source) <- d.drain :: adj.(d.source)
        end
      end
    done;
    let parent = Array.make n (-1) in
    let seen = Array.make n false in
    seen.(net) <- true;
    let q = Queue.create () in
    Queue.add net q;
    let source = ref None in
    while !source = None && not (Queue.is_empty q) do
      let u = Queue.pop q in
      List.iter
        (fun w ->
          if !source = None && (not seen.(w)) && mayx v.values.(w) then begin
            seen.(w) <- true;
            parent.(w) <- u;
            if v.values.(w) land float_bit <> 0 then source := Some w
            else Queue.add w q
          end)
        adj.(u)
    done;
    match !source with
    | None -> [ net ]
    | Some s ->
        let rec chain acc u = if u = net then net :: acc else
            chain (u :: acc) parent.(u)
        in
        List.rev (chain [] s)
  end
