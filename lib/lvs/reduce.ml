open Ace_netlist
module Cancel = Ace_core.Cancel
module Trace = Ace_trace.Trace

(* Working devices: mutable so merges rewrite terminals in place. *)
type wdev = {
  mutable alive : bool;
  dtype : Ace_tech.Nmos.device_type;
  gate : int;
  mutable s : int;
  mutable d : int;
  mutable l : int;
  mutable w : int;
  mutable mult : int;
  location : Ace_geom.Point.t;
}

type t = { circuit : Circuit.t; mult : int array; merged : int }

(* Device-type code for the parallel-rule key and the canonical keys of
   collapsed chains.  Not Refine.type_code: the canonical keys were defined
   with 0 and 1, and changing them would reorient chains. *)
let type_code = function
  | Ace_tech.Nmos.Enhancement -> 0
  | Ace_tech.Nmos.Depletion -> 1

(* Parallel rule: same type, gate, unordered channel pair and length —
   widths and multiplicities add.  One pass over a bucket table. *)
let parallel_pass devs =
  let tbl = Hashtbl.create 64 in
  let merges = ref 0 in
  Array.iter
    (fun dv ->
      if dv.alive then begin
        let lo = min dv.s dv.d and hi = max dv.s dv.d in
        let key = (type_code dv.dtype, dv.gate, lo, hi, dv.l) in
        match Hashtbl.find_opt tbl key with
        | None -> Hashtbl.replace tbl key dv
        | Some keep ->
            keep.w <- keep.w + dv.w;
            keep.mult <- keep.mult + dv.mult;
            dv.alive <- false;
            incr merges
      end)
    devs;
  !merges

(* Series rule: an anonymous net with exactly two channel terminals and
   no gate terminals joins two devices of the same type, gate, width and
   multiplicity — lengths add, the internal net drops out of the
   conduction path.  The gate net must differ from the internal net (a
   gate tied to its own channel is not a plain chain).  What counts as
   anonymous is the caller's [anonymous] predicate: by default any
   unnamed net, but the comparator relaxes it to "no name shared with
   the other side" so reduction stays symmetric when one side auto-names
   its nets (a SPICE round trip names everything). *)
let series_pass ~anonymous (circuit : Circuit.t) devs =
  let n_nets = Array.length circuit.Circuit.nets in
  let chan = Array.make n_nets [] in
  let gates = Array.make n_nets 0 in
  Array.iter
    (fun dv ->
      if dv.alive then begin
        gates.(dv.gate) <- gates.(dv.gate) + 1;
        chan.(dv.s) <- (dv, `S) :: chan.(dv.s);
        if dv.d <> dv.s then chan.(dv.d) <- (dv, `D) :: chan.(dv.d)
      end)
    devs;
  let merges = ref 0 in
  for n = 0 to n_nets - 1 do
    if anonymous circuit.Circuit.nets.(n) && gates.(n) = 0 then
      match chan.(n) with
      | [ (a, ta); (b, tb) ]
        when a != b && a.alive && b.alive && a.dtype = b.dtype
             && a.gate = b.gate && a.w = b.w && a.mult = b.mult
             && a.gate <> n && a.s <> a.d && b.s <> b.d ->
          (* a keeps its far terminal; its near terminal becomes b's far
             terminal; b dies. *)
          let far_b = match tb with `S -> b.d | `D -> b.s in
          (match ta with `S -> a.s <- far_b | `D -> a.d <- far_b);
          a.l <- a.l + b.l;
          b.alive <- false;
          incr merges
      | _ -> ()
  done;
  !merges

let reduce ?(cancel = Cancel.never)
    ?(anonymous = fun (n : Circuit.net) -> n.Circuit.names = [])
    (circuit : Circuit.t) =
  Trace.with_span "lvs.reduce" @@ fun () ->
  let devs =
    Array.map
      (fun (d : Circuit.device) ->
        {
          alive = true;
          dtype = d.dtype;
          gate = d.gate;
          s = d.source;
          d = d.drain;
          l = d.length;
          w = d.width;
          mult = 1;
          location = d.location;
        })
      circuit.Circuit.devices
  in
  let merged = ref 0 in
  let progress = ref true in
  while !progress do
    Cancel.check cancel;
    let m = parallel_pass devs + series_pass ~anonymous circuit devs in
    merged := !merged + m;
    progress := m > 0
  done;
  Trace.count Trace.Counter.Lvs_reductions !merged;
  let alive =
    Array.to_list devs |> List.filter (fun dv -> dv.alive) |> Array.of_list
  in
  let devices =
    Array.map
      (fun dv ->
        {
          Circuit.dtype = dv.dtype;
          gate = dv.gate;
          source = dv.s;
          drain = dv.d;
          length = dv.l;
          width = dv.w;
          location = dv.location;
          geometry = [];
        })
      alive
  in
  {
    circuit = { circuit with Circuit.devices };
    mult = Array.map (fun (dv : wdev) -> dv.mult) alive;
    merged = !merged;
  }

(* ---------- pin-permutation canonicalization ---------------------------- *)

(* Same hashing discipline as Match, so canonical keys and refinement
   colors agree on what "same structure" means. *)
let mix = Refine.mix

let canonicalize ?cancel ?(seed = fun (_ : int) -> 0)
    ?(anonymous = fun (n : Circuit.net) -> n.Circuit.names = []) (r : t) =
  Trace.with_span "lvs.canonicalize" @@ fun () ->
  let c = r.circuit in
  let devs = c.Circuit.devices in
  let nd = Array.length devs in
  let n_nets = Array.length c.Circuit.nets in
  if nd < 2 then r
  else begin
    let gates = Array.make n_nets 0 in
    let chan = Array.make n_nets [] in
    Array.iteri
      (fun i (d : Circuit.device) ->
        gates.(d.gate) <- gates.(d.gate) + 1;
        chan.(d.source) <- i :: chan.(d.source);
        if d.drain <> d.source then chan.(d.drain) <- i :: chan.(d.drain))
      devs;
    (* A chain link: an anonymous net with exactly two channel terminals,
       no gate terminals, joining two distinct devices with separate
       source and drain — the same shape the series rule dissolves, minus
       the same-gate requirement. *)
    let chainable i =
      let d = devs.(i) in
      d.Circuit.source <> d.Circuit.drain
    in
    let link n =
      anonymous c.Circuit.nets.(n)
      && gates.(n) = 0
      &&
      match chan.(n) with
      | [ i; j ] -> i <> j && chainable i && chainable j
      | _ -> false
    in
    let step i n =
      if not (link n) then -1
      else
        match chan.(n) with [ a; b ] -> (if a = i then b else a) | _ -> -1
    in
    let other_net i via =
      let d = devs.(i) in
      if d.Circuit.source = via then d.Circuit.drain else d.Circuit.source
    in
    (* Maximal chains, discovered once per component; rings (every net a
       link) have no endpoints and are skipped. *)
    let in_chain = Array.make nd false in
    let chains = ref [] in
    for i0 = 0 to nd - 1 do
      if
        (not in_chain.(i0))
        && chainable i0
        && (link devs.(i0).Circuit.source || link devs.(i0).Circuit.drain)
      then begin
        (* walk to one end (bounded by nd steps; hitting the bound means a
           ring) *)
        let rec to_end i via steps =
          if steps > nd then None
          else
            let n = other_net i via in
            let j = step i n in
            if j = -1 then Some (i, n)
            else to_end j n (steps + 1)
        in
        let start_via =
          if link devs.(i0).Circuit.source then devs.(i0).Circuit.source
          else devs.(i0).Circuit.drain
        in
        match to_end i0 start_via 0 with
        | None ->
            (* ring: mark the component visited so we do not rediscover it *)
            let rec mark i via =
              if not in_chain.(i) then begin
                in_chain.(i) <- true;
                let n = other_net i via in
                let j = step i n in
                if j <> -1 then mark j n
              end
            in
            in_chain.(i0) <- true;
            let j = step i0 start_via in
            if j <> -1 then mark j start_via
        | Some (e, end_net) ->
            (* walk from endpoint [e] across the whole chain *)
            let rec collect i via devs_acc nets_acc =
              let n = other_net i via in
              let j = step i n in
              if j = -1 then (List.rev (i :: devs_acc), List.rev (n :: nets_acc))
              else collect j n (i :: devs_acc) (n :: nets_acc)
            in
            let cdevs, tail_nets = collect e end_net [] [] in
            let cnets = end_net :: tail_nets in
            List.iter (fun i -> in_chain.(i) <- true) cdevs;
            if List.length cdevs >= 2 then begin
              (* only chains of identical devices are commutative: moving a
                 gate to a device of a different size would change which
                 size pairs with which input *)
              let d0 = devs.(List.hd cdevs) in
              let uniform =
                List.for_all
                  (fun i ->
                    let d = devs.(i) in
                    d.Circuit.dtype = d0.Circuit.dtype
                    && d.Circuit.length = d0.Circuit.length
                    && d.Circuit.width = d0.Circuit.width
                    && r.mult.(i) = r.mult.(List.hd cdevs))
                  cdevs
              in
              if uniform then chains := (cdevs, cnets) :: !chains
            end
      end
    done;
    if !chains = [] then r
    else begin
      (* Collapsed graph: a chain becomes one super-device whose gates
         (role 1) form an *unordered* set, followed by its two ends (role
         2); everything else is carried over unchanged.  Keys computed on
         this graph cannot depend on a gate's position inside its chain —
         the whole point: a NAND with swapped inputs and its reference get
         identical keys. *)
      let nodes = ref [] in
      Array.iteri
        (fun i (d : Circuit.device) ->
          if not in_chain.(i) then
            nodes :=
              ( mix (type_code d.Circuit.dtype) 1,
                [
                  (1, d.Circuit.gate);
                  (2, d.Circuit.source);
                  (2, d.Circuit.drain);
                ] )
              :: !nodes)
        devs;
      List.iter
        (fun (cdevs, cnets) ->
          let d0 = devs.(List.hd cdevs) in
          let last = List.nth cnets (List.length cnets - 1) in
          nodes :=
            ( mix (type_code d0.Circuit.dtype) (List.length cdevs),
              List.map (fun i -> (1, devs.(i).Circuit.gate)) cdevs
              @ [ (2, List.hd cnets); (2, last) ] )
            :: !nodes)
        !chains;
      let nodes = Array.of_list !nodes in
      let g = Refine.graph ~nets:n_nets (Array.map snd nodes) in
      let off = g.Refine.dev_off and tn = g.Refine.term_net in
      let ncolor = Array.init n_nets (fun n -> seed n) in
      let dcolor = Array.map fst nodes in
      let step k =
        let lo = off.(k) and hi = off.(k + 1) in
        let gates = Refine.hash_terms g ncolor lo (hi - 2)
        and ends = Refine.hash_pair ncolor.(tn.(hi - 2)) ncolor.(tn.(hi - 1)) in
        mix (mix (mix dcolor.(k) gates) ends) 19
      in
      ignore (Refine.run ?cancel g ~net_color:ncolor ~dev_color:dcolor step);
      (* reorder each chain whose endpoints the keys can tell apart *)
      let out = Array.copy devs in
      List.iter
        (fun (cdevs, cnets) ->
          let a = List.hd cnets
          and b = List.nth cnets (List.length cnets - 1) in
          if ncolor.(a) <> ncolor.(b) then begin
            let cdevs, cnets =
              if ncolor.(a) < ncolor.(b) then (cdevs, cnets)
              else (List.rev cdevs, List.rev cnets)
            in
            let keyed =
              List.map
                (fun i ->
                  (ncolor.(devs.(i).Circuit.gate), devs.(i).Circuit.gate))
                cdevs
            in
            (* stable: tied gates keep their oriented-walk order, so keys
               that cannot distinguish two inputs leave them untouched *)
            let sorted =
              List.stable_sort (fun (ka, _) (kb, _) -> Int.compare ka kb) keyed
            in
            let nets_arr = Array.of_list cnets in
            List.iteri
              (fun t (i, (_, g)) ->
                out.(i) <-
                  {
                    (devs.(i)) with
                    Circuit.gate = g;
                    source = nets_arr.(t);
                    drain = nets_arr.(t + 1);
                  })
              (List.combine cdevs sorted)
          end)
        !chains;
      { r with circuit = { c with Circuit.devices = out } }
    end
  end
