(* The list-and-hashtable refinement loops that Ace_lvs.Refine replaced,
   kept as an oracle for test_lvs: the array kernel must reproduce their
   colors bit for bit, round by round.  Each function is the earlier
   implementation with only its inputs made explicit; none of it is
   tuned, and none of it should be. *)

open Ace_netlist
module Reduce = Ace_lvs.Reduce
module Nmos = Ace_tech.Nmos

let mix h x = (h * 1000003) + x + 0x9e3779b9

let hash_sorted ints =
  List.fold_left mix 0x1234567 (List.sort Int.compare ints) land max_int

let str_code s =
  String.fold_left (fun h c -> mix h (Char.code c)) 0x5EED s land max_int

let type_code = function Nmos.Enhancement -> 3 | Nmos.Depletion -> 4
let distinct a = List.length (List.sort_uniq Int.compare (Array.to_list a))

(* ---------- Match: one side and one round ------------------------------- *)

type side = {
  c : Circuit.t;
  nets : int array;
  net_pos : (int, int) Hashtbl.t;
  mutable net_color : int array;
  mutable dev_color : int array;
}

let side_of (c : Circuit.t) =
  let used = Array.make (Array.length c.Circuit.nets) false in
  Array.iter
    (fun (d : Circuit.device) ->
      used.(d.gate) <- true;
      used.(d.source) <- true;
      used.(d.drain) <- true)
    c.Circuit.devices;
  let nets = ref [] in
  Array.iteri (fun i u -> if u then nets := i :: !nets) used;
  let nets = Array.of_list (List.rev !nets) in
  let net_pos = Hashtbl.create (Array.length nets) in
  Array.iteri (fun i n -> Hashtbl.replace net_pos n i) nets;
  { c; nets; net_pos; net_color = [||]; dev_color = [||] }

let round side =
  let c = side.c in
  let pos net = Hashtbl.find side.net_pos net in
  let dev_color' =
    Array.mapi
      (fun i (d : Circuit.device) ->
        let g = side.net_color.(pos d.gate) in
        let s = side.net_color.(pos d.source)
        and dr = side.net_color.(pos d.drain) in
        let sd = hash_sorted [ s; dr ] in
        mix (mix (mix side.dev_color.(i) g) sd) 17)
      c.Circuit.devices
  in
  let incidences = Array.make (Array.length side.nets) [] in
  Array.iteri
    (fun i (d : Circuit.device) ->
      let add role net =
        let p = pos net in
        incidences.(p) <- mix dev_color'.(i) role :: incidences.(p)
      in
      add 1 d.gate;
      add 2 d.source;
      add 2 d.drain)
    c.Circuit.devices;
  let net_color' =
    Array.mapi
      (fun i _ -> mix side.net_color.(i) (hash_sorted incidences.(i)))
      side.nets
  in
  side.dev_color <- dev_color';
  side.net_color <- net_color'

(* ---------- canonicalize's loop over a collapsed graph ------------------- *)

(* [nodes] are (tag, gate nets, channel-end nets).  Returns the net colors
   at the start of every round, the final net colors and the round count. *)
let canon_loop ~n_nets ~seed nodes =
  let used = Array.make n_nets false in
  Array.iter
    (fun (_, cg, ct) ->
      List.iter (fun n -> used.(n) <- true) cg;
      List.iter (fun n -> used.(n) <- true) ct)
    nodes;
  let ncolor = Array.init n_nets seed in
  let dcolor = Array.map (fun (tag, _, _) -> tag) nodes in
  let distinct_used () =
    let l = ref [] in
    Array.iteri (fun n u -> if u then l := ncolor.(n) :: !l) used;
    Array.iter (fun ccol -> l := ccol :: !l) dcolor;
    List.length (List.sort_uniq Int.compare !l)
  in
  let snapshots = ref [] in
  let cap = Array.length nodes + n_nets + 2 in
  let stable = ref false in
  let rounds = ref 0 in
  while not !stable do
    incr rounds;
    snapshots := Array.copy ncolor :: !snapshots;
    let before = distinct_used () in
    Array.iteri
      (fun k (_, cg, ct) ->
        dcolor.(k) <-
          mix
            (mix
               (mix dcolor.(k) (hash_sorted (List.map (fun g -> ncolor.(g)) cg)))
               (hash_sorted (List.map (fun t -> ncolor.(t)) ct)))
            19)
      nodes;
    let incid = Array.make n_nets [] in
    Array.iteri
      (fun k (_, cg, ct) ->
        List.iter (fun g -> incid.(g) <- mix dcolor.(k) 1 :: incid.(g)) cg;
        List.iter (fun t -> incid.(t) <- mix dcolor.(k) 2 :: incid.(t)) ct)
      nodes;
    Array.iteri
      (fun n u -> if u then ncolor.(n) <- mix ncolor.(n) (hash_sorted incid.(n)))
      used;
    let after = distinct_used () in
    if after <= before || !rounds > cap then stable := true
  done;
  (List.rev !snapshots, ncolor, !rounds)

(* ---------- the hierarchical glue loop ------------------------------------ *)

(* [devs] are (tag, (role, net) terminals); [seed] colors the nets.
   Returns the sorted used-net and device color multisets. *)
let glue_refine ~n_nets ~seed devs =
  let ncolor = Array.init n_nets seed in
  let dcolor = Array.map fst devs in
  let used = Array.make n_nets false in
  Array.iter (fun (_, terms) -> List.iter (fun (_, n) -> used.(n) <- true) terms) devs;
  let distinct () =
    let l = ref [] in
    Array.iteri (fun n u -> if u then l := ncolor.(n) :: !l) used;
    Array.iter (fun c -> l := c :: !l) dcolor;
    List.length (List.sort_uniq Int.compare !l)
  in
  let cap = n_nets + Array.length devs + 2 in
  let rounds = ref 0 in
  let stable = ref false in
  while not !stable do
    incr rounds;
    let before = distinct () in
    Array.iteri
      (fun i (_, terms) ->
        dcolor.(i) <-
          mix dcolor.(i)
            (hash_sorted (List.map (fun (role, n) -> mix ncolor.(n) role) terms)))
      devs;
    let incid = Array.make n_nets [] in
    Array.iteri
      (fun i (_, terms) ->
        List.iter (fun (role, n) -> incid.(n) <- mix dcolor.(i) role :: incid.(n)) terms)
      devs;
    Array.iteri
      (fun n u -> if u then ncolor.(n) <- mix ncolor.(n) (hash_sorted incid.(n)))
      used;
    let after = distinct () in
    if after <= before || !rounds > cap then stable := true
  done;
  let net_multiset = ref [] in
  Array.iteri (fun n u -> if u then net_multiset := ncolor.(n) :: !net_multiset) used;
  ( List.sort Int.compare !net_multiset,
    List.sort Int.compare (Array.to_list dcolor) )

(* ---------- canonicalize, whole -------------------------------------------- *)

let chain_type_code = function Nmos.Enhancement -> 0 | Nmos.Depletion -> 1

let canonicalize ?(seed = fun (_ : int) -> 0)
    ?(anonymous = fun (n : Circuit.net) -> n.Circuit.names = []) (r : Reduce.t) =
  let c = r.Reduce.circuit in
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
                    && r.Reduce.mult.(i) = r.Reduce.mult.(List.hd cdevs))
                  cdevs
              in
              if uniform then chains := (cdevs, cnets) :: !chains
            end
      end
    done;
    if !chains = [] then r
    else begin
      (* collapsed graph: chains become super-devices, everything else is
         carried over unchanged *)
      let nodes = ref [] in
      Array.iteri
        (fun i (d : Circuit.device) ->
          if not in_chain.(i) then
            nodes :=
              ( mix (chain_type_code d.Circuit.dtype) 1,
                [ d.Circuit.gate ],
                [ d.Circuit.source; d.Circuit.drain ] )
              :: !nodes)
        devs;
      List.iter
        (fun (cdevs, cnets) ->
          let d0 = devs.(List.hd cdevs) in
          nodes :=
            ( mix (chain_type_code d0.Circuit.dtype) (List.length cdevs),
              List.map (fun i -> devs.(i).Circuit.gate) cdevs,
              [ List.hd cnets; List.nth cnets (List.length cnets - 1) ] )
            :: !nodes)
        !chains;
      let _, ncolor, _ = canon_loop ~n_nets ~seed (Array.of_list !nodes) in
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
      { r with Reduce.circuit = { c with Circuit.devices = out } }
    end
  end

(* ---------- the comparator's refinement, up to its final colors ----------- *)

(* Everything Match.run_full does before it reads the colors: reduction
   (shared code), canonicalization, seeding and the stop loop.  Returns the
   round count and each side's (net, color) pairs. *)
let match_colors ?(vdd = "VDD") ?(gnd = "GND") ~layout ~reference () =
  let name_set (c : Circuit.t) =
    let s = Hashtbl.create 32 in
    Array.iter
      (fun (n : Circuit.net) ->
        List.iter
          (fun nm -> Hashtbl.replace s (String.uppercase_ascii nm) ())
          n.Circuit.names)
      c.Circuit.nets;
    s
  in
  let sa = name_set layout and sb = name_set reference in
  let anonymous (n : Circuit.net) =
    not
      (List.exists
         (fun nm ->
           let k = String.uppercase_ascii nm in
           Hashtbl.mem sa k && Hashtbl.mem sb k)
         n.Circuit.names)
  in
  let ra = Reduce.reduce ~anonymous layout
  and rb = Reduce.reduce ~anonymous reference in
  let canon_seed (this : Circuit.t) (other : Circuit.t) =
    let uniq (c : Circuit.t) =
      let tbl = Hashtbl.create 32 in
      Array.iteri
        (fun n (net : Circuit.net) ->
          List.iter
            (fun name ->
              let key = String.uppercase_ascii name in
              Hashtbl.replace tbl key
                (match Hashtbl.find_opt tbl key with
                | None -> `One n
                | Some _ -> `Many))
            net.Circuit.names)
        c.Circuit.nets;
      tbl
    in
    let ut = uniq this and uo = uniq other in
    let colors = Hashtbl.create 32 in
    Hashtbl.iter
      (fun key v ->
        match (v, Hashtbl.find_opt uo key) with
        | `One n, Some (`One _) -> Hashtbl.replace colors n (str_code key)
        | _ -> ())
      ut;
    List.iter
      (fun (rail, color) ->
        match (Circuit.find_rail this rail, Circuit.find_rail other rail) with
        | Some n, Some _ -> Hashtbl.replace colors n color
        | _ -> ())
      [ (vdd, 0x56DD); (gnd, 0x06ED) ];
    fun n -> match Hashtbl.find_opt colors n with Some c -> c | None -> 0
  in
  let ca = ra.Reduce.circuit and cb = rb.Reduce.circuit in
  let ra = canonicalize ~seed:(canon_seed ca cb) ~anonymous ra
  and rb = canonicalize ~seed:(canon_seed cb ca) ~anonymous rb in
  let a = side_of ra.Reduce.circuit and b = side_of rb.Reduce.circuit in
  let names_of side =
    let tbl = Hashtbl.create 32 in
    Array.iter
      (fun n ->
        List.iter
          (fun name ->
            let key = String.uppercase_ascii name in
            Hashtbl.replace tbl key
              (match Hashtbl.find_opt tbl key with
              | None -> `One n
              | Some _ -> `Many))
          side.c.Circuit.nets.(n).Circuit.names)
      side.nets;
    tbl
  in
  let ta = names_of a and tb = names_of b in
  let seeds = Hashtbl.create 32 in
  Hashtbl.iter
    (fun key va ->
      match (va, Hashtbl.find_opt tb key) with
      | `One na, Some (`One nb) ->
          let color = str_code key in
          Hashtbl.replace seeds (`A, na) color;
          Hashtbl.replace seeds (`B, nb) color
      | _ -> ())
    ta;
  List.iter
    (fun (rail, color) ->
      match (Circuit.find_rail a.c rail, Circuit.find_rail b.c rail) with
      | Some na, Some nb
        when Hashtbl.mem a.net_pos na && Hashtbl.mem b.net_pos nb ->
          Hashtbl.replace seeds (`A, na) color;
          Hashtbl.replace seeds (`B, nb) color
      | _ -> ())
    [ (vdd, 0x56DD); (gnd, 0x06ED) ];
  let init tag side =
    side.net_color <-
      Array.map
        (fun n ->
          match Hashtbl.find_opt seeds (tag, n) with Some c -> c | None -> 0)
        side.nets;
    side.dev_color <-
      Array.map
        (fun (d : Circuit.device) -> type_code d.dtype)
        side.c.Circuit.devices
  in
  init `A a;
  init `B b;
  let rounds = ref 0 in
  let cap =
    Array.length a.nets + Array.length a.c.Circuit.devices
    + Array.length b.nets
    + Array.length b.c.Circuit.devices + 2
  in
  let stable = ref false in
  while not !stable do
    incr rounds;
    let before =
      distinct a.net_color + distinct a.dev_color + distinct b.net_color
      + distinct b.dev_color
    in
    round a;
    round b;
    let after =
      distinct a.net_color + distinct a.dev_color + distinct b.net_color
      + distinct b.dev_color
    in
    if after <= before || !rounds > cap then stable := true
  done;
  let net_colors side =
    Array.to_list (Array.mapi (fun i n -> (n, side.net_color.(i))) side.nets)
  in
  (!rounds, net_colors a, net_colors b)
