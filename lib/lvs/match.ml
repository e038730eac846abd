open Ace_netlist
module Diag = Ace_diag.Diag
module Cancel = Ace_core.Cancel
module Trace = Ace_trace.Trace
module Point = Ace_geom.Point
module Nmos = Ace_tech.Nmos

type finding = {
  code : string;
  severity : Diag.severity;
  message : string;
  anchor : string;
  layout_net : int option;
}

type stats = {
  layout_devices : int;
  ref_devices : int;
  layout_nets : int;
  ref_nets : int;
  reductions : int;
  rounds : int;
  matched : int;
}

type outcome = Clean | Mismatch | Inconclusive
type result = { outcome : outcome; findings : finding list; stats : stats }

type reason =
  | Device_counts of int * int
  | Net_counts of int * int
  | Structure of string

type verdict = Equivalent | Distinct of reason

let reason_to_string = function
  | Device_counts (a, b) -> Printf.sprintf "device counts differ: %d vs %d" a b
  | Net_counts (a, b) ->
      Printf.sprintf "connected net counts differ: %d vs %d" a b
  | Structure why -> why

let verdict_to_string = function
  | Equivalent -> "equivalent"
  | Distinct why -> "distinct: " ^ reason_to_string why

let mix = Refine.mix

(* One side of a comparison: a circuit restricted to its comparison nets
   [nets] (ascending), with per-round device color history (newest first)
   for the localization pairing.  [net_pos] maps a circuit net to its
   comparison position (-1 for other nets).  In [graph], device [i]'s
   terminals are its gate, source and drain, at [3i], [3i + 1] and
   [3i + 2]. *)
type side = {
  c : Circuit.t;
  mult : int array;
  nets : int array;
  net_pos : int array;
  graph : Refine.t;
  net_color : int array;  (** refined in place *)
  mutable dev_color : int array;  (** fresh each round in {!run_full} *)
  mutable dev_hist : int array list;
}

(* The nets carrying at least one device terminal, ascending: {!run_full}
   compares only these, since deviceless nets contribute no structure to
   a switch-level comparison. *)
let terminal_nets (c : Circuit.t) =
  let used = Array.make (Array.length c.Circuit.nets) false in
  Array.iter
    (fun (d : Circuit.device) ->
      used.(d.gate) <- true;
      used.(d.source) <- true;
      used.(d.drain) <- true)
    c.Circuit.devices;
  Array.of_seq
    (Seq.filter (Array.get used) (Seq.init (Array.length used) Fun.id))

let side_of c mult nets =
  let devices = c.Circuit.devices in
  let n_nets = Array.length nets in
  let net_pos = Array.make (Array.length c.Circuit.nets) (-1) in
  Array.iteri (fun p n -> net_pos.(n) <- p) nets;
  let graph =
    Refine.graph ~nets:n_nets
      (Array.map
         (fun (d : Circuit.device) ->
           [
             (1, net_pos.(d.gate));
             (2, net_pos.(d.source));
             (2, net_pos.(d.drain));
           ])
         devices)
  in
  {
    c;
    mult;
    nets;
    net_pos;
    graph;
    net_color = Array.make n_nets 0;
    dev_color =
      Array.map (fun (d : Circuit.device) -> Refine.type_code d.dtype) devices;
    dev_hist = [];
  }

(* Net-name seeds: a (case-insensitive) name attached to exactly one
   comparison net on EACH side pins those two nets to the same initial
   color; the power rails are pinned through Circuit.find_rail.  Names
   present on only one side are ignored — they must not be able to turn an
   isomorphic pair into a mismatch. *)
let seed_table a b ~vdd ~gnd =
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
  let seeds = Hashtbl.create 32 (* (side-id, net) -> color *) in
  Hashtbl.iter
    (fun key va ->
      match (va, Hashtbl.find_opt tb key) with
      | `One na, Some (`One nb) ->
          let color = Refine.str_code key in
          Hashtbl.replace seeds (`A, na) color;
          Hashtbl.replace seeds (`B, nb) color
      | _ -> ())
    ta;
  List.iter
    (fun (rail, color) ->
      match (Circuit.find_rail a.c rail, Circuit.find_rail b.c rail) with
      | Some na, Some nb when a.net_pos.(na) >= 0 && b.net_pos.(nb) >= 0 ->
          Hashtbl.replace seeds (`A, na) color;
          Hashtbl.replace seeds (`B, nb) color
      | _ -> ())
    [ (vdd, 0x56DD); (gnd, 0x06ED) ];
  seeds

let init_colors tag seeds side =
  Array.iteri
    (fun p n ->
      side.net_color.(p) <-
        (match Hashtbl.find_opt seeds (tag, n) with Some c -> c | None -> 0))
    side.nets;
  side.dev_hist <- [ side.dev_color ]

(* The device half of a round: device [k] rehashes from its color in
   [dev_color], its gate's color and the unordered source/drain pair. *)
let device_color side dev_color k =
  let nc = side.net_color and t = side.graph.Refine.term_net in
  let i = 3 * k in
  let sd = Refine.hash_pair nc.(t.(i + 1)) nc.(t.(i + 2)) in
  mix (mix (mix dev_color.(k) nc.(t.(i))) sd) 17

(* One refinement round of {!run_full}: devices rehash ({!device_color}),
   then nets from the incident device colors with terminal roles (gate 1,
   channel 2).  Each round's device colors are a fresh array, so the
   history can keep it as is. *)
let round side =
  let dc' =
    Array.init (Array.length side.dev_color) (device_color side side.dev_color)
  in
  Refine.refine_nets side.graph ~dev_color:dc' ~net_color:side.net_color;
  side.dev_color <- dc';
  side.dev_hist <- dc' :: side.dev_hist

let multiset a =
  let m = Array.copy a in
  Refine.sort m 0 (Array.length m);
  m

(* When refinement individuated every net and device, check the mapping
   the colors induce edge by edge: each device of [a] and the device of
   [b] with its color must have corresponding gates and, in either
   order, corresponding channel terminals.  Returns the first
   inconsistency; [None] when the mapping holds, or when some color class
   has several members and there is no mapping to check.  The callers
   have already found the color multisets equal. *)
let mapping_error a b =
  let s = Refine.scratch () in
  let singletons colors = Refine.distinct s colors = Array.length colors in
  if
    not
      (singletons a.net_color && singletons a.dev_color
     && singletons b.net_color && singletons b.dev_color)
  then None
  else begin
    let index_by colors =
      let tbl = Hashtbl.create (Array.length colors) in
      Array.iteri (fun i c -> Hashtbl.replace tbl c i) colors;
      tbl
    in
    let net_of_b = index_by b.net_color and dev_of_b = index_by b.dev_color in
    let net_maps na nb =
      match Hashtbl.find_opt net_of_b a.net_color.(a.net_pos.(na)) with
      | Some x -> x = b.net_pos.(nb)
      | None -> false
    in
    let devices = a.c.Circuit.devices in
    let rec check i =
      if i = Array.length devices then None
      else
        match Hashtbl.find_opt dev_of_b a.dev_color.(i) with
        | None -> Some "unmatched device color"
        | Some j ->
            let d = devices.(i) and d' = b.c.Circuit.devices.(j) in
            if not (net_maps d.gate d'.gate) then
              Some (Printf.sprintf "gate of device %d maps inconsistently" i)
            else if
              not
                (net_maps d.source d'.source && net_maps d.drain d'.drain
                || net_maps d.source d'.drain && net_maps d.drain d'.source)
            then
              Some
                (Printf.sprintf "source/drain of device %d map inconsistently"
                   i)
            else check (i + 1)
    in
    check 0
  end

(* ---------- rendering helpers ------------------------------------------ *)

let um v = Printf.sprintf "%.2f" (float_of_int v /. 100.)
let tname t = Nmos.device_type_name t

let dev_site side i =
  let d = side.c.Circuit.devices.(i) in
  Printf.sprintf "%s@%d,%d" (tname d.dtype) d.location.Point.x
    d.location.Point.y

let net_name side n = Circuit.net_display_name side.c n

(* Cap per-code finding floods at [cap]; the overflow note keeps a stable
   anchor so it too can be waived. *)
let cap_findings cap fs =
  let n = List.length fs in
  if cap <= 0 || n <= cap then fs
  else
    match fs with
    | [] -> fs
    | { code; severity; _ } :: _ ->
        List.filteri (fun i _ -> i < cap) fs
        @ [
            {
              code;
              severity;
              message = Printf.sprintf "... and %d more %s findings" (n - cap) code;
              anchor = "more";
              layout_net = None;
            };
          ]

(* ---------- main -------------------------------------------------------- *)

let run_full ?(cancel = Cancel.never) ?(with_sizes = true) ?(tolerance = 0.)
    ?(vdd = "VDD") ?(gnd = "GND") ?(max_findings = 20) ~layout ~reference () =
  (* A name only one side knows carries no matching information, so it
     must not block the series rule either — a SPICE round trip
     auto-names every net, and reduction has to stay symmetric under
     that.  Names present on both sides are potential hints and
     protect their nets from reduction. *)
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
  let ra = Reduce.reduce ~cancel ~anonymous layout
  and rb = Reduce.reduce ~cancel ~anonymous reference in
  (* Canonicalize commutative series gate chains before refinement, with
     seeds both sides compute identically (unique shared names, rails),
     so a NAND drawn with swapped inputs lines up with its layout. *)
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
        | `One n, Some (`One _) ->
            Hashtbl.replace colors n (Refine.str_code key)
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
  let ra = Reduce.canonicalize ~cancel ~seed:(canon_seed ca cb) ~anonymous ra
  and rb = Reduce.canonicalize ~cancel ~seed:(canon_seed cb ca) ~anonymous rb in
  let side (r : Reduce.t) =
    side_of r.Reduce.circuit r.Reduce.mult (terminal_nets r.Reduce.circuit)
  in
  let a = side ra and b = side rb in
  let rounds =
    Trace.with_span "lvs.refine" (fun () ->
        let seeds = seed_table a b ~vdd ~gnd in
        init_colors `A seeds a;
        init_colors `B seeds b;
        let cap =
          Array.length a.nets + Array.length a.c.Circuit.devices
          + Array.length b.nets
          + Array.length b.c.Circuit.devices + 2
        in
        (* distinct counts only change in a round, so each round's [after]
           is the next round's [before] *)
        let s = Refine.scratch () in
        let distinct_colors () =
          Refine.distinct s a.net_color + Refine.distinct s a.dev_color
          + Refine.distinct s b.net_color + Refine.distinct s b.dev_color
        in
        let rounds = ref 0 in
        let before = ref (distinct_colors ()) in
        let stable = ref false in
        while not !stable do
          Cancel.check cancel;
          incr rounds;
          round a;
          round b;
          let after = distinct_colors () in
          if after <= !before || !rounds > cap then stable := true;
          before := after
        done;
        !rounds)
  in
  Trace.count Trace.Counter.Lvs_rounds rounds;
  let stats matched =
    {
      layout_devices = Array.length a.c.Circuit.devices;
      ref_devices = Array.length b.c.Circuit.devices;
      layout_nets = Array.length a.nets;
      ref_nets = Array.length b.nets;
      reductions = ra.Reduce.merged + rb.Reduce.merged;
      rounds;
      matched;
    }
  in
  let size_ok la lb =
    lb = 0 || la = lb
    || float_of_int (abs (la - lb)) <= tolerance *. float_of_int (max la lb)
  in
  let net_colors side =
    Array.to_list (Array.mapi (fun i n -> (n, side.net_color.(i))) side.nets)
  in
  let result =
  if
    multiset a.dev_color = multiset b.dev_color
    && multiset a.net_color = multiset b.net_color
  then begin
    (* Structurally equivalent.  Verify the induced mapping exactly when
       refinement individuated everything, then audit multiplicities and
       sizes class by class (class memberships correspond because the
       color multisets agree). *)
    let matched = Array.length a.c.Circuit.devices in
    Trace.count Trace.Counter.Lvs_matches matched;
    if mapping_error a b <> None then
      {
        outcome = Inconclusive;
        findings =
          [
            {
              code = "lvs-inconclusive";
              severity = Diag.Warning;
              message =
                "color multisets agree but the induced device mapping does \
                 not verify (likely hash collision); treat as inconclusive";
              anchor = "verify";
              layout_net = None;
            };
          ];
        stats = stats matched;
      }
    else begin
      (* class-by-class multiplicity and size audit *)
      let classes = Hashtbl.create 64 in
      let add tbl_key i side_sel =
        let la, lb =
          match Hashtbl.find_opt classes tbl_key with
          | Some p -> p
          | None -> ([], [])
        in
        Hashtbl.replace classes tbl_key
          (match side_sel with
          | `A -> (i :: la, lb)
          | `B -> (la, i :: lb))
      in
      Array.iteri (fun i c -> add c i `A) a.dev_color;
      Array.iteri (fun i c -> add c i `B) b.dev_color;
      let findings = ref [] in
      let colors =
        Hashtbl.fold (fun c _ acc -> c :: acc) classes []
        |> List.sort Int.compare
      in
      List.iter
        (fun color ->
          let la, lb = Hashtbl.find classes color in
          let key side i =
            let d = side.c.Circuit.devices.(i) in
            (d.Circuit.length, d.Circuit.width, side.mult.(i), i)
          in
          let la =
            List.sort (fun x y -> compare (key a x) (key a y)) la
          and lb = List.sort (fun x y -> compare (key b x) (key b y)) lb in
          List.iter2
            (fun i j ->
              let da = a.c.Circuit.devices.(i)
              and db = b.c.Circuit.devices.(j) in
              if a.mult.(i) <> b.mult.(j) then
                findings :=
                  {
                    code = "lvs-dup-device";
                    severity = Diag.Error;
                    message =
                      Printf.sprintf
                        "%s transistor at %d,%d: %d parallel copies in \
                         layout vs %d in reference"
                        (tname da.Circuit.dtype) da.Circuit.location.Point.x
                        da.Circuit.location.Point.y a.mult.(i) b.mult.(j);
                    anchor = dev_site a i;
                    layout_net = Some da.Circuit.gate;
                  }
                  :: !findings
              else if
                with_sizes
                && not
                     (size_ok da.Circuit.length db.Circuit.length
                     && size_ok da.Circuit.width db.Circuit.width)
              then
                findings :=
                  {
                    code = "lvs-size-mismatch";
                    severity = Diag.Error;
                    message =
                      Printf.sprintf
                        "%s transistor at %d,%d: L/W %s/%su (layout) vs \
                         %s/%su (reference)"
                        (tname da.Circuit.dtype) da.Circuit.location.Point.x
                        da.Circuit.location.Point.y
                        (um da.Circuit.length) (um da.Circuit.width)
                        (um db.Circuit.length) (um db.Circuit.width);
                    anchor = dev_site a i;
                    layout_net = Some da.Circuit.gate;
                  }
                  :: !findings)
            la lb)
        colors;
      let findings = cap_findings max_findings (List.rev !findings) in
      {
        outcome = (if findings = [] then Clean else Mismatch);
        findings;
        stats = stats matched;
      }
    end
  end
  else
    Trace.with_span "lvs.localize" @@ fun () ->
    (* Structural mismatch: localize.  Pair devices greedily by color
       history (finest refinement first), then read extra/missing devices
       off the unpaired remainder and split/merged nets off the terminal
       correspondence votes of the paired devices. *)
    let findings = ref [] in
    let push f = findings := f :: !findings in
    let nd_a = Array.length a.c.Circuit.devices
    and nd_b = Array.length b.c.Circuit.devices in
    if nd_a <> nd_b then
      push
        {
          code = "lvs-device-count";
          severity = Diag.Error;
          message =
            Printf.sprintf
              "device counts differ after reduction: %d (layout) vs %d \
               (reference)"
              nd_a nd_b;
          anchor = "device-count";
          layout_net = None;
        };
    if Array.length a.nets <> Array.length b.nets then
      push
        {
          code = "lvs-net-count";
          severity = Diag.Error;
          message =
            Printf.sprintf
              "connected net counts differ: %d (layout) vs %d (reference)"
              (Array.length a.nets) (Array.length b.nets);
          anchor = "net-count";
          layout_net = None;
        };
    let hist_a = Array.of_list a.dev_hist (* newest first *)
    and hist_b = Array.of_list b.dev_hist in
    let n_hist = min (Array.length hist_a) (Array.length hist_b) in
    let paired_a = Array.make nd_a false
    and paired_b = Array.make nd_b false in
    let pairs = ref [] in
    (* Deterministic member order inside a bucket: remaining history
       sequence, then sizes, then index — the same comparator on both
       sides so the pairing is as symmetric as the inputs allow. *)
    let member_key side hist r i =
      let tail = ref [] in
      for k = min (Array.length hist - 1) (r + 4) downto r do
        tail := hist.(k).(i) :: !tail
      done;
      let d = side.c.Circuit.devices.(i) in
      (!tail, d.Circuit.length, d.Circuit.width, side.mult.(i), i)
    in
    for r = 0 to n_hist - 1 do
      let buckets = Hashtbl.create 64 in
      let add color v =
        Hashtbl.replace buckets color
          (v
          ::
          (match Hashtbl.find_opt buckets color with
          | Some l -> l
          | None -> []))
      in
      for i = 0 to nd_a - 1 do
        if not paired_a.(i) then add hist_a.(r).(i) (`A i)
      done;
      for j = 0 to nd_b - 1 do
        if not paired_b.(j) then add hist_b.(r).(j) (`B j)
      done;
      let colors =
        Hashtbl.fold (fun c _ acc -> c :: acc) buckets []
        |> List.sort Int.compare
      in
      (* keys are computed once per member; they end in the device index,
         so they are unique and the sorted order is fully determined *)
      let by_key side hist l =
        List.map (fun i -> (member_key side hist r i, i)) l
        |> List.sort (fun (x, _) (y, _) -> compare x y)
        |> List.map snd
      in
      let rec zip la lb =
        match (la, lb) with
        | i :: la', j :: lb' ->
            paired_a.(i) <- true;
            paired_b.(j) <- true;
            pairs := (i, j) :: !pairs;
            zip la' lb'
        | _ -> ()
      in
      List.iter
        (fun color ->
          let members = Hashtbl.find buckets color in
          let la =
            List.filter_map (function `A i -> Some i | `B _ -> None) members
          and lb =
            List.filter_map (function `B j -> Some j | `A _ -> None) members
          in
          (* a bucket holding one side only pairs nothing *)
          if la <> [] && lb <> [] then
            zip (by_key a hist_a la) (by_key b hist_b lb))
        colors
    done;
    let matched = List.length !pairs in
    Trace.count Trace.Counter.Lvs_matches matched;
    (* extra / missing devices from the unpaired remainder *)
    let extras = ref [] and missings = ref [] in
    for i = 0 to nd_a - 1 do
      if not paired_a.(i) then
        let d = a.c.Circuit.devices.(i) in
        extras :=
          {
            code = "lvs-extra-device";
            severity = Diag.Error;
            message =
              Printf.sprintf
                "extra %s transistor at %d,%d in layout (gate %s, channel \
                 %s-%s): no reference counterpart"
                (tname d.Circuit.dtype) d.Circuit.location.Point.x
                d.Circuit.location.Point.y
                (net_name a d.Circuit.gate)
                (net_name a d.Circuit.source)
                (net_name a d.Circuit.drain);
            anchor = dev_site a i;
            layout_net = Some d.Circuit.gate;
          }
          :: !extras
    done;
    for j = 0 to nd_b - 1 do
      if not paired_b.(j) then
        let d = b.c.Circuit.devices.(j) in
        let sd =
          List.sort String.compare
            [ net_name b d.Circuit.source; net_name b d.Circuit.drain ]
        in
        missings :=
          {
            code = "lvs-missing-device";
            severity = Diag.Error;
            message =
              Printf.sprintf
                "reference %s transistor (gate %s, channel %s-%s) has no \
                 layout counterpart"
                (tname d.Circuit.dtype)
                (net_name b d.Circuit.gate)
                (List.nth sd 0) (List.nth sd 1);
            anchor =
              Printf.sprintf "%s:%s:%s" (tname d.Circuit.dtype)
                (net_name b d.Circuit.gate)
                (String.concat ":" sd);
            layout_net = None;
          }
          :: !missings
    done;
    List.iter push (cap_findings max_findings (List.rev !extras));
    List.iter push (cap_findings max_findings (List.rev !missings));
    (* split / merged nets from terminal-correspondence votes *)
    let votes_rl = Hashtbl.create 64 (* ref net -> layout net -> votes *)
    and votes_lr = Hashtbl.create 64 in
    let vote tbl k v =
      let inner =
        match Hashtbl.find_opt tbl k with
        | Some t -> t
        | None ->
            let t = Hashtbl.create 4 in
            Hashtbl.replace tbl k t;
            t
      in
      Hashtbl.replace inner v
        (1 + match Hashtbl.find_opt inner v with Some n -> n | None -> 0)
    in
    let cast ln rn =
      vote votes_rl rn ln;
      vote votes_lr ln rn
    in
    List.iter
      (fun (i, j) ->
        let da = a.c.Circuit.devices.(i) and db = b.c.Circuit.devices.(j) in
        cast da.Circuit.gate db.Circuit.gate;
        let col side n = side.net_color.(side.net_pos.(n)) in
        let cs = col a da.Circuit.source and cd = col a da.Circuit.drain in
        let cs' = col b db.Circuit.source and cd' = col b db.Circuit.drain in
        let aligned =
          cs = cs' || cd = cd' || not (cs = cd' || cd = cs')
        in
        if aligned then begin
          cast da.Circuit.source db.Circuit.source;
          cast da.Circuit.drain db.Circuit.drain
        end
        else begin
          cast da.Circuit.source db.Circuit.drain;
          cast da.Circuit.drain db.Circuit.source
        end)
      !pairs;
    let partner_sets tbl =
      Hashtbl.fold
        (fun k inner acc ->
          let ps = Hashtbl.fold (fun v _ l -> v :: l) inner [] in
          (k, List.sort Int.compare ps) :: acc)
        tbl []
      |> List.sort compare
    in
    let splits = ref [] and merges = ref [] in
    List.iter
      (fun (rn, partners) ->
        if List.length partners >= 2 then
          let names = List.map (net_name a) partners in
          splits :=
            {
              code = "lvs-net-split";
              severity = Diag.Error;
              message =
                Printf.sprintf
                  "reference net %s corresponds to %d separate layout nets \
                   (%s)"
                  (net_name b rn) (List.length partners)
                  (String.concat ", " names);
              anchor =
                Printf.sprintf "%s:%s" (net_name b rn)
                  (String.concat "," (List.sort String.compare names));
              layout_net = Some (List.hd partners);
            }
            :: !splits)
      (partner_sets votes_rl);
    List.iter
      (fun (ln, partners) ->
        if List.length partners >= 2 then
          let names =
            List.sort String.compare (List.map (net_name b) partners)
          in
          merges :=
            {
              code = "lvs-net-merge";
              severity = Diag.Error;
              message =
                Printf.sprintf
                  "layout net %s matches %d distinct reference nets (%s)"
                  (net_name a ln) (List.length partners)
                  (String.concat ", " names);
              anchor =
                Printf.sprintf "%s:%s" (net_name a ln)
                  (String.concat "," names);
              layout_net = Some ln;
            }
            :: !merges)
      (partner_sets votes_lr);
    List.iter push (cap_findings max_findings (List.rev !splits));
    List.iter push (cap_findings max_findings (List.rev !merges));
    if !findings = [] then
      push
        {
          code = "lvs-topology";
          severity = Diag.Error;
          message =
            "connectivity differs: equal device and net counts, but the \
             refined color partitions do not correspond";
          anchor = "topology";
          layout_net = None;
        };
    { outcome = Mismatch; findings = List.rev !findings; stats = stats matched }
  in
  (result, net_colors a, net_colors b)

let run ?cancel ?with_sizes ?tolerance ?vdd ?gnd ?max_findings ~layout
    ~reference () =
  let r, _, _ =
    run_full ?cancel ?with_sizes ?tolerance ?vdd ?gnd ?max_findings ~layout
      ~reference ()
  in
  r

(* ---------- exact equivalence ------------------------------------------ *)

let exact ?(with_sizes = false) ?(with_names = false) (ca : Circuit.t)
    (cb : Circuit.t) =
  let nets c = Array.of_list (Circuit.connected_net_indices c) in
  let na = nets ca and nb = nets cb in
  let nd = Array.length ca.Circuit.devices
  and nd_b = Array.length cb.Circuit.devices in
  if nd <> nd_b then Distinct (Device_counts (nd, nd_b))
  else if Array.length na <> Array.length nb then
    Distinct (Net_counts (Array.length na, Array.length nb))
  else begin
    let refined (c : Circuit.t) nets =
      let s = side_of c (Array.make nd 1) nets in
      if with_sizes then
        Array.iteri
          (fun k (d : Circuit.device) ->
            s.dev_color.(k) <- mix (mix s.dev_color.(k) d.length) d.width)
          c.Circuit.devices;
      if with_names then
        Array.iteri
          (fun p n ->
            let names =
              Array.of_list
                (List.map Refine.str_code c.Circuit.nets.(n).Circuit.names)
            in
            s.net_color.(p) <-
              Refine.hash_sorted_range names 0 (Array.length names))
          nets;
      ignore
        (Refine.run s.graph ~net_color:s.net_color ~dev_color:s.dev_color
           (device_color s s.dev_color));
      s
    in
    let a = refined ca na and b = refined cb nb in
    if multiset a.dev_color <> multiset b.dev_color then
      Distinct (Structure "device color multisets differ (structure mismatch)")
    else if multiset a.net_color <> multiset b.net_color then
      Distinct (Structure "net color multisets differ (connectivity mismatch)")
    else
      match mapping_error a b with
      | None -> Equivalent
      | Some why -> Distinct (Structure why)
  end
