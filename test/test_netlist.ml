open Ace_geom
open Ace_tech
open Ace_netlist

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Union-find                                                           *)
(* ------------------------------------------------------------------ *)

let test_uf_basics () =
  let uf = Union_find.create () in
  let a = Union_find.fresh uf and b = Union_find.fresh uf in
  let c = Union_find.fresh uf in
  check "fresh are distinct" false (Union_find.same uf a b);
  check_int "three classes" 3 (Union_find.class_count uf);
  ignore (Union_find.union uf a b);
  check "unioned" true (Union_find.same uf a b);
  check "c apart" false (Union_find.same uf a c);
  check_int "two classes" 2 (Union_find.class_count uf);
  ignore (Union_find.union uf a b);
  check_int "idempotent union" 2 (Union_find.class_count uf)

let test_uf_compress () =
  let uf = Union_find.create () in
  let xs = Array.init 10 (fun _ -> Union_find.fresh uf) in
  ignore (Union_find.union uf xs.(0) xs.(5));
  ignore (Union_find.union uf xs.(5) xs.(9));
  ignore (Union_find.union uf xs.(2) xs.(3));
  let dense = Union_find.compress uf in
  check_int "dense range" (Union_find.class_count uf)
    (1 + Array.fold_left max 0 dense);
  check "same class same id" true (dense.(xs.(0)) = dense.(xs.(9)));
  check "distinct classes distinct ids" true (dense.(xs.(0)) <> dense.(xs.(2)))

let prop_uf_vs_model =
  (* compare against a naive model over a random union script *)
  Tutil.qtest ~count:200 "union-find agrees with a naive partition model"
    QCheck2.Gen.(
      let* n = int_range 1 20 in
      let* ops = list_size (int_range 0 40) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))) in
      return (n, ops))
    (fun (n, ops) ->
      let uf = Union_find.create () in
      let ids = Array.init n (fun _ -> Union_find.fresh uf) in
      let model = Array.init n (fun i -> i) in
      let model_find i =
        let rec go i = if model.(i) = i then i else go model.(i) in
        go i
      in
      List.iter
        (fun (a, b) ->
          ignore (Union_find.union uf ids.(a) ids.(b));
          let ra = model_find a and rb = model_find b in
          if ra <> rb then model.(ra) <- rb)
        ops;
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if Union_find.same uf ids.(i) ids.(j) <> (model_find i = model_find j)
          then ok := false
        done
      done;
      !ok && Union_find.count uf = n)

(* The pre-flat-arena union-find, kept verbatim as a reference model: two
   boxed int arrays and *recursive* path compression.  The qcheck suite
   below checks the Bigarray rewrite is observationally identical, and the
   deep-chain test demonstrates the stack hazard the rewrite removes. *)
module Ref_uf = struct
  type t = {
    mutable parent : int array;
    mutable rank : int array;
    mutable size : int;
    mutable classes : int;
  }

  let create () =
    { parent = Array.make 64 0; rank = Array.make 64 0; size = 0; classes = 0 }

  let fresh t =
    if t.size = Array.length t.parent then begin
      let grow a = Array.append a (Array.make (Array.length a) 0) in
      t.parent <- grow t.parent;
      t.rank <- grow t.rank
    end;
    let id = t.size in
    t.parent.(id) <- id;
    t.rank.(id) <- 0;
    t.size <- t.size + 1;
    t.classes <- t.classes + 1;
    id

  let rec find_root t x =
    let p = t.parent.(x) in
    if p = x then x
    else begin
      let root = find_root t p in
      t.parent.(x) <- root;
      root
    end

  let find = find_root
  let same t a b = find t a = find t b

  let union t a b =
    let ra = find_root t a and rb = find_root t b in
    if ra = rb then ra
    else begin
      t.classes <- t.classes - 1;
      if t.rank.(ra) < t.rank.(rb) then begin
        t.parent.(ra) <- rb;
        rb
      end
      else if t.rank.(ra) > t.rank.(rb) then begin
        t.parent.(rb) <- ra;
        ra
      end
      else begin
        t.parent.(rb) <- ra;
        t.rank.(ra) <- t.rank.(ra) + 1;
        ra
      end
    end

  let class_count t = t.classes

  let compress t =
    let mapping = Array.make (max t.size 1) (-1) in
    let next = ref 0 in
    for x = 0 to t.size - 1 do
      let r = find_root t x in
      if mapping.(r) = -1 then begin
        mapping.(r) <- !next;
        incr next
      end;
      if x <> r then mapping.(x) <- mapping.(r)
    done;
    mapping

  let link t a b =
    let ra = find_root t a and rb = find_root t b in
    if ra <> rb then begin
      t.parent.(ra) <- rb;
      t.classes <- t.classes - 1
    end
end

(* Union by rank keeps real forests logarithmic, so a pathological chain
   can only be built through the rank-bypassing test back door.  The new
   iterative find must walk (and compress) a million-link chain with O(1)
   stack; the recursive reference implementation allocates a stack frame
   per link on the same chain and is expected to die with Stack_overflow
   (we tolerate it surviving — stack limits vary by platform — but it must
   not produce a wrong answer). *)
let deep_chain_n = 1_000_000

let test_uf_deep_chain () =
  let uf = Union_find.create ~hint:deep_chain_n () in
  for _ = 1 to deep_chain_n do
    ignore (Union_find.fresh uf)
  done;
  for i = 0 to deep_chain_n - 2 do
    Union_find.For_testing.link uf i (i + 1)
  done;
  check_int "one class" 1 (Union_find.class_count uf);
  let root = Union_find.find uf 0 in
  check_int "root is chain end" (deep_chain_n - 1) root;
  check "compressed: second find is direct" true
    (Union_find.find uf 0 = root && Union_find.same uf 0 (deep_chain_n / 2))

let test_uf_deep_chain_old_overflows () =
  let r = Ref_uf.create () in
  for _ = 1 to deep_chain_n do
    ignore (Ref_uf.fresh r)
  done;
  for i = 0 to deep_chain_n - 2 do
    Ref_uf.link r i (i + 1)
  done;
  match Ref_uf.find r 0 with
  | root -> check_int "survived (deep stack): correct root" (deep_chain_n - 1) root
  | exception Stack_overflow -> check "recursive find overflowed as expected" true true

let test_uf_hint_and_grow () =
  (* a tiny hint must not change behaviour, only the initial capacity *)
  let uf = Union_find.create ~hint:2 () in
  let n = 300 in
  let ids = Array.init n (fun _ -> Union_find.fresh uf) in
  check_int "all singletons after growth" n (Union_find.class_count uf);
  Array.iteri
    (fun i id -> check_int "ids are dense" i id)
    ids;
  for i = 0 to n - 2 do
    if i mod 3 <> 0 then ignore (Union_find.union uf ids.(i) ids.(i + 1))
  done;
  let classes = Union_find.class_count uf in
  let m1 = Union_find.compress uf in
  let m2 = Union_find.compress uf in
  check "compress reuses its buffer" true (m1 == m2);
  check_int "dense ids cover classes" classes
    (1 + Array.fold_left max (-1) (Array.sub m1 0 n));
  (* growing again after compress keeps the accounting consistent *)
  let extra = Union_find.fresh uf in
  check_int "class_count tracks growth" (classes + 1) (Union_find.class_count uf);
  check_int "new element is its own root" extra (Union_find.find uf extra)

(* Random op scripts: interleave fresh / union / find / compress and demand
   the flat Bigarray forest and the boxed recursive reference stay
   observationally identical at every step. *)
let prop_uf_vs_reference =
  Tutil.qtest ~count:300 "flat Bigarray union-find = boxed recursive reference"
    QCheck2.Gen.(
      list_size (int_range 1 120) (triple (int_range 0 3) nat nat))
    (fun script ->
      let uf = Union_find.create ~hint:1 () in
      let r = Ref_uf.create () in
      let ok = ref true in
      let agree () =
        let n = Union_find.count uf in
        if Union_find.class_count uf <> Ref_uf.class_count r then ok := false;
        if n > 0 then begin
          let ma = Union_find.compress uf and mb = Ref_uf.compress r in
          for x = 0 to n - 1 do
            if ma.(x) <> mb.(x) then ok := false
          done
        end
      in
      List.iter
        (fun (tag, a, b) ->
          let n = Union_find.count uf in
          match tag with
          | 0 ->
              let ia = Union_find.fresh uf and ib = Ref_uf.fresh r in
              if ia <> ib then ok := false
          | 1 when n > 0 ->
              (* survivors may differ only if representatives differ — they
                 must not, since both sides run identical rank logic *)
              let sa = Union_find.union uf (a mod n) (b mod n) in
              let sb = Ref_uf.union r (a mod n) (b mod n) in
              if sa <> sb then ok := false
          | 2 when n > 0 ->
              if
                Union_find.find uf (a mod n) <> Ref_uf.find r (a mod n)
                || Union_find.same uf (a mod n) (b mod n)
                   <> Ref_uf.same r (a mod n) (b mod n)
              then ok := false
          | 3 when n > 0 -> agree ()
          | _ -> ())
        script;
      agree ();
      !ok)

(* ------------------------------------------------------------------ *)
(* Circuits                                                             *)
(* ------------------------------------------------------------------ *)

let inverter_circuit () =
  let net names =
    { Circuit.names; location = Point.origin; geometry = [] }
  in
  let dev dtype gate source drain length width =
    {
      Circuit.dtype;
      gate;
      source;
      drain;
      length;
      width;
      location = Point.origin;
      geometry = [];
    }
  in
  {
    Circuit.name = "inv";
    nets = [| net [ "VDD" ]; net [ "OUT" ]; net [ "IN" ]; net [ "GND" ] |];
    devices =
      [|
        dev Nmos.Depletion 1 0 1 8 2 (* pull-up, gate tied to out *);
        dev Nmos.Enhancement 2 1 3 2 2 (* pull-down *);
      |];
  }

let test_circuit_queries () =
  let c = inverter_circuit () in
  check_int "find VDD" 0 (Circuit.find_net c "VDD");
  check "missing raises" true
    (match Circuit.find_net c "nope" with
    | exception Not_found -> true
    | _ -> false);
  check_int "connected nets" 4 (List.length (Circuit.connected_net_indices c));
  check "valid" true (Circuit.validate c = []);
  let e, d = Circuit.device_type_counts c in
  check_int "enh" 1 e;
  check_int "dep" 1 d

let test_circuit_validate_catches () =
  let c = inverter_circuit () in
  let bad =
    {
      c with
      Circuit.devices =
        Array.append c.Circuit.devices
          [|
            {
              Circuit.dtype = Nmos.Enhancement;
              gate = 99;
              source = 0;
              drain = 1;
              length = 0;
              width = 2;
              location = Point.origin;
              geometry = [];
            };
          |];
    }
  in
  check_int "two problems" 2 (List.length (Circuit.validate bad))

(* ------------------------------------------------------------------ *)
(* Wirelist round-trip                                                  *)
(* ------------------------------------------------------------------ *)

let test_wirelist_roundtrip () =
  let c = inverter_circuit () in
  let text = Wirelist.to_string c in
  let c' = Wirelist.of_string text in
  check_int "devices" 2 (Circuit.device_count c');
  check_int "nets" 4 (Circuit.net_count c');
  check "names survive" true (Circuit.find_net c' "OUT" >= 0);
  check "equivalent" true (Tutil.circuit_equal ~with_sizes:true c c')

let test_wirelist_geometry_roundtrip () =
  let c = inverter_circuit () in
  let with_geom =
    {
      c with
      Circuit.nets =
        Array.map
          (fun n ->
            {
              n with
              Circuit.geometry =
                [ (Layer.Metal, Box.make ~l:0 ~b:0 ~r:4 ~t:2) ];
            })
          c.Circuit.nets;
    }
  in
  let text = Wirelist.to_string ~emit_geometry:true with_geom in
  let c' = Wirelist.of_string text in
  check "geometry parsed back" true
    (Array.for_all (fun (n : Circuit.net) -> n.geometry <> []) c'.Circuit.nets)

let test_wirelist_matches_paper_shape () =
  let c = inverter_circuit () in
  let text = Wirelist.to_string c in
  List.iter
    (fun needle ->
      check (Printf.sprintf "contains %s" needle) true
        (let nh = String.length text and nn = String.length needle in
         let rec go i = i + nn <= nh && (String.sub text i nn = needle || go (i + 1)) in
         go 0))
    [ "(DefPart"; "(Part nDep"; "(Part nEnh"; "(T Gate"; "(Channel (Length"; "(Local" ]

let test_geometry_text () =
  let boxes =
    [ (Some Layer.Metal, Box.make ~l:0 ~b:0 ~r:4 ~t:2);
      (None, Box.make ~l:(-2) ~b:(-2) ~r:0 ~t:0) ]
  in
  let text = Wirelist.Geometry_text.to_string boxes in
  let boxes' = Wirelist.Geometry_text.of_string text in
  check "round-trip" true (boxes = boxes')

let test_wirelist_rejects_garbage () =
  check "not sexp" true
    (match Wirelist.of_string "hello world" with
    | exception Wirelist.Error _ -> true
    | _ -> false);
  check "wrong toplevel" true
    (match Wirelist.of_string "(Foo)" with
    | exception Wirelist.Error _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* SPICE                                                                *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_spice_deck () =
  let c = inverter_circuit () in
  let deck = Spice.to_string c in
  check "model cards" true
    (contains deck ".MODEL ENH NMOS" && contains deck ".MODEL DEP NMOS");
  (* M<i> drain gate source bulk MODEL *)
  check "depletion card" true (contains deck "M0 OUT OUT VDD 0 DEP");
  check "enhancement card with gnd as node 0" true
    (contains deck "M1 0 IN OUT 0 ENH");
  check "micron sizes" true (contains deck "L=0.08U W=0.02U");
  check "terminated" true (contains deck ".END")

let test_spice_sanitizes () =
  let c = inverter_circuit () in
  let odd =
    {
      c with
      Circuit.nets =
        Array.map
          (fun (n : Circuit.net) ->
            if n.names = [ "IN" ] then { n with names = [ "a b/c" ] } else n)
          c.Circuit.nets;
    }
  in
  check "no raw separators" true (contains (Spice.to_string odd) "a_b_c")

(* ------------------------------------------------------------------ *)
(* Hierarchical wirelists                                               *)
(* ------------------------------------------------------------------ *)

let two_inverter_hier () =
  let inv =
    {
      Hier.part_name = "Inv";
      net_count = 4 (* 0 vdd, 1 out, 2 in, 3 gnd *);
      exports = [ 0; 1; 2; 3 ];
      net_names = [];
      devices =
        [
          {
            Hier.dtype = Nmos.Depletion;
            gate = 1;
            source = 0;
            drain = 1;
            length = 8;
            width = 2;
            location = Point.origin;
          };
          {
            Hier.dtype = Nmos.Enhancement;
            gate = 2;
            source = 1;
            drain = 3;
            length = 2;
            width = 2;
            location = Point.origin;
          };
        ];
      instances = [];
    }
  in
  let pair =
    {
      Hier.part_name = "Pair";
      net_count = 5 (* 0 vdd, 1 mid, 2 in, 3 gnd, 4 out *);
      exports = [ 0; 2; 3; 4 ];
      net_names = [ (0, "VDD"); (3, "GND"); (2, "IN"); (4, "OUT") ];
      devices = [];
      instances =
        [
          {
            Hier.part_name = "Inv";
            inst_name = "P1";
            offset = Point.origin;
            net_map = [ (0, 0); (1, 1); (2, 2); (3, 3) ];
          };
          {
            Hier.part_name = "Inv";
            inst_name = "P2";
            offset = Point.make 100 0;
            net_map = [ (0, 0); (1, 4); (2, 1); (3, 3) ];
          };
        ];
    }
  in
  { Hier.parts = [ inv; pair ]; top = "Pair" }

let test_hier_validate () =
  let h = two_inverter_hier () in
  check "valid" true (Hier.validate h = []);
  check_int "flat device count" 4 (Hier.flat_device_count h)

let test_hier_validate_catches () =
  let h = two_inverter_hier () in
  let bad = { h with Hier.top = "Missing" } in
  check "missing top" true (Hier.validate bad <> []);
  let bad2 =
    {
      h with
      Hier.parts =
        List.map
          (fun p ->
            if p.Hier.part_name = "Pair" then
              { p with Hier.net_count = 2 } (* bindings out of range *)
            else p)
          h.Hier.parts;
    }
  in
  check "range errors" true (Hier.validate bad2 <> [])

let test_hier_flatten () =
  let h = two_inverter_hier () in
  let c = Hier.flatten h in
  check_int "devices" 4 (Circuit.device_count c);
  (* nets: vdd, gnd, in, mid, out = 5 *)
  check_int "nets" 5 (Circuit.net_count c);
  check "names propagate" true (Circuit.find_net c "OUT" >= 0);
  (* the chain property: OUT is driven by a device whose gate is the
     middle net, which is driven by a device gated by IN *)
  let out = Circuit.find_net c "OUT" and inn = Circuit.find_net c "IN" in
  let gated_by g =
    Array.exists
      (fun (d : Circuit.device) -> d.gate = g && d.dtype = Nmos.Enhancement)
      c.Circuit.devices
  in
  check "IN gates something" true (gated_by inn);
  check "OUT gates nothing" false (gated_by out)

let test_hier_roundtrip () =
  let h = two_inverter_hier () in
  let text = Hier.to_string h in
  let h' = Hier.of_string text in
  check "valid after parse" true (Hier.validate h' = []);
  let c = Hier.flatten h and c' = Hier.flatten h' in
  check "flattens equivalently" true (Tutil.circuit_equal ~with_sizes:true c c')

let test_spice_hier () =
  let h = two_inverter_hier () in
  let deck = Spice.of_hier h in
  check "subckt for the inverter" true (contains deck ".SUBCKT Inv");
  check "ends" true (contains deck ".ENDS Inv");
  check "two instance cards" true
    (contains deck "X0_P1" && contains deck "X1_P2");
  check "top-level has no subckt for Pair" false (contains deck ".SUBCKT Pair");
  check "terminated" true (contains deck ".END\n")

(* ------------------------------------------------------------------ *)
(* Comparator                                                           *)
(* ------------------------------------------------------------------ *)

let test_compare_reflexive () =
  let c = inverter_circuit () in
  check "equivalent to itself" true (Tutil.circuit_equal ~with_sizes:true c c)

let test_compare_renumbered () =
  let c = inverter_circuit () in
  (* permute net numbering: swap 0 and 3 *)
  let perm = [| 3; 1; 2; 0 |] in
  let c' =
    {
      c with
      Circuit.nets =
        Array.init 4 (fun i ->
            c.Circuit.nets.(match i with 0 -> 3 | 3 -> 0 | i -> i));
      devices =
        Array.map
          (fun (d : Circuit.device) ->
            { d with gate = perm.(d.gate); source = perm.(d.source); drain = perm.(d.drain) })
          c.Circuit.devices;
    }
  in
  check "renumbering is invisible" true (Tutil.circuit_equal ~with_sizes:true c c')

let test_compare_swapped_sd () =
  let c = inverter_circuit () in
  let c' =
    {
      c with
      Circuit.devices =
        Array.map
          (fun (d : Circuit.device) -> { d with source = d.drain; drain = d.source })
          c.Circuit.devices;
    }
  in
  check "source/drain order is invisible" true (Tutil.circuit_equal c c')

let test_compare_detects_changes () =
  let c = inverter_circuit () in
  let retyped =
    {
      c with
      Circuit.devices =
        Array.map
          (fun (d : Circuit.device) -> { d with Circuit.dtype = Nmos.Enhancement })
          c.Circuit.devices;
    }
  in
  check "type change detected" false (Tutil.circuit_equal c retyped);
  let rewired =
    {
      c with
      Circuit.devices =
        Array.map
          (fun (d : Circuit.device) ->
            if d.Circuit.dtype = Nmos.Enhancement then { d with gate = 0 } else d)
          c.Circuit.devices;
    }
  in
  check "rewiring detected" false (Tutil.circuit_equal c rewired);
  let resized =
    {
      c with
      Circuit.devices =
        Array.map (fun (d : Circuit.device) -> { d with length = d.length + 2 })
          c.Circuit.devices;
    }
  in
  check "size change detected with sizes" false
    (Tutil.circuit_equal ~with_sizes:true c resized);
  check "size change invisible without sizes" true (Tutil.circuit_equal c resized)

(* ------------------------------------------------------------------ *)
(* Properties over random circuits                                      *)
(* ------------------------------------------------------------------ *)

let prop_wirelist_roundtrip =
  Tutil.qtest ~count:200 "wirelist round-trips any circuit" Tutil.gen_circuit
    (fun c ->
      let c' = Wirelist.of_string (Wirelist.to_string c) in
      Circuit.device_count c = Circuit.device_count c'
      && Tutil.circuit_equal ~with_sizes:true c c')

(* Geometry derived from a generated circuit's own numbers, so the
   writer's geometry strings are exercised as well. *)
let with_geometry (c : Circuit.t) =
  let box_at (p : Point.t) w h =
    Box.make ~l:p.Point.x ~b:p.Point.y ~r:(p.Point.x + w) ~t:(p.Point.y + h)
  in
  {
    c with
    Circuit.devices =
      Array.map
        (fun (d : Circuit.device) ->
          {
            d with
            Circuit.geometry =
              [ (Layer.Diffusion, box_at d.location d.width d.length) ];
          })
        c.devices;
    nets =
      Array.mapi
        (fun i (n : Circuit.net) ->
          {
            n with
            Circuit.geometry =
              [
                (Layer.Metal, box_at n.location (i + 1) 2);
                (Layer.Poly, box_at n.location 3 (i + 1));
              ];
          })
        c.nets;
  }

(* The wirelist text as per-line Printf renders it: the oracle the
   direct writer is held to, byte for byte. *)
let printf_wirelist ~emit_geometry (c : Circuit.t) =
  let buf = Buffer.create 4096 in
  let pr fmt = Printf.bprintf buf fmt in
  let net_id i = Printf.sprintf "N%d" i in
  pr "(DefPart %S\n" c.name;
  pr "(DefPart nEnh (Export Source Gate Drain))\n";
  pr "(DefPart nDep (Export Source Gate Drain))\n";
  Array.iteri
    (fun i (d : Circuit.device) ->
      pr "(Part %s (InstName D%d) (Location %d %d)\n"
        (Nmos.device_type_name d.dtype)
        i d.location.Point.x d.location.Point.y;
      pr " (T Gate %s) (T Source %s) (T Drain %s)\n" (net_id d.gate)
        (net_id d.source) (net_id d.drain);
      pr " (Channel (Length %d) (Width %d)" d.length d.width;
      if emit_geometry && d.geometry <> [] then
        pr "\n  ( CIF \"%s\")"
          (Wirelist.Geometry_text.to_string
             (List.map (fun (_, bx) -> (None, bx)) d.geometry));
      pr "))\n")
    c.devices;
  Array.iteri
    (fun i (n : Circuit.net) ->
      pr "(Net %s" (net_id i);
      List.iter (fun name -> pr " %s" name) n.names;
      pr " (Location %d %d)" n.location.Point.x n.location.Point.y;
      if emit_geometry && n.geometry <> [] then
        pr "\n ( CIF \"%s\")"
          (Wirelist.Geometry_text.to_string
             (List.map (fun (lyr, bx) -> (Some lyr, bx)) n.geometry));
      pr ")\n")
    c.nets;
  pr "(Local";
  Array.iteri (fun i _ -> pr " %s" (net_id i)) c.nets;
  pr "))\n";
  Buffer.contents buf

let renders_like_printf c =
  List.for_all
    (fun emit_geometry ->
      Wirelist.to_string ~emit_geometry c = printf_wirelist ~emit_geometry c)
    [ false; true ]

let prop_writer_equals_printf =
  Tutil.qtest ~count:100 "wirelist writer renders the Printf bytes"
    Tutil.gen_circuit (fun c ->
      renders_like_printf c && renders_like_printf (with_geometry c))

let channel_bytes ~emit_geometry c =
  let path = Filename.temp_file "wirelist" ".wl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          Wirelist.to_channel ~emit_geometry oc c);
      In_channel.with_open_bin path In_channel.input_all)

let streams_like_string c =
  List.for_all
    (fun emit_geometry ->
      channel_bytes ~emit_geometry c = Wirelist.to_string ~emit_geometry c)
    [ false; true ]

let prop_channel_equals_string =
  Tutil.qtest ~count:100 "to_channel writes the to_string bytes"
    Tutil.gen_circuit (fun c ->
      streams_like_string c && streams_like_string (with_geometry c))

(* A circuit whose text crosses the streaming writer's flush threshold
   (64 KiB) many times, with and without geometry. *)
let test_wirelist_stream_large () =
  let n = 4000 in
  let c =
    {
      Circuit.name = "large";
      devices =
        Array.init n (fun i ->
            {
              Circuit.dtype =
                (if i mod 3 = 0 then Nmos.Depletion else Nmos.Enhancement);
              gate = i;
              source = (i + 1) mod n;
              drain = i * 7 mod n;
              length = 100 + i;
              width = 200 + i;
              location = Point.make ((i * 13) - 5000) (-i * 17);
              geometry = [];
            });
      nets =
        Array.init n (fun i ->
            {
              Circuit.names =
                (if i mod 5 = 0 then [ Printf.sprintf "SIG%d" i ] else []);
              location = Point.make (-i) (i * 3);
              geometry = [];
            });
    }
  in
  check "text spans several flush chunks" true
    (String.length (Wirelist.to_string c) > 4 * 65536);
  check "renders the Printf bytes" true
    (renders_like_printf c && renders_like_printf (with_geometry c));
  let extreme =
    {
      c with
      Circuit.devices =
        [| { (c.devices.(0)) with location = Point.make min_int max_int } |];
      nets = [| { (c.nets.(0)) with location = Point.make max_int min_int } |];
    }
  in
  check "extreme ints render as Printf does" true (renders_like_printf extreme);
  check "plain circuit streams its to_string bytes" true (streams_like_string c);
  check "circuit with geometry streams its to_string bytes" true
    (streams_like_string (with_geometry c))

let prop_compare_reflexive =
  Tutil.qtest ~count:200 "compare is reflexive" Tutil.gen_circuit (fun c ->
      Tutil.circuit_equal ~with_sizes:true c c)

let prop_compare_permutation =
  Tutil.qtest ~count:200 "compare is blind to device order" Tutil.gen_circuit
    (fun c ->
      let reversed =
        {
          c with
          Circuit.devices =
            (let a = Array.copy c.Circuit.devices in
             let n = Array.length a in
             Array.init n (fun i -> a.(n - 1 - i)));
        }
      in
      Tutil.circuit_equal ~with_sizes:true c reversed)

let prop_spice_cards =
  Tutil.qtest ~count:100 "SPICE deck has one M card per device"
    Tutil.gen_circuit
    (fun c ->
      let deck = Spice.to_string c in
      let cards =
        List.filter
          (fun line -> String.length line > 0 && line.[0] = 'M')
          (String.split_on_char '\n' deck)
      in
      List.length cards = Circuit.device_count c)

let gen_sexp =
  let open QCheck2.Gen in
  sized (fun size ->
      fix
        (fun self n ->
          if n <= 0 then
            oneof
              [
                map (fun i -> Sexp.Atom (Printf.sprintf "a%d" i)) (int_range 0 99);
                map (fun i -> Sexp.Str (Printf.sprintf "s %d \" q" i)) (int_range 0 99);
              ]
          else
            oneof
              [
                map (fun i -> Sexp.Atom (Printf.sprintf "a%d" i)) (int_range 0 99);
                map
                  (fun items -> Sexp.List items)
                  (list_size (int_range 0 4) (self (n / 2)));
              ])
        (min size 6))

let prop_sexp_roundtrip =
  Tutil.qtest ~count:200 "s-expressions round-trip" gen_sexp (fun s ->
      Sexp.parse_string (Sexp.to_string s) = [ s ])

let test_compare_counts () =
  let c = inverter_circuit () in
  let fewer = { c with Circuit.devices = [| c.Circuit.devices.(0) |] } in
  match Ace_lvs.Match.exact c fewer with
  | Ace_lvs.Match.Distinct (Ace_lvs.Match.Device_counts (2, 1)) -> ()
  | _ -> Alcotest.fail "device count mismatch not reported"

let () =
  Alcotest.run "netlist"
    [
      ( "union-find",
        [
          Alcotest.test_case "basics" `Quick test_uf_basics;
          Alcotest.test_case "compress" `Quick test_uf_compress;
          Alcotest.test_case "deep chain (iterative find)" `Quick
            test_uf_deep_chain;
          Alcotest.test_case "deep chain overflows old recursive find" `Quick
            test_uf_deep_chain_old_overflows;
          Alcotest.test_case "hint + grow + buffer reuse" `Quick
            test_uf_hint_and_grow;
          prop_uf_vs_model;
          prop_uf_vs_reference;
        ] );
      ( "circuit",
        [
          Alcotest.test_case "queries" `Quick test_circuit_queries;
          Alcotest.test_case "validate catches" `Quick test_circuit_validate_catches;
        ] );
      ( "wirelist",
        [
          Alcotest.test_case "round-trip" `Quick test_wirelist_roundtrip;
          Alcotest.test_case "geometry round-trip" `Quick test_wirelist_geometry_roundtrip;
          Alcotest.test_case "paper shape" `Quick test_wirelist_matches_paper_shape;
          Alcotest.test_case "geometry text" `Quick test_geometry_text;
          Alcotest.test_case "rejects garbage" `Quick test_wirelist_rejects_garbage;
          Alcotest.test_case "stream crosses flush threshold" `Quick
            test_wirelist_stream_large;
        ] );
      ( "spice",
        [
          Alcotest.test_case "deck" `Quick test_spice_deck;
          Alcotest.test_case "sanitizes names" `Quick test_spice_sanitizes;
        ] );
      ( "hier",
        [
          Alcotest.test_case "validate" `Quick test_hier_validate;
          Alcotest.test_case "validate catches" `Quick test_hier_validate_catches;
          Alcotest.test_case "flatten" `Quick test_hier_flatten;
          Alcotest.test_case "round-trip" `Quick test_hier_roundtrip;
          Alcotest.test_case "hierarchical SPICE" `Quick test_spice_hier;
        ] );
      ( "compare",
        [
          Alcotest.test_case "reflexive" `Quick test_compare_reflexive;
          Alcotest.test_case "renumbered" `Quick test_compare_renumbered;
          Alcotest.test_case "swapped source/drain" `Quick test_compare_swapped_sd;
          Alcotest.test_case "detects changes" `Quick test_compare_detects_changes;
          Alcotest.test_case "count mismatch" `Quick test_compare_counts;
        ] );
      ( "properties",
        [
          prop_wirelist_roundtrip;
          prop_compare_reflexive;
          prop_compare_permutation;
          prop_spice_cards;
          prop_sexp_roundtrip;
          prop_channel_equals_string;
          prop_writer_equals_printf;
        ] );
    ]
