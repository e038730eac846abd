open Ace_geom
open Ace_tech

type hdevice = {
  dtype : Nmos.device_type;
  gate : int;
  source : int;
  drain : int;
  length : int;
  width : int;
  location : Point.t;
}

type instance = {
  part_name : string;
  inst_name : string;
  offset : Point.t;
  net_map : (int * int) list;
}

type part = {
  part_name : string;
  net_count : int;
  exports : int list;
  net_names : (int * string) list;
  devices : hdevice list;
  instances : instance list;
}

type t = { parts : part list; top : string }

exception Error of string

let fail fmt = Format.kasprintf (fun m -> raise (Error m)) fmt

let part t name =
  match List.find_opt (fun p -> p.part_name = name) t.parts with
  | Some p -> p
  | None -> fail "unknown part %S" name

(* Problems of the parts themselves, in definition order; [validate] adds
   the top-part check. *)
let part_problems parts =
  let problems = ref [] in
  let problem fmt = Format.kasprintf (fun m -> problems := m :: !problems) fmt in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun p ->
      if Hashtbl.mem seen p.part_name then
        problem "duplicate part %S" p.part_name;
      let check_net what n =
        if n < 0 || n >= p.net_count then
          problem "part %S: %s net %d out of range [0,%d)" p.part_name what n
            p.net_count
      in
      List.iter (check_net "export") p.exports;
      List.iter (fun (n, _) -> check_net "named" n) p.net_names;
      List.iter
        (fun d ->
          check_net "gate" d.gate;
          check_net "source" d.source;
          check_net "drain" d.drain)
        p.devices;
      List.iter
        (fun (inst : instance) ->
          match Hashtbl.find_opt seen inst.part_name with
          | None ->
              problem "part %S instantiates %S before its definition"
                p.part_name inst.part_name
          | Some (child : part) ->
              List.iter
                (fun (inner, outer) ->
                  if inner < 0 || inner >= child.net_count then
                    problem "part %S: binding of %S net %d out of range"
                      p.part_name inst.part_name inner;
                  check_net "binding target" outer)
                inst.net_map)
        p.instances;
      Hashtbl.replace seen p.part_name p)
    parts;
  List.rev !problems

let validate t =
  let problems = part_problems t.parts in
  if List.exists (fun p -> p.part_name = t.top) t.parts then problems
  else problems @ [ Format.asprintf "top part %S undefined" t.top ]

let flat_device_count t =
  let memo = Hashtbl.create 16 in
  List.iter
    (fun p ->
      let n =
        List.length p.devices
        + List.fold_left
            (fun acc (inst : instance) ->
              acc + try Hashtbl.find memo inst.part_name with Not_found -> 0)
            0 p.instances
      in
      Hashtbl.replace memo p.part_name n)
    t.parts;
  try Hashtbl.find memo t.top with Not_found -> 0

(* ---------- the part index ----------------------------------------------- *)

type index = {
  ix_parts : part array;  (** definition order *)
  ix_by_name : (string, int) Hashtbl.t;  (** first definition of each name *)
  ix_children : int array option array;
      (** per part, its instances' part indices, resolved on first use *)
  ix_sizes : (int * int) option array;  (** see [sizes] *)
  ix_problems : string list Lazy.t;  (** {!part_problems} *)
}

let index t =
  let parts = Array.of_list t.parts in
  let by_name = Hashtbl.create (2 * Array.length parts + 1) in
  Array.iteri
    (fun i p ->
      if not (Hashtbl.mem by_name p.part_name) then
        Hashtbl.add by_name p.part_name i)
    parts;
  {
    ix_parts = parts;
    ix_by_name = by_name;
    ix_children = Array.make (Array.length parts) None;
    ix_sizes = Array.make (Array.length parts) None;
    ix_problems = lazy (part_problems t.parts);
  }

let find_index ix name =
  match Hashtbl.find_opt ix.ix_by_name name with
  | Some i -> i
  | None -> fail "unknown part %S" name

let find ix name = ix.ix_parts.(find_index ix name)

let children ix i =
  match ix.ix_children.(i) with
  | Some c -> c
  | None ->
      let c =
        Array.of_list
          (List.map
             (fun (inst : instance) -> find_index ix inst.part_name)
             ix.ix_parts.(i).instances)
      in
      ix.ix_children.(i) <- Some c;
      c

(* ---------- flattening --------------------------------------------------- *)

type activation = {
  act_part : string;
  act_nets : int array;
  act_leaf : bool;
  act_device : int;
}

(* Devices and local nets in the full expansion of part [i], memoized on
   the index.  Only called on validated parts, so the recursion follows
   a DAG. *)
let rec sizes ix i =
  match ix.ix_sizes.(i) with
  | Some s -> s
  | None ->
      let p = ix.ix_parts.(i) in
      let s =
        Array.fold_left
          (fun (d, n) c ->
            let cd, cn = sizes ix c in
            (d + cd, n + cn))
          (List.length p.devices, p.net_count)
          (children ix i)
      in
      ix.ix_sizes.(i) <- Some s;
      s

(* One pass over a validated sub-hierarchy.  An activation's local net [l]
   is forest element [base + l] (fresh elements are consecutive), so the
   walk keeps one base per activation instead of a map, and the forest
   sees the same fresh/union sequence as an explicit map would give. *)
type walk = {
  uf : Union_find.t;
  devs : hdevice array;  (** flat device -> its part device *)
  offs : Point.t array;  (** flat device -> activation offset *)
  terms : int array;  (** gate, source, drain elements per flat device *)
  first_dev : int array;  (** element -> first flat device touching it *)
  touched : Ibuf.t;  (** elements some device touches, first touch first *)
  acts : Ibuf.t;  (** part index, base, first device per activation *)
}

let no_device =
  {
    dtype = Nmos.Enhancement;
    gate = 0;
    source = 0;
    drain = 0;
    length = 0;
    width = 0;
    location = Point.origin;
  }

let touch w k slot g =
  w.terms.((3 * k) + slot) <- g;
  if w.first_dev.(g) < 0 then begin
    w.first_dev.(g) <- k;
    Ibuf.push w.touched g
  end

(* Device [k] of the walk is [d] at [offset]; its terminals are forest
   elements [base + net]. *)
let add_device w k base (d : hdevice) offset =
  w.devs.(k) <- d;
  w.offs.(k) <- offset;
  touch w k 0 (base + d.gate);
  touch w k 1 (base + d.source);
  touch w k 2 (base + d.drain)

let walk_hierarchy ix root =
  let n_dev, n_el = sizes ix root in
  let w =
    {
      uf = Union_find.create ~hint:n_el ();
      devs = Array.make n_dev no_device;
      offs = Array.make n_dev Point.origin;
      terms = Array.make (3 * n_dev) 0;
      first_dev = Array.make n_el (-1);
      touched = Ibuf.create ();
      acts = Ibuf.create ();
    }
  in
  let k = ref 0 in
  let rec instantiate pi (offset : Point.t) =
    let p = ix.ix_parts.(pi) in
    let base = Union_find.count w.uf in
    for _ = 1 to p.net_count do
      ignore (Union_find.fresh w.uf)
    done;
    let first = !k in
    List.iter
      (fun d ->
        add_device w !k base d offset;
        incr k)
      p.devices;
    let kids = children ix pi in
    List.iteri
      (fun j (inst : instance) ->
        let child_base = instantiate kids.(j) (Point.add offset inst.offset) in
        List.iter
          (fun (inner, outer) ->
            ignore (Union_find.union w.uf (child_base + inner) (base + outer)))
          inst.net_map)
      p.instances;
    Ibuf.push w.acts pi;
    Ibuf.push w.acts base;
    Ibuf.push w.acts first;
    base
  in
  ignore (instantiate root Point.origin);
  w

(* The flat circuit of a finished walk, named [name].  A net's names are
   the sorted union of its members' names.  Its location is the first
   device location of one member: of the members some device touches,
   the one in the highest bucket of an int-keyed [Hashtbl] of that many
   entries, earliest first touch on a tie.  That is the member an
   earlier implementation, which kept these locations in a [Hashtbl] and
   let its iteration order pick, left last; wirelists print the location,
   so the rule stays. *)
let circuit_of_walk ix w name dense =
  let classes = Union_find.class_count w.uf in
  let t = w.terms in
  let devices =
    Array.init (Array.length w.devs) (fun k ->
        let d = w.devs.(k) in
        {
          Circuit.dtype = d.dtype;
          gate = dense.(t.(3 * k));
          source = dense.(t.((3 * k) + 1));
          drain = dense.(t.((3 * k) + 2));
          length = d.length;
          width = d.width;
          location = Point.add d.location w.offs.(k);
          geometry = [];
        })
  in
  let names = Array.make classes [] in
  let a = w.acts.data in
  for i = 0 to (w.acts.len / 3) - 1 do
    let base = a.((3 * i) + 1) in
    List.iter
      (fun (n, nm) ->
        let c = dense.(base + n) in
        names.(c) <- nm :: names.(c))
      ix.ix_parts.(a.(3 * i)).net_names
  done;
  let buckets = ref 64 in
  while w.touched.len > 2 * !buckets do
    buckets := 2 * !buckets
  done;
  let best = Array.make classes (-1) and located = Array.make classes (-1) in
  for i = 0 to w.touched.len - 1 do
    let g = w.touched.data.(i) in
    let c = dense.(g) and b = Hashtbl.hash g land (!buckets - 1) in
    if b > best.(c) then begin
      best.(c) <- b;
      located.(c) <- w.first_dev.(g)
    end
  done;
  let nets =
    Array.init classes (fun c ->
        {
          Circuit.names = List.sort_uniq String.compare names.(c);
          location =
            (if located.(c) < 0 then Point.origin
             else devices.(located.(c)).Circuit.location);
          geometry = [];
        })
  in
  { Circuit.name; devices; nets }

let flatten_ext t =
  (match validate t with
  | [] -> ()
  | p :: _ -> fail "invalid hierarchy: %s" p);
  let ix = index t in
  let w = walk_hierarchy ix (find_index ix t.top) in
  let dense = Union_find.compress w.uf in
  let circuit = circuit_of_walk ix w t.top dense in
  let a = w.acts.data in
  let activations =
    List.init (w.acts.len / 3) (fun i ->
        let p = ix.ix_parts.(a.(3 * i)) and base = a.((3 * i) + 1) in
        {
          act_part = p.part_name;
          act_nets = Array.init p.net_count (fun l -> dense.(base + l));
          act_leaf = p.instances = [];
          act_device = a.((3 * i) + 2);
        })
  in
  (circuit, activations)

let flatten_sub ix name =
  (match Lazy.force ix.ix_problems with
  | [] -> ()
  | p :: _ -> fail "invalid hierarchy: %s" p);
  let root =
    match Hashtbl.find_opt ix.ix_by_name name with
    | Some i -> i
    | None -> fail "invalid hierarchy: top part %S undefined" name
  in
  let w = walk_hierarchy ix root in
  let dense = Union_find.compress w.uf in
  ( circuit_of_walk ix w name dense,
    Array.init ix.ix_parts.(root).net_count (fun l -> dense.(l)) )

let flatten t = fst (flatten_sub (index t) t.top)

(* ------------------------------------------------------------------ *)
(* Figure 2-2 dialect                                                  *)
(* ------------------------------------------------------------------ *)

let net_id i = Printf.sprintf "N%d" i

let to_string t =
  let buf = Buffer.create 4096 in
  let pr fmt = Printf.bprintf buf fmt in
  pr "(DefPart nEnh (Exports G S D))\n";
  pr "(DefPart nDepl (Exports G S D))\n";
  List.iter
    (fun p ->
      pr "(DefPart %s\n" p.part_name;
      pr " (Exports";
      List.iter (fun n -> pr " %s" (net_id n)) p.exports;
      pr ")\n";
      List.iter
        (fun (n, name) -> pr " (NetName %s %s)\n" (net_id n) name)
        p.net_names;
      List.iteri
        (fun i d ->
          pr " (Part %s (Name D%d) (Loc %d %d) (T G %s) (T S %s) (T D %s)"
            (match d.dtype with
            | Nmos.Enhancement -> "nEnh"
            | Nmos.Depletion -> "nDepl")
            i d.location.Point.x d.location.Point.y (net_id d.gate)
            (net_id d.source) (net_id d.drain);
          pr " (Channel (Length %d) (Width %d)))\n" d.length d.width)
        p.devices;
      List.iter
        (fun (inst : instance) ->
          pr " (Part %s (Name %s) (LocOffset %d %d))\n" inst.part_name
            inst.inst_name inst.offset.Point.x inst.offset.Point.y;
          List.iter
            (fun (inner, outer) ->
              pr " (Net %s/%s %s)\n" inst.inst_name (net_id inner)
                (net_id outer))
            inst.net_map)
        p.instances;
      pr " (Local";
      let exported = p.exports in
      for n = 0 to p.net_count - 1 do
        if not (List.mem n exported) then pr " %s" (net_id n)
      done;
      pr ")\n";
      pr " (NetCount %d))\n" p.net_count)
    t.parts;
  pr "(Part %s (Name Top))\n" t.top;
  Buffer.contents buf

let parse_net_ref atom =
  if String.length atom >= 2 && atom.[0] = 'N' then
    match int_of_string_opt (String.sub atom 1 (String.length atom - 1)) with
    | Some n -> n
    | None -> fail "bad net id %S" atom
  else fail "bad net id %S" atom

let of_string text =
  let sexps =
    try Sexp.parse_string text
    with Sexp.Parse_error m -> fail "s-expression error: %s" m
  in
  let atom = function
    | Sexp.Atom a -> a
    | s -> fail "expected atom, got %s" (Sexp.to_string s)
  in
  let int_atom s =
    match int_of_string_opt (atom s) with
    | Some n -> n
    | None -> fail "expected integer, got %s" (Sexp.to_string s)
  in
  let parts = ref [] and top = ref None in
  let parse_defpart name body =
    let exports = ref []
    and net_names = ref []
    and devices = ref []
    and instances = ref []
    and net_count = ref 0
    and pending_nets = ref [] in
    let clause head items =
      match (head, items) with
      | "Exports", nets -> exports := List.map (fun s -> parse_net_ref (atom s)) nets
      | "NetName", [ n; nm ] ->
          net_names := (parse_net_ref (atom n), atom nm) :: !net_names
      | "NetCount", [ n ] -> net_count := int_atom n
      | "Local", _ -> ()
      | "Part", Sexp.Atom ptype :: rest -> (
          let find_clause what =
            List.find_map
              (function
                | Sexp.List (Sexp.Atom h :: items) when h = what -> Some items
                | _ -> None)
              rest
          in
          let name_of =
            match find_clause "Name" with
            | Some [ n ] -> atom n
            | _ -> fail "Part without Name"
          in
          match ptype with
          | "nEnh" | "nDepl" ->
              let terminals =
                List.filter_map
                  (function
                    | Sexp.List [ Sexp.Atom "T"; Sexp.Atom role; Sexp.Atom n ] ->
                        Some (role, parse_net_ref n)
                    | _ -> None)
                  rest
              in
              let terminal role =
                match List.assoc_opt role terminals with
                | Some n -> n
                | None -> fail "device %s missing terminal %s" name_of role
              in
              let loc =
                match find_clause "Loc" with
                | Some [ x; y ] -> Point.make (int_atom x) (int_atom y)
                | _ -> Point.origin
              in
              let channel =
                match find_clause "Channel" with
                | Some c -> c
                | None -> fail "device %s missing Channel" name_of
              in
              let dim what =
                match
                  List.find_map
                    (function
                      | Sexp.List [ Sexp.Atom h; v ] when h = what -> Some v
                      | _ -> None)
                    channel
                with
                | Some v -> int_atom v
                | None -> fail "device %s channel missing %s" name_of what
              in
              devices :=
                {
                  dtype =
                    (if ptype = "nEnh" then Nmos.Enhancement else Nmos.Depletion);
                  gate = terminal "G";
                  source = terminal "S";
                  drain = terminal "D";
                  length = dim "Length";
                  width = dim "Width";
                  location = loc;
                }
                :: !devices
          | child_part ->
              let offset =
                match find_clause "LocOffset" with
                | Some [ x; y ] -> Point.make (int_atom x) (int_atom y)
                | _ -> Point.origin
              in
              instances :=
                {
                  part_name = child_part;
                  inst_name = name_of;
                  offset;
                  net_map = [];
                }
                :: !instances)
      | "Net", [ Sexp.Atom qualified; Sexp.Atom outer ] -> (
          match String.index_opt qualified '/' with
          | Some slash ->
              let inst = String.sub qualified 0 slash in
              let inner =
                parse_net_ref
                  (String.sub qualified (slash + 1)
                     (String.length qualified - slash - 1))
              in
              pending_nets := (inst, inner, parse_net_ref outer) :: !pending_nets
          | None -> fail "unqualified Net equivalence %s" qualified)
      | other, _ -> fail "unknown clause %S in DefPart %s" other name
    in
    List.iter
      (function
        | Sexp.List (Sexp.Atom head :: items) -> clause head items
        | other -> fail "unexpected item %s" (Sexp.to_string other))
      body;
    let instances =
      List.rev_map
        (fun (inst : instance) ->
          {
            inst with
            net_map =
              List.rev
                (List.filter_map
                   (fun (i, inner, outer) ->
                     if i = inst.inst_name then Some (inner, outer) else None)
                   !pending_nets);
          })
        !instances
    in
    {
      part_name = name;
      net_count = !net_count;
      exports = !exports;
      net_names = List.rev !net_names;
      devices = List.rev !devices;
      instances;
    }
  in
  List.iter
    (function
      | Sexp.List [ Sexp.Atom "DefPart"; Sexp.Atom ("nEnh" | "nDepl"); _ ] -> ()
      | Sexp.List (Sexp.Atom "DefPart" :: Sexp.Atom name :: body) ->
          parts := parse_defpart name body :: !parts
      | Sexp.List (Sexp.Atom "Part" :: Sexp.Atom name :: _) -> top := Some name
      | other -> fail "unexpected top-level form %s" (Sexp.to_string other))
    sexps;
  match !top with
  | None -> fail "missing top-level (Part <name> (Name Top))"
  | Some top -> { parts = List.rev !parts; top }
