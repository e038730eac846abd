(* Lenient SPICE-ish reference-netlist parser.

   Mirrors the CIF front-end philosophy: never raise, always produce a
   circuit from whatever was readable, and report every problem as an
   Ace_diag diagnostic with a byte span and a stable lvs-ref-* code.  The
   dialect is deliberately small — M cards, .SUBCKT/.ENDS/X hierarchy,
   .MODEL, .GLOBAL, comments and continuations — which covers both what
   schematic tools emit and what Ace_netlist.Spice prints, so extracted
   decks round-trip.

   One scan reads the deck into scopes of device and instance cards that
   hold byte offsets and interned name ids.  The flat circuit and the
   hierarchical view are both walks over that scan: each activation of a
   scope resolves its nodes through an int frame with one slot per
   distinct node name of the scope, and a net is found by its key's node
   in a trie (see [keys]), so no walk builds or hashes a path string. *)

open Ace_netlist
module Diag = Ace_diag.Diag
module Point = Ace_geom.Point
module Ibuf = Ace_geom.Ibuf
module Trace = Ace_trace.Trace
module Nmos = Ace_tech.Nmos

let max_devices = 1_000_000

(* Instance activations a flattening may expand.  Above the device cap,
   so that a deck of one-device cells stops at the device cap. *)
let max_instances = 2_000_000

let too_large span what =
  let cap, unit =
    match what with
    | `Devices -> (max_devices, "devices")
    | `Instances -> (max_instances, "instances")
  in
  Diag.error ~span ~code:"lvs-ref-too-large"
    (Printf.sprintf "flattened netlist exceeds %d %s; truncating" cap unit)

(* ---------- growable arrays --------------------------------------------- *)

type 'a vec = { mutable items : 'a array; mutable n : int }

let vec () = { items = [||]; n = 0 }

let push v x =
  if v.n = Array.length v.items then begin
    let a = Array.make (max 16 (2 * v.n)) x in
    Array.blit v.items 0 a 0 v.n;
    v.items <- a
  end;
  v.items.(v.n) <- x;
  v.n <- v.n + 1

(* ---------- names --------------------------------------------------------- *)

(* Case-insensitive interning: every distinct uppercased name gets a dense
   id. *)
type names = {
  ids : (string, int) Hashtbl.t;  (** the name, uppercased -> id *)
  upper : string vec;  (** id -> the name, uppercased *)
}

let same_upper u s pos len =
  String.length u = len
  &&
  let i = ref 0 in
  while
    !i < len
    && String.unsafe_get u !i
       = Char.uppercase_ascii (String.unsafe_get s (pos + !i))
  do
    incr i
  done;
  !i = len

let new_names () = { ids = Hashtbl.create 256; upper = vec () }

let intern nm s pos len =
  let b = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.unsafe_set b i (Char.uppercase_ascii (String.unsafe_get s (pos + i)))
  done;
  let u = Bytes.unsafe_to_string b in
  match Hashtbl.find nm.ids u with
  | id -> id
  | exception Not_found ->
      let id = nm.upper.n in
      push nm.upper u;
      Hashtbl.add nm.ids u id;
      id

let intern_string nm s = intern nm s 0 (String.length s)

(* ---------- numbers ----------------------------------------------------- *)

(* Dimension values: bare numbers are centimicrons; U = microns (x100),
   N = nanometers (/10), M = millimeters (x100_000).  Returns rounded
   centimicrons, or None on malformed input. *)
let parse_dim s =
  let s = String.uppercase_ascii s in
  let n = String.length s in
  if n = 0 then None
  else
    let scale, cut =
      match s.[n - 1] with
      | 'U' -> (100., 1)
      | 'N' -> (0.1, 1)
      | 'M' -> (100_000., 1)
      | _ -> (1., 0)
    in
    match float_of_string_opt (String.sub s 0 (n - cut)) with
    | Some v when v >= 0. -> Some (int_of_float (Float.round (v *. scale)))
    | _ -> None

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ---------- the scan ------------------------------------------------------ *)

(* A device or instance card.  Its node tokens are consecutive terms of the
   scan: a device's drain, gate and source in card order, an instance's
   actual nodes. *)
type dev = {
  d_span : Diag.span;
  d_model : int;  (** interned model name *)
  d_terms : int;
  d_l : int;
  d_w : int;  (** centimicrons; 0 = unspecified *)
}

type inst = {
  i_span : Diag.span;
  i_name : int;  (** byte offset of the instance name ... *)
  i_name_len : int;  (** ... and its length *)
  i_name_id : int;  (** interned instance name *)
  i_sub : int;  (** interned subckt name *)
  i_terms : int;
  i_nodes : int;
}

type item = Dev of dev | Inst of inst

type scope = {
  s_name : int;  (** interned; -1 = top level *)
  s_pins : int array;  (** interned formal pin names *)
  s_span : Diag.span option;
  mutable s_rev_items : item list;  (** while scanning *)
  mutable s_items : item array;
  mutable s_slot_names : int array;  (** slot -> interned node name *)
  mutable s_slot_formal : int array;
      (** slot -> first formal pin of that name, or -1 *)
}

module Pairs = Hashtbl.Make (Int)

(* Net keys.  A net is named by a string key: the node name, uppercased,
   after the uppercased instance path ("X1/X2/") for a net local to an
   instance.  Different (path, name) pairs can spell one key — a top-level
   node "X1/A" is instance X1's local A — so a key is held as a path in a
   trie over its '/'-separated segments (interned names), and one key is
   one node whichever way it was spelled.  Node 0 is the empty key.  A
   walk maps nodes to its own nets: [net] is valid where [stamp] holds the
   walk's stamp. *)
type keys = {
  children : int Pairs.t;
      (** (parent node, segment) packed into one int -> child node *)
  net : Ibuf.t;  (** node -> net of the walk stamped on it *)
  stamp : Ibuf.t;
  mutable stamps : int;
}

type scan = {
  text : string;
  names : names;
  term_pos : int array;  (** byte offset of each node token ... *)
  term_len : int array;
  term_slot : int array;  (** ... and its slot in its scope *)
  subckts : scope option array;  (** by name: the last definition *)
  models : Nmos.device_type option array;  (** by name *)
  globals : bool array;  (** by name *)
  top : scope;
  sc_diags : Diag.t list;  (** in order *)
  keys : keys;
}

let new_keys () =
  let k =
    {
      children = Pairs.create 1024;
      net = Ibuf.create ();
      stamp = Ibuf.create ();
      stamps = 0;
    }
  in
  Ibuf.push k.net (-1);
  Ibuf.push k.stamp (-1);
  k

(* The node of key [parent ^ "/" ^ seg] (or [seg] under the root).  Node
   and name ids stay below 2^31, so the pair packs into one int. *)
let child k parent seg =
  let pair = (parent lsl 31) lor seg in
  match Pairs.find k.children pair with
  | node -> node
  | exception Not_found ->
      let node = k.net.len in
      Ibuf.push k.net (-1);
      Ibuf.push k.stamp (-1);
      Pairs.add k.children pair node;
      node

(* The node of [node]'s key followed by name [id] (its segments). *)
let name_node sc node id =
  let name = sc.names.upper.items.(id) in
  if not (String.contains name '/') then child sc.keys node id
  else
    List.fold_left
      (fun node seg -> child sc.keys node (intern_string sc.names seg))
      node
      (String.split_on_char '/' name)

let ci_equal text pos len lit =
  String.length lit = len && same_upper lit text pos len

(* Scanner state.  The current card's tokens are (offset, length, offset
   of the first '=' or -1) triples in [toks]; [posn] holds the indices of
   its positional tokens (those without a K=V '=' past their first
   byte). *)
type scanner = {
  txt : string;
  nm : names;
  toks : Ibuf.t;
  posn : Ibuf.t;
  t_pos : Ibuf.t;
  t_len : Ibuf.t;
  t_name : Ibuf.t;
  mutable diags : Diag.t list;  (** reversed *)
  mutable stack : scope list;
  mutable scopes : scope list;  (** every scope, newest first *)
  defs : (int, scope) Hashtbl.t;
  mods : (int, Nmos.device_type) Hashtbl.t;
  globs : (int, unit) Hashtbl.t;
  dims : (int, int) Hashtbl.t;  (** value name -> centimicrons, -1 = bad *)
  mutable stopped : bool;
}

let tpos s k = s.toks.data.(3 * k)
let tlen s k = s.toks.data.((3 * k) + 1)
let eq_at s k = s.toks.data.((3 * k) + 2)
let n_toks s = s.toks.len / 3
let tstr s k = String.sub s.txt (tpos s k) (tlen s k)
let tname s k = intern s.nm s.txt (tpos s k) (tlen s k)
let sdiag s d = s.diags <- d :: s.diags

let collect_positionals s from =
  s.posn.len <- 0;
  for k = from to n_toks s - 1 do
    if eq_at s k <= 0 then Ibuf.push s.posn k
  done

(* The first K=V token at or after [from] whose key is [key] (uppercase),
   or -1. *)
let find_param s from key =
  let n = n_toks s and found = ref (-1) and k = ref from in
  while !found < 0 && !k < n do
    let e = eq_at s !k in
    if e > 0 && ci_equal s.txt (tpos s !k) e key then found := !k else incr k
  done;
  !found

let param_value s k =
  let e = eq_at s k in
  (tpos s k + e + 1, tlen s k - e - 1)

let add_term s k =
  Ibuf.push s.t_pos (tpos s k);
  Ibuf.push s.t_len (tlen s k);
  Ibuf.push s.t_name (tname s k)

let new_scope name pins span =
  {
    s_name = name;
    s_pins = pins;
    s_span = span;
    s_rev_items = [];
    s_items = [||];
    s_slot_names = [||];
    s_slot_formal = [||];
  }

let add_item s it =
  let sc = List.hd s.stack in
  sc.s_rev_items <- it :: sc.s_rev_items

(* A device's L= or W= value in centimicrons, 0 when absent. *)
let dim s span key =
  let k = find_param s 0 key in
  if k < 0 then 0
  else begin
    let vp, vl = param_value s k in
    let id = intern s.nm s.txt vp vl in
    let v =
      try Hashtbl.find s.dims id
      with Not_found ->
        let v =
          match parse_dim (String.sub s.txt vp vl) with Some v -> v | None -> -1
        in
        Hashtbl.add s.dims id v;
        v
    in
    if v >= 0 then v
    else begin
      sdiag s
        (Diag.error ~span ~code:"lvs-ref-bad-number"
           (Printf.sprintf "cannot parse %s=%s" key (String.sub s.txt vp vl)));
      0
    end
  end

let control_card s span =
  let n_toks = n_toks s in
  let keyword lit = ci_equal s.txt (tpos s 0) (tlen s 0) lit in
  if keyword ".SUBCKT" then
    if n_toks >= 2 then begin
      collect_positionals s 2;
      let pins = Array.init s.posn.len (fun j -> tname s s.posn.data.(j)) in
      let sc = new_scope (tname s 1) pins (Some span) in
      s.scopes <- sc :: s.scopes;
      s.stack <- sc :: s.stack
    end
    else sdiag s (Diag.error ~span ~code:"lvs-ref-bad-card" ".SUBCKT needs a name")
  else if keyword ".ENDS" then begin
    match s.stack with
    | sc :: (_ :: _ as rest) ->
        Hashtbl.replace s.defs sc.s_name sc;
        s.stack <- rest
    | _ ->
        sdiag s
          (Diag.error ~span ~code:"lvs-ref-unmatched-ends"
             ".ENDS without a matching .SUBCKT")
  end
  else if keyword ".MODEL" then begin
    collect_positionals s 1;
    if s.posn.len = 0 then
      sdiag s (Diag.error ~span ~code:"lvs-ref-bad-card" ".MODEL needs a name")
    else begin
      let m = tname s s.posn.data.(0) in
      (* VTO sign decides enhancement vs depletion when present;
         otherwise names containing DEP (or the literal D prefix
         convention) are depletion. *)
      let vto = find_param s 1 "VTO" in
      let dtype =
        if vto >= 0 then
          let vp, vl = param_value s vto in
          match float_of_string_opt (String.sub s.txt vp vl) with
          | Some v when v < 0. -> Nmos.Depletion
          | _ -> Nmos.Enhancement
        else if contains_sub s.nm.upper.items.(m) "DEP" then Nmos.Depletion
        else Nmos.Enhancement
      in
      Hashtbl.replace s.mods m dtype
    end
  end
  else if keyword ".GLOBAL" then
    for k = 1 to n_toks - 1 do
      Hashtbl.replace s.globs (tname s k) ()
    done
  else if keyword ".END" then s.stopped <- true
  else
    sdiag s
      (Diag.hint ~span ~code:"lvs-ref-unknown-card"
         (Printf.sprintf "ignoring unknown control card %s"
            (String.uppercase_ascii (tstr s 0))))

let card s span =
  match Char.uppercase_ascii s.txt.[tpos s 0] with
  | '.' -> control_card s span
  | 'M' ->
      (* Mname d g s [b] model — 3-node (no bulk) and 4-node forms. *)
      collect_positionals s 0;
      let np = s.posn.len and p = s.posn.data in
      if np = 5 || np = 6 then begin
        let model = tname s p.(np - 1) in
        let d_terms = s.t_pos.len in
        add_term s p.(1);
        add_term s p.(2);
        add_term s p.(3);
        (* W before L: the order the diagnostics have always come in *)
        let d_w = dim s span "W" in
        let d_l = dim s span "L" in
        add_item s (Dev { d_span = span; d_model = model; d_terms; d_l; d_w })
      end
      else
        sdiag s
          (Diag.error ~span ~code:"lvs-ref-bad-device"
             (Printf.sprintf "device card %s needs 3 or 4 nodes and a model"
                (tstr s 0)))
  | 'X' ->
      collect_positionals s 0;
      let np = s.posn.len and p = s.posn.data in
      if np >= 2 then begin
        let i_terms = s.t_pos.len in
        for j = 1 to np - 2 do
          add_term s p.(j)
        done;
        add_item s
          (Inst
             {
               i_span = span;
               i_name = tpos s p.(0);
               i_name_len = tlen s p.(0);
               i_name_id = tname s p.(0);
               i_sub = tname s p.(np - 1);
               i_terms;
               i_nodes = np - 2;
             })
      end
      else
        sdiag s
          (Diag.error ~span ~code:"lvs-ref-bad-card"
             (Printf.sprintf "instance card %s needs nodes and a name"
                (tstr s 0)))
  | ('R' | 'C' | 'V' | 'I' | 'L' | 'D' | 'Q' | 'J' | 'K' | 'E' | 'F' | 'G' | 'H')
    as c ->
      sdiag s
        (Diag.hint ~span ~code:"lvs-ref-ignored-card"
           (Printf.sprintf
              "%c card %s ignored (only transistors take part in switch-level \
               comparison)"
              c (tstr s 0)))
  | _ ->
      sdiag s
        (Diag.error ~span ~code:"lvs-ref-bad-card"
           (Printf.sprintf "unrecognized card %s" (tstr s 0)))

let is_sep = function ' ' | '(' | ')' | ',' -> true | _ -> false
let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* Tokens are the maximal runs of [a, b) without ' ', '(', ')' or ','. *)
let tokenize s a b =
  let t = s.txt and i = ref a in
  while !i < b do
    while !i < b && is_sep (String.unsafe_get t !i) do
      incr i
    done;
    let start = !i and eq = ref (-1) in
    while !i < b && not (is_sep (String.unsafe_get t !i)) do
      if !eq < 0 && String.unsafe_get t !i = '=' then eq := !i - start;
      incr i
    done;
    if !i > start then begin
      Ibuf.push s.toks start;
      Ibuf.push s.toks (!i - start);
      Ibuf.push s.toks !eq
    end
  done

(* Slots: the distinct node names of each scope, numbered in first-use
   order; a slot named like a formal pin binds to the first such pin.
   Returns each term's slot. *)
let assign_slots names scopes term_name =
  let term_slot = term_name (* each term's name is read once, then overwritten *) in
  let n_names = names.upper.n in
  let seen = Array.make n_names (-1) and slot_of = Array.make n_names 0 in
  let slots = Ibuf.create () in
  List.iteri
    (fun serial sc ->
      (match sc.s_rev_items with
      | [] -> ()
      | last :: _ as rev ->
          let n = List.length rev in
          let items = Array.make n last in
          List.iteri (fun i it -> items.(n - 1 - i) <- it) rev;
          sc.s_items <- items;
          sc.s_rev_items <- []);
      slots.len <- 0;
      let use t =
        let id = term_name.(t) in
        if seen.(id) <> serial then begin
          seen.(id) <- serial;
          slot_of.(id) <- slots.len;
          Ibuf.push slots id
        end;
        term_slot.(t) <- slot_of.(id)
      in
      Array.iter
        (function
          | Dev d ->
              use d.d_terms;
              use (d.d_terms + 1);
              use (d.d_terms + 2)
          | Inst i ->
              for t = i.i_terms to i.i_terms + i.i_nodes - 1 do
                use t
              done)
        sc.s_items;
      sc.s_slot_names <- Array.sub slots.data 0 slots.len;
      let formal = Array.make slots.len (-1) in
      for k = Array.length sc.s_pins - 1 downto 0 do
        let id = sc.s_pins.(k) in
        if seen.(id) = serial then formal.(slot_of.(id)) <- k
      done;
      sc.s_slot_formal <- formal)
    scopes;
  term_slot

let scan text =
  let len = String.length text in
  let top = new_scope (-1) [||] None in
  let s =
    {
      txt = text;
      nm = new_names ();
      toks = Ibuf.create ();
      posn = Ibuf.create ();
      (* node tokens run about one per 12 bytes of a deck *)
      t_pos = { Ibuf.data = Array.make (64 + (len / 12)) 0; len = 0 };
      t_len = { Ibuf.data = Array.make (64 + (len / 12)) 0; len = 0 };
      t_name = { Ibuf.data = Array.make (64 + (len / 12)) 0; len = 0 };
      diags = [];
      stack = [ top ];
      scopes = [ top ];
      defs = Hashtbl.create 8;
      mods = Hashtbl.create 4;
      globs = Hashtbl.create 4;
      dims = Hashtbl.create 16;
      stopped = false;
    }
  in
  (* Physical lines, with a leading '+' continuing the previous card.
     '*' lines are comments; '$' starts an inline comment.  A card's span
     covers all of its lines; a card with no tokens is dropped. *)
  let card_start = ref (-1) and card_stop = ref 0 in
  let flush () =
    if !card_start >= 0 then begin
      if s.toks.len > 0 then card s { Diag.start = !card_start; stop = !card_stop };
      s.toks.len <- 0;
      card_start := -1
    end
  in
  let dollar = ref (-1) and a = ref 0 in
  while !a < len && not s.stopped do
    let b = try String.index_from text !a '\n' with Not_found -> len in
    if !dollar < !a then
      dollar := (try String.index_from text !a '$' with Not_found -> len);
    let x = ref !a and e = ref (min !dollar b) in
    while !x < !e && is_space (String.unsafe_get text !x) do
      incr x
    done;
    while !e > !x && is_space (String.unsafe_get text (!e - 1)) do
      decr e
    done;
    (if !x < !e && text.[!x] <> '*' then
       if text.[!x] = '+' then begin
         if !card_start < 0 then card_start := !a;
         card_stop := b;
         tokenize s (!x + 1) !e
       end
       else begin
         flush ();
         card_start := !a;
         card_stop := b;
         tokenize s !x !e
       end);
    a := b + 1
  done;
  if not s.stopped then flush ();
  (match s.stack with
  | _ :: _ :: _ ->
      List.iter
        (fun sc ->
          if sc.s_name >= 0 then begin
            (match sc.s_span with
            | Some span ->
                sdiag s
                  (Diag.error ~span ~code:"lvs-ref-unterminated-subckt"
                     (Printf.sprintf ".SUBCKT %s never closed by .ENDS"
                        s.nm.upper.items.(sc.s_name)))
            | None -> ());
            Hashtbl.replace s.defs sc.s_name sc
          end)
        s.stack
  | _ -> ());
  let term_slot = assign_slots s.nm s.scopes s.t_name.data in
  let by_name tbl f =
    let a = Array.make s.nm.upper.n (f None) in
    Hashtbl.iter (fun id v -> a.(id) <- f (Some v)) tbl;
    a
  in
  {
    text;
    names = s.nm;
    term_pos = s.t_pos.data;
    term_len = s.t_len.data;
    term_slot;
    subckts = by_name s.defs Fun.id;
    models = by_name s.mods Fun.id;
    globals = by_name s.globs Option.is_some;
    top;
    sc_diags = List.rev s.diags;
    keys = new_keys ();
  }

(* A count over each subckt's full expansion, [dev] per device and [inst]
   per instance activation, saturating at [cap + 1]; -1 when the
   expansion meets an undefined subckt, a pin-count mismatch or
   recursion. *)
let expanded_count sc ~dev ~inst ~cap =
  let memo = Array.make (Array.length sc.subckts) (-3) (* unvisited *) in
  let rec size (s : scope) =
    match memo.(s.s_name) with
    | -2 -> -1 (* under way: recursion *)
    | -3 ->
        memo.(s.s_name) <- -2;
        let total =
          Array.fold_left
            (fun total it ->
              if total < 0 then total
              else
                match it with
                | Dev _ -> min (cap + 1) (total + dev)
                | Inst i -> (
                    match sc.subckts.(i.i_sub) with
                    | Some c when i.i_nodes = Array.length c.s_pins ->
                        let n = size c in
                        if n < 0 then -1 else min (cap + 1) (total + inst + n)
                    | _ -> -1))
            0 s.s_items
        in
        memo.(s.s_name) <- total;
        total
    | m -> m
  in
  size

let expanded_size sc = expanded_count sc ~dev:1 ~inst:0 ~cap:max_devices

(* ---------- walks ------------------------------------------------------- *)

(* One expansion into one circuit: its nets (a key space over [keys]),
   its devices, and the frame stack of the activations under way.  A
   frame is the nets of an instance's actual nodes (what its formals
   bind to), an activation's key, or a scope's slots (-1 until first
   resolved).  A key frame at [kb] holds the parent activation's key
   frame, the instance name and the key node, -1 until a local net first
   needs it: an activation with no local net of its own, or below one,
   adds nothing to the trie.  [root_key] is the empty key.  The walks
   over one scan share its key nodes, each under its own stamp, so a walk
   must be done resolving before the next one starts. *)
type frames = {
  mutable st : int array;
  mutable sp : int;  (** frames occupy [0, sp) *)
  path : Ibuf.t;  (** offset and length of each instance name on the path *)
  buf : Buffer.t;
  active : int array;  (** by subckt name: activations under way *)
}

type walk = {
  sc : scan;
  fr : frames;  (** shared by the walks of one expansion *)
  stamp : int;
  disp : string vec;  (** net -> display name *)
  devices : Circuit.device vec;
  cell : bool;
      (** a cell body: ground and globals are implicit pins, and nothing
          is diagnosed (the view checked the expansion beforehand) *)
  mutable implicit : (int * int) list;
      (** cell bodies: (key name, net) of each implicit pin, reversed *)
  gnd : string;
  gnd_id : int;
  zero_id : int;
  gnd_node : int;
  global_seg : int;
  mutable hinted : int list;  (** unknown models already diagnosed *)
  mutable diags : Diag.t list;  (** reversed *)
  cap : int;
  mutable instances : int;  (** activations so far *)
}

exception Full

(* The key frame every stack starts with: its node, 0, is the empty key. *)
let root_key = 0

let new_frames sc =
  {
    st = Array.make 64 0;
    sp = root_key + 3;
    path = Ibuf.create ();
    buf = Buffer.create 64;
    active = Array.make (Array.length sc.subckts) 0;
  }

let no_device =
  {
    Circuit.dtype = Nmos.Enhancement;
    gate = 0;
    source = 0;
    drain = 0;
    length = 0;
    width = 0;
    location = Point.origin;
    geometry = [];
  }

(* [devices] is the expected device count, the capacity the walk starts
   with. *)
let new_walk sc fr ~cell ~gnd ~cap ~devices =
  let k = sc.keys in
  k.stamps <- k.stamps + 1;
  let gnd_id = intern_string sc.names gnd in
  {
    sc;
    fr;
    stamp = k.stamps;
    disp = vec ();
    devices = { items = Array.make (min devices cap) no_device; n = 0 };
    cell;
    implicit = [];
    gnd;
    gnd_id;
    zero_id = intern_string sc.names "0";
    gnd_node = name_node sc 0 gnd_id;
    global_seg = intern_string sc.names "\x00GLOBAL";
    hinted = [];
    diags = [];
    cap;
    instances = 0;
  }

let reserve w n =
  let fr = w.fr in
  if fr.sp + n > Array.length fr.st then begin
    let st = Array.make (max (fr.sp + n) (2 * Array.length fr.st)) 0 in
    Array.blit fr.st 0 st 0 fr.sp;
    fr.st <- st
  end

(* The key node of the key frame at [kb]. *)
let rec key_node w kb =
  let node = w.fr.st.(kb + 2) in
  if node >= 0 then node
  else begin
    let node = name_node w.sc (key_node w w.fr.st.(kb)) w.fr.st.(kb + 1) in
    w.fr.st.(kb + 2) <- node;
    node
  end

(* The walk's net at key [node], or -1. *)
let net_of w node =
  let k = w.sc.keys in
  if k.stamp.data.(node) = w.stamp then k.net.data.(node) else -1

let new_net w node display =
  let k = w.sc.keys in
  let net = w.disp.n in
  push w.disp display;
  k.stamp.data.(node) <- w.stamp;
  k.net.data.(node) <- net;
  net

let net_at w node display =
  let net = net_of w node in
  if net >= 0 then net else new_net w node display

let term_text w t = String.sub w.sc.text w.sc.term_pos.(t) w.sc.term_len.(t)

(* [path] followed by term [t]'s text: a local net's display name. *)
let local_name w t =
  Buffer.clear w.fr.buf;
  for j = 0 to (w.fr.path.len / 2) - 1 do
    Buffer.add_substring w.fr.buf w.sc.text w.fr.path.data.(2 * j)
      w.fr.path.data.((2 * j) + 1);
    Buffer.add_char w.fr.buf '/'
  done;
  Buffer.add_substring w.fr.buf w.sc.text w.sc.term_pos.(t) w.sc.term_len.(t);
  Buffer.contents w.fr.buf

(* A cell body's implicit pin for ground or global [id]: its net is keyed
   "\000GLOBAL/<name>", apart from every node name. *)
let implicit_net w id display =
  match List.assoc_opt id w.implicit with
  | Some net -> net
  | None ->
      let node = name_node w.sc (child w.sc.keys 0 w.global_seg) id in
      let net = net_at w node (display ()) in
      w.implicit <- (id, net) :: w.implicit;
      net

(* The net of term [t] in an activation of [scope] with its key frame at
   [kb], its slot frame at [sb] and its actuals at [fb]: ground first,
   then the formals, then globals and the top level by bare name, then
   locals by path.  Display names are built only for new nets. *)
let resolve w scope ~kb ~sb ~fb t =
  let slot = w.sc.term_slot.(t) in
  let cached = w.fr.st.(sb + slot) in
  if cached >= 0 then cached
  else begin
    let id = scope.s_slot_names.(slot) in
    let global = w.sc.globals.(id) in
    let net =
      if id = w.zero_id || id = w.gnd_id then
        if w.cell then implicit_net w w.gnd_id (fun () -> w.gnd)
        else net_at w w.gnd_node w.gnd
      else if scope.s_slot_formal.(slot) >= 0 then
        w.fr.st.(fb + scope.s_slot_formal.(slot))
      else if global && w.cell then implicit_net w id (fun () -> term_text w t)
      else
        let key = name_node w.sc (if global then 0 else key_node w kb) id in
        let net = net_of w key in
        if net >= 0 then net
        else new_net w key (if global then term_text w t else local_name w t)
    in
    w.fr.st.(sb + slot) <- net;
    net
  end

let diag w d = w.diags <- d :: w.diags

let dtype_of w (d : dev) =
  match w.sc.models.(d.d_model) with
  | Some t -> t
  | None ->
      let m = w.sc.names.upper.items.(d.d_model) in
      if contains_sub m "DEP" then Nmos.Depletion
      else begin
        if
          (not w.cell)
          && m <> "ENH" && m <> "NMOS" && m <> "N"
          && not (List.mem d.d_model w.hinted)
        then begin
          w.hinted <- d.d_model :: w.hinted;
          diag w
            (Diag.hint ~span:d.d_span ~code:"lvs-ref-unknown-model"
               (Printf.sprintf "unknown model %s treated as enhancement" m))
        end;
        Nmos.Enhancement
      end

let device w scope ~kb ~sb ~fb (d : dev) =
  if w.devices.n >= w.cap then begin
    diag w (too_large d.d_span `Devices);
    raise Full
  end;
  (* drain, source, gate: the order that has always numbered new nets *)
  let drain = resolve w scope ~kb ~sb ~fb d.d_terms in
  let source = resolve w scope ~kb ~sb ~fb (d.d_terms + 2) in
  let gate = resolve w scope ~kb ~sb ~fb (d.d_terms + 1) in
  push w.devices
    {
      Circuit.dtype = dtype_of w d;
      gate;
      source;
      drain;
      length = d.d_l;
      width = d.d_w;
      location = Point.make w.devices.n 0;
      geometry = [];
    }

(* Walk [scope] with its key frame at [kb] and its formals bound to the
   frame at [fb]: its devices in card order, each instance's actual nodes
   resolved in order before its body is walked. *)
let rec activate w scope ~kb ~fb =
  let sb = w.fr.sp in
  let n = Array.length scope.s_slot_names in
  reserve w n;
  Array.fill w.fr.st sb n (-1);
  w.fr.sp <- sb + n;
  Array.iter
    (function
      | Dev d -> device w scope ~kb ~sb ~fb d
      | Inst i -> instance w scope ~kb ~sb ~fb i)
    scope.s_items;
  w.fr.sp <- sb

and instance w scope ~kb ~sb ~fb i =
  let names = w.sc.names in
  let inst_name () = String.sub w.sc.text i.i_name i.i_name_len in
  match w.sc.subckts.(i.i_sub) with
  | None ->
      diag w
        (Diag.error ~span:i.i_span ~code:"lvs-ref-undefined-subckt"
           (Printf.sprintf "instance %s of undefined subcircuit %s"
              (inst_name ()) names.upper.items.(i.i_sub)))
  | Some sub when w.fr.active.(i.i_sub) > 0 ->
      diag w
        (Diag.error ~span:i.i_span ~code:"lvs-ref-recursive"
           (Printf.sprintf "recursive expansion of subcircuit %s"
              names.upper.items.(sub.s_name)))
  | Some sub when i.i_nodes <> Array.length sub.s_pins ->
      diag w
        (Diag.error ~span:i.i_span ~code:"lvs-ref-pin-mismatch"
           (Printf.sprintf "instance %s passes %d nodes but %s declares %d pins"
              (inst_name ()) i.i_nodes names.upper.items.(sub.s_name)
              (Array.length sub.s_pins)))
  | Some _ when w.instances >= max_instances ->
      diag w (too_large i.i_span `Instances);
      raise Full
  | Some sub ->
      w.instances <- w.instances + 1;
      let ab = w.fr.sp in
      let ikb = ab + i.i_nodes in
      reserve w (i.i_nodes + 3);
      for k = 0 to i.i_nodes - 1 do
        w.fr.st.(ab + k) <- resolve w scope ~kb ~sb ~fb (i.i_terms + k)
      done;
      w.fr.st.(ikb) <- kb;
      w.fr.st.(ikb + 1) <- i.i_name_id;
      w.fr.st.(ikb + 2) <- -1;
      w.fr.sp <- ikb + 3;
      Ibuf.push w.fr.path i.i_name;
      Ibuf.push w.fr.path i.i_name_len;
      w.fr.active.(i.i_sub) <- w.fr.active.(i.i_sub) + 1;
      activate w sub ~kb:ikb ~fb:ab;
      w.fr.active.(i.i_sub) <- w.fr.active.(i.i_sub) - 1;
      w.fr.path.len <- w.fr.path.len - 2;
      w.fr.sp <- ab

(* Device [i] and net [i] are both located at (i, 0): they share the
   point. *)
let circuit_of w name =
  let devices =
    if w.devices.n = Array.length w.devices.items then w.devices.items
    else Array.sub w.devices.items 0 w.devices.n
  in
  {
    Circuit.name;
    devices;
    nets =
      Array.init w.disp.n (fun i ->
          {
            Circuit.names = [ w.disp.items.(i) ];
            location =
              (if i < Array.length devices then devices.(i).Circuit.location
               else Point.make i 0);
            geometry = [];
          });
  }

(* ---------- the flat circuit ---------------------------------------------- *)

(* The walk stops at the first device or instance past its cap: that
   card's span carries lvs-ref-too-large, and the circuit keeps the
   devices before it. *)
let flatten ~name ~gnd sc =
  let size = expanded_size sc in
  let devices =
    Array.fold_left
      (fun n -> function
        | Dev _ -> n + 1
        | Inst i -> (
            match sc.subckts.(i.i_sub) with
            | Some sub -> n + max 0 (size sub)
            | None -> n))
      0 sc.top.s_items
  in
  let w =
    new_walk sc (new_frames sc) ~cell:false ~gnd ~cap:max_devices ~devices
  in
  (try activate w sc.top ~kb:root_key ~fb:0 with Full -> ());
  (circuit_of w name, sc.sc_diags @ List.rev w.diags)

let parse ?(name = "reference") ?(gnd = "GND") text =
  flatten ~name ~gnd (scan text)

(* ---------- hierarchical view ------------------------------------------- *)

type hcell = {
  hc_name : string;
  hc_pins : string list;
  hc_formals : int;
  hc_body : Circuit.t;
  hc_pin_nets : int array;
}

type hinst = { hi_cell : int; hi_nets : int array }

type hview = {
  hv_glue : Circuit.t;
  hv_cells : hcell array;
  hv_insts : hinst list;
}

(* Cell body of [sub]: its formal pins first, as nets keyed by their own
   names; nested instances flatten into it.  Ground and globals referenced
   inside become implicit pins after the formals, so every cell terminal
   surfaces at its instances. *)
let build_cell sc fr ~gnd ~size sub =
  let w = new_walk sc fr ~cell:true ~gnd ~cap:max_int ~devices:(size sub) in
  let names = sc.names in
  let pins = sub.s_pins in
  let pin_nets =
    Array.map (fun p -> net_at w (name_node sc 0 p) names.upper.items.(p)) pins
  in
  let fb = fr.sp in
  reserve w (Array.length pins);
  Array.blit pin_nets 0 fr.st fb (Array.length pins);
  fr.sp <- fb + Array.length pins;
  fr.active.(sub.s_name) <- 1;
  activate w sub ~kb:root_key ~fb;
  fr.active.(sub.s_name) <- 0;
  fr.sp <- fb;
  let implicit = List.rev w.implicit in
  let hc_name = names.upper.items.(sub.s_name) in
  {
    hc_name;
    hc_pins =
      Array.to_list (Array.map (fun p -> names.upper.items.(p)) pins)
      @ List.map (fun (id, _) -> names.upper.items.(id)) implicit;
    hc_formals = Array.length pins;
    hc_body = circuit_of w hc_name;
    hc_pin_nets = Array.append pin_nets (Array.of_list (List.map snd implicit));
  }

(* [count] summed over the distinct subckts instantiated at the top,
   saturating at [cap + 1]; -1 when a top-level instance's expansion is
   obstructed. *)
let cells_total sc count ~cap =
  let seen = Array.make (Array.length sc.subckts) false in
  Array.fold_left
    (fun total it ->
      match it with
      | Dev _ -> total
      | Inst _ when total < 0 -> total
      | Inst i -> (
          match sc.subckts.(i.i_sub) with
          | Some sub when i.i_nodes = Array.length sub.s_pins ->
              let n = count sub in
              if n < 0 then -1
              else if seen.(i.i_sub) then total
              else begin
                seen.(i.i_sub) <- true;
                min (cap + 1) (total + n)
              end
          | _ -> -1))
    0 sc.top.s_items

(* [None] when the deck has a first-pass error or no top-level instance,
   or when a top-level instance's expansion is obstructed or the cells
   together pass the device or the instance cap — all decided before
   anything is expanded, so the cell walks stay under both caps. *)
let view ~name ~gnd sc =
  let has_inst =
    Array.exists (function Inst _ -> true | Dev _ -> false) sc.top.s_items
  in
  if List.exists Diag.is_error sc.sc_diags || not has_inst then None
  else begin
    let size = expanded_size sc in
    let devices = cells_total sc size ~cap:max_devices in
    if
      devices < 0 || devices > max_devices
      || cells_total sc
           (expanded_count sc ~dev:0 ~inst:1 ~cap:max_instances)
           ~cap:max_instances
         > max_instances
    then None
    else begin
      (* one cell per subckt instantiated at the top, in first-instance
         order; built before the glue, since walks take turns on the key
         nodes *)
      let fr = new_frames sc in
      let top = sc.top in
      let cells = vec () and cell_index = Array.make (Array.length sc.subckts) (-1) in
      Array.iter
        (function
          | Inst i when cell_index.(i.i_sub) < 0 ->
              push cells
                (build_cell sc fr ~gnd ~size (Option.get sc.subckts.(i.i_sub)));
              cell_index.(i.i_sub) <- cells.n - 1
          | _ -> ())
        top.s_items;
      (* the glue: top-level devices and nets, one instance per X card *)
      let g =
        new_walk sc fr ~cell:false ~gnd ~cap:max_int
          ~devices:
            (Array.fold_left
               (fun n -> function Dev _ -> n + 1 | Inst _ -> n)
               0 top.s_items)
      in
      let sb = fr.sp in
      let n = Array.length top.s_slot_names in
      reserve g n;
      Array.fill fr.st sb n (-1);
      fr.sp <- sb + n;
      let insts =
        Array.fold_left
          (fun insts it ->
            match it with
            | Dev d ->
                device g top ~kb:root_key ~sb ~fb:0 d;
                insts
            | Inst i ->
                let ci = cell_index.(i.i_sub) in
                let cell = cells.items.(ci) in
                let formal_nets =
                  Array.init i.i_nodes (fun k ->
                      resolve g top ~kb:root_key ~sb ~fb:0 (i.i_terms + k))
                in
                let implicit_nets =
                  List.filteri (fun k _ -> k >= cell.hc_formals) cell.hc_pins
                  |> List.map (fun key ->
                         let id = intern_string sc.names key in
                         if id = g.gnd_id then net_at g g.gnd_node gnd
                         else net_at g (name_node sc 0 id) key)
                in
                {
                  hi_cell = ci;
                  hi_nets = Array.append formal_nets (Array.of_list implicit_nets);
                }
                :: insts)
          [] top.s_items
      in
      Some
        {
          hv_glue = circuit_of g name;
          hv_cells = Array.sub cells.items 0 cells.n;
          hv_insts = List.rev insts;
        }
    end
  end

let hier_view ?(name = "reference") ?(gnd = "GND") text =
  Trace.with_span "lvs.hier_view" @@ fun () -> view ~name ~gnd (scan text)

(* ---------- loading --------------------------------------------------------- *)

let looks_like_wirelist text =
  let rec first_nonspace i =
    if i >= String.length text then i
    else
      match text.[i] with
      | ' ' | '\t' | '\n' | '\r' -> first_nonspace (i + 1)
      | _ -> i
  in
  let i = first_nonspace 0 in
  i < String.length text
  && text.[i] = '('
  &&
  let rest = String.sub text i (min 12 (String.length text - i)) in
  String.length rest >= 8
  && String.uppercase_ascii (String.sub rest 0 8) = "(DEFPART"

let read_wirelist text =
  match Wirelist.of_string text with
  | c -> Ok (c, [])
  | exception Wirelist.Error m ->
      Error (Diag.errorf ~code:"wirelist-error" "%s" m)

let load ?(name = "reference") ?(gnd = "GND") text =
  Trace.with_span "lvs.reference" @@ fun () ->
  if looks_like_wirelist text then read_wirelist text
  else Ok (flatten ~name ~gnd (scan text))

let load_view ?(name = "reference") ?(gnd = "GND") text =
  if looks_like_wirelist text then
    let loaded = Trace.with_span "lvs.reference" (fun () -> read_wirelist text) in
    (loaded, if Result.is_ok loaded then hier_view ~name ~gnd text else None)
  else
    let sc, flat =
      Trace.with_span "lvs.reference" @@ fun () ->
      let sc = scan text in
      (sc, flatten ~name ~gnd sc)
    in
    (Ok flat, Trace.with_span "lvs.hier_view" (fun () -> view ~name ~gnd sc))
