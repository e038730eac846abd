open Ace_geom
open Ace_netlist
module Fragment = Ace_core.Fragment

(* Monotonic seconds for the phase-time accumulators: immune to wall-clock
   steps, same timebase as the trace spans. *)
let mono_s () = Int64.to_float (Ace_trace.Trace.now_ns ()) /. 1e9

type stats = {
  leaf_extractions : int;
  compose_calls : int;
  window_hits : int;
  compose_hits : int;
  front_end_seconds : float;
  leaf_seconds : float;
  compose_seconds : float;
}

let back_end_seconds s = s.leaf_seconds +. s.compose_seconds

let compose_fraction s =
  let b = back_end_seconds s in
  if b > 0.0 then s.compose_seconds /. b else 0.0

module Canon_table = Hashtbl.Make (struct
  type t = Content.canonical

  let equal = Content.canonical_equal
  let hash = Content.canonical_hash
end)

(* The window-redundancy and compose tables.  Because entries are keyed by
   canonical window *content*, a cache is valid across designs: re-running
   extraction after a local edit re-extracts only the windows whose
   contents actually changed — the papers' "incremental extractor". *)
type cache = {
  window_table : Fragment.t Canon_table.t;
  compose_table : (int * int * int * int, Fragment.t) Hashtbl.t;
  part_registry : (string, Hier.part) Hashtbl.t;
  mutable next_id : int;
}

let create_cache () =
  {
    window_table = Canon_table.create 256;
    compose_table = Hashtbl.create 256;
    part_registry = Hashtbl.create 256;
    next_id = 0;
  }

type state = {
  design : Ace_cif.Design.t;
  leaf_limit : int;
  memoize : bool;
  cache : cache;
  mutable leaf_extractions : int;
  mutable compose_calls : int;
  mutable window_hits : int;
  mutable compose_hits : int;
  mutable front_end_seconds : float;
  mutable leaf_seconds : float;
  mutable compose_seconds : float;
}

let fresh_id st =
  let id = st.cache.next_id in
  st.cache.next_id <- id + 1;
  id

let register_part st (frag : Fragment.t) =
  Hashtbl.replace st.cache.part_registry frag.Fragment.part.Hier.part_name
    frag.Fragment.part

let make_leaf st (w : Content.window) =
  st.leaf_extractions <- st.leaf_extractions + 1;
  let boxes =
    List.filter_map
      (function
        | Content.Geometry (lyr, bx) -> Some (lyr, bx)
        | Content.Label _ | Content.Instance _ -> None)
      w.Content.items
  in
  let labels =
    List.filter_map
      (function
        | Content.Label lab -> Some lab
        | Content.Geometry _ | Content.Instance _ -> None)
      w.Content.items
  in
  let frag =
    Fragment.leaf ~next_id:(fresh_id st) ~window:w.Content.area ~boxes ~labels
  in
  register_part st frag;
  frag

let make_compose st a b ~offset =
  st.compose_calls <- st.compose_calls + 1;
  let frag = Fragment.compose ~next_id:(fresh_id st) a b ~offset in
  register_part st frag;
  frag

(* Analyze one window to a fragment.  Fragments are origin-normalized; the
   caller places them at the window's min corner. *)
let rec analyze st (w : Content.window) : Fragment.t =
  let canon =
    let t0 = mono_s () in
    let c = Content.canonicalize w in
    st.front_end_seconds <-
      st.front_end_seconds +. (mono_s () -. t0);
    c
  in
  match
    if st.memoize then Canon_table.find_opt st.cache.window_table canon
    else None
  with
  | Some frag ->
      st.window_hits <- st.window_hits + 1;
      frag
  | None ->
      let frag = analyze_uncached st w in
      if st.memoize then Canon_table.replace st.cache.window_table canon frag;
      frag

and analyze_uncached st w =
  if Content.has_instances w then begin
    let cut =
      let t0 = mono_s () in
      let c = Content.choose_cut st.design w in
      st.front_end_seconds <-
        st.front_end_seconds +. (mono_s () -. t0);
      c
    in
    match cut with
    | Some cut -> subdivide st w cut
    | None ->
        (* overlapping bounding boxes: expand one level and retry *)
        let expanded =
          let t0 = mono_s () in
          let e = Content.expand_instances st.design w in
          st.front_end_seconds <-
            st.front_end_seconds +. (mono_s () -. t0);
          e
        in
        analyze st expanded
  end
  else if Content.box_count w > st.leaf_limit then begin
    match Content.choose_cut st.design w with
    | Some cut -> subdivide st w cut
    | None -> timed_leaf st w
  end
  else timed_leaf st w

and timed_leaf st w =
  let t0 = mono_s () in
  let frag = make_leaf st w in
  st.leaf_seconds <- st.leaf_seconds +. (mono_s () -. t0);
  frag

and subdivide st w cut =
  let t0 = mono_s () in
  let low, high = Content.split st.design w cut in
  st.front_end_seconds <- st.front_end_seconds +. (mono_s () -. t0);
  let fa = analyze st low in
  let fb = analyze st high in
  let offset =
    match cut with
    | Content.Vertical _ -> Point.make fa.Fragment.width 0
    | Content.Horizontal _ -> Point.make 0 fa.Fragment.height
  in
  let key = (fa.Fragment.id, fb.Fragment.id, offset.Point.x, offset.Point.y) in
  match
    if st.memoize then Hashtbl.find_opt st.cache.compose_table key else None
  with
  | Some frag ->
      st.compose_hits <- st.compose_hits + 1;
      frag
  | None ->
      let t0 = mono_s () in
      let frag = make_compose st fa fb ~offset in
      st.compose_seconds <- st.compose_seconds +. (mono_s () -. t0);
      if st.memoize then Hashtbl.replace st.cache.compose_table key frag;
      frag

(* Parts reachable from the root fragment's part, children first. *)
let reachable_parts registry root_part =
  let visited = Hashtbl.create 64 in
  let acc = ref [] in
  let rec visit (part : Hier.part) =
    if not (Hashtbl.mem visited part.Hier.part_name) then begin
      Hashtbl.replace visited part.Hier.part_name ();
      List.iter
        (fun (inst : Hier.instance) ->
          match Hashtbl.find_opt registry inst.Hier.part_name with
          | Some child -> visit child
          | None -> ())
        part.Hier.instances;
      acc := part :: !acc
    end
  in
  visit root_part;
  List.rev !acc

let extract ?(leaf_limit = 512) ?(memoize = true) ?cache design =
  Ace_trace.Trace.with_span "hext.extract" @@ fun () ->
  let cache =
    match cache with
    | Some c -> c
    | None -> create_cache ()
  in
  let st =
    {
      design;
      leaf_limit;
      memoize;
      cache;
      leaf_extractions = 0;
      compose_calls = 0;
      window_hits = 0;
      compose_hits = 0;
      front_end_seconds = 0.0;
      leaf_seconds = 0.0;
      compose_seconds = 0.0;
    }
  in
  let parts =
    match Content.of_design design with
    | None ->
        [
          {
            Hier.part_name = "Top";
            net_count = 0;
            exports = [];
            net_names = [];
            devices = [];
            instances = [];
          };
        ]
    | Some w ->
        let root = analyze st w in
        let top =
          { (Fragment.finalize ~next_id:(fresh_id st) root) with
            Hier.part_name = "Top" }
        in
        reachable_parts cache.part_registry root.Fragment.part @ [ top ]
  in
  let hier = { Hier.parts; top = "Top" } in
  ( hier,
    {
      leaf_extractions = st.leaf_extractions;
      compose_calls = st.compose_calls;
      window_hits = st.window_hits;
      compose_hits = st.compose_hits;
      front_end_seconds = st.front_end_seconds;
      leaf_seconds = st.leaf_seconds;
      compose_seconds = st.compose_seconds;
    } )

let extract_flat ?leaf_limit ?memoize ?cache ?(name = "chip") design =
  let hier, stats = extract ?leaf_limit ?memoize ?cache design in
  let circuit = Hier.flatten hier in
  ({ circuit with Circuit.name }, stats)

(* ---------- cell summaries for hierarchical LVS ------------------------- *)

let cell_fingerprint (p : Hier.part) =
  (* Structural hash over everything that determines the part's extracted
     behavior; identical parts (HEXT reuses one part for every redundant
     window) trivially share it, so a per-fingerprint memo pairs each
     distinct cell with its reference exactly once. *)
  let mix h x = ((h * 1000003) + x + 0x9e3779b9) land max_int in
  let str h s =
    String.fold_left
      (fun h c -> mix h (Char.code c))
      (mix h (String.length s))
      s
  in
  let h = ref (mix 0x0ACE p.Hier.net_count) in
  h := str !h p.Hier.part_name;
  List.iter (fun e -> h := mix !h e) p.Hier.exports;
  List.iter (fun (n, nm) -> h := str (mix !h n) nm) p.Hier.net_names;
  List.iter
    (fun (d : Hier.hdevice) ->
      h :=
        mix !h
          (match d.Hier.dtype with
          | Ace_tech.Nmos.Enhancement -> 3
          | Ace_tech.Nmos.Depletion -> 4);
      h := mix (mix (mix !h d.Hier.gate) d.Hier.source) d.Hier.drain;
      h := mix (mix !h d.Hier.length) d.Hier.width)
    p.Hier.devices;
  List.iter
    (fun (i : Hier.instance) ->
      h := str !h i.Hier.part_name;
      List.iter (fun (a, b) -> h := mix (mix !h a) b) i.Hier.net_map)
    p.Hier.instances;
  !h land max_int
