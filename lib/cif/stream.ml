open Ace_geom
open Ace_tech

(* A symbol's expansion, flattened to ints by {!Design.add_ints}: its
   direct boxes in symbol-local coordinates, then its calls with each
   call's op transform and the callee's bounding box.  Calls of undefined
   or empty symbols are left out, as they would never be pushed. *)
type recipe = {
  boxes : int array;  (** [box_ints] per box: layer index, l, b, r, t *)
  calls : int array;
      (** [call_ints] per call: callee, op transform, callee bbox l b r t *)
}

(* Most symbols of a real chip are expanded once, so a recipe is first
   built in the stream's scratch buffers and pushed from there; only a
   symbol's second expansion keeps a copy.  The stream then holds recipes
   for reused symbols alone. *)
type cached = Seen_once | Recipe of recipe

let box_ints = 5
let call_ints = 1 + Transform.ints + 4

(* Heap entries keep their payload in pools of fixed-width int slots: a
   box slot holds the box's layer index, l, b and r (its top is the heap
   key), a call slot the callee and the call's composed transform.  The
   heap holds a box slot [s] as [s] and a call slot [s] as [lnot s].
   Released slots form a free list threaded through their first int and
   are reused first, so pushing allocates nothing once the pools have
   grown to the stream's peak. *)
type pool = {
  width : int;
  mutable data : int array;
  mutable used : int;  (** slots handed out so far *)
  mutable free : int;  (** first released slot, or -1 *)
}

let box_slot_ints = 4
let call_slot_ints = 1 + Transform.ints

type t = {
  design : Design.t;
  window : Box.t option;
      (** geometry filter: boxes and instance bboxes with no positive-area
          overlap are never pushed (nor expanded) *)
  mutable keys : int array;  (** heap priorities: top y *)
  mutable seqs : int array;
      (** insertion sequence numbers: ties on [keys] break FIFO, so pops at
          equal top-y are deterministic regardless of heap shape *)
  mutable slots : int array;  (** pool slot of each heap entry *)
  mutable size : int;
  mutable next_seq : int;
  boxes : pool;
  calls : pool;
  recipes : (int, cached) Hashtbl.t;
  rboxes : Ibuf.t;  (** the recipe under construction *)
  rcalls : Ibuf.t;
  shape_boxes : Ibuf.t;  (** one shape's decomposition *)
  outer : int array;  (** transform of the call being expanded *)
  placed : int array;  (** a transformed box, l b r t *)
  popped : Ibuf.t;  (** one [pop_at]'s boxes: layer index, l, b, r, t *)
  labels : Design.label list Lazy.t;
      (** forced only by callers that ask: a tile's stream never does *)
  mutable expansions : int;
  mutable boxes_popped : int;
}

(* --- binary max-heap on (keys, seqs, slots) --- *)

(* Strict priority order: larger top y first; at equal tops, earlier
   insertion first.  FIFO at equal keys makes the pop order a pure function
   of the push order, which the wirelist-determinism tests (and the -j1 vs
   -jN equivalence check) rely on. *)
let above t i j =
  t.keys.(i) > t.keys.(j)
  || (t.keys.(i) = t.keys.(j) && t.seqs.(i) < t.seqs.(j))

(* Both sifts move a hole: the entry being placed is held aside and
   written once, at its final position. *)
let sift_up t i =
  let key = t.keys.(i) and seq = t.seqs.(i) and slot = t.slots.(i) in
  let i = ref i in
  while
    !i > 0
    &&
    let p = (!i - 1) / 2 in
    key > t.keys.(p) || (key = t.keys.(p) && seq < t.seqs.(p))
  do
    let p = (!i - 1) / 2 in
    t.keys.(!i) <- t.keys.(p);
    t.seqs.(!i) <- t.seqs.(p);
    t.slots.(!i) <- t.slots.(p);
    i := p
  done;
  t.keys.(!i) <- key;
  t.seqs.(!i) <- seq;
  t.slots.(!i) <- slot

let sift_down t i =
  let key = t.keys.(i) and seq = t.seqs.(i) and slot = t.slots.(i) in
  let i = ref i and placed = ref false in
  while not !placed do
    let l = (2 * !i) + 1 in
    let c = if l + 1 < t.size && above t (l + 1) l then l + 1 else l in
    if
      c < t.size
      && (t.keys.(c) > key || (t.keys.(c) = key && t.seqs.(c) < seq))
    then begin
      t.keys.(!i) <- t.keys.(c);
      t.seqs.(!i) <- t.seqs.(c);
      t.slots.(!i) <- t.slots.(c);
      i := c
    end
    else placed := true
  done;
  t.keys.(!i) <- key;
  t.seqs.(!i) <- seq;
  t.slots.(!i) <- slot

let grow a n =
  let b = Array.make (2 * Array.length a) 0 in
  Array.blit a 0 b 0 n;
  b

let push t key slot =
  if t.size = Array.length t.keys then begin
    t.keys <- grow t.keys t.size;
    t.seqs <- grow t.seqs t.size;
    t.slots <- grow t.slots t.size
  end;
  t.keys.(t.size) <- key;
  t.seqs.(t.size) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  t.slots.(t.size) <- slot;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

(* Remove the top entry and return its pool slot. *)
let pop t =
  if t.size = 0 then invalid_arg "Stream.pop: empty heap";
  let slot = t.slots.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.keys.(0) <- t.keys.(t.size);
    t.seqs.(0) <- t.seqs.(t.size);
    t.slots.(0) <- t.slots.(t.size);
    sift_down t 0
  end;
  slot

let pool width = { width; data = Array.make (64 * width) 0; used = 0; free = -1 }

let alloc p =
  if p.free >= 0 then begin
    let s = p.free in
    p.free <- p.data.(s * p.width);
    s
  end
  else begin
    let s = p.used in
    if (s + 1) * p.width > Array.length p.data then
      p.data <- grow p.data (s * p.width);
    p.used <- s + 1;
    s
  end

let release p slot =
  p.data.(slot * p.width) <- p.free;
  p.free <- slot

(* --- expansion --- *)

(* positive-area overlap with the window, as [Box.overlaps] *)
let wants t l b r top =
  match t.window with
  | None -> true
  | Some w -> l < w.r && w.l < r && b < w.t && w.b < top

(* Push the boxes in the first [n] ints of [bs] (recipe layout), placed
   by [t.outer]. *)
let push_boxes t (bs : int array) n =
  let p = t.placed in
  let i = ref 0 in
  while !i < n do
    let k = !i in
    Transform.apply_box_into t.outer 0 ~l:bs.(k + 1) ~b:bs.(k + 2)
      ~r:bs.(k + 3) ~t:bs.(k + 4) p 0;
    if wants t p.(0) p.(1) p.(2) p.(3) then begin
      let s = alloc t.boxes in
      let d = t.boxes.data and o = s * box_slot_ints in
      d.(o) <- bs.(k);
      d.(o + 1) <- p.(0);
      d.(o + 2) <- p.(1);
      d.(o + 3) <- p.(2);
      push t p.(3) s
    end;
    i := k + box_ints
  done

(* Push the calls in the first [n] ints of [cs] (recipe layout) under
   [t.outer], each keyed by the top of its callee's placed bounding box. *)
let push_calls t (cs : int array) n =
  let p = t.placed in
  let i = ref 0 in
  while !i < n do
    let k = !i in
    let s = alloc t.calls in
    let d = t.calls.data and o = s * call_slot_ints in
    d.(o) <- cs.(k);
    Transform.compose_into t.outer 0 cs (k + 1) d (o + 1);
    let bb = k + 1 + Transform.ints in
    Transform.apply_box_into d (o + 1) ~l:cs.(bb) ~b:cs.(bb + 1)
      ~r:cs.(bb + 2) ~t:cs.(bb + 3) p 0;
    if wants t p.(0) p.(1) p.(2) p.(3) then push t p.(3) (lnot s)
    else release t.calls s;
    i := k + call_ints
  done

(* Build [sym]'s recipe into [t.rboxes] / [t.rcalls]. *)
let build_recipe t sym =
  t.rboxes.len <- 0;
  t.rcalls.len <- 0;
  Design.add_ints t.design ~scratch:t.shape_boxes ~boxes:t.rboxes
    ~calls:t.rcalls (Design.symbol t.design sym).Ast.elements

let expand_call t slot =
  Ace_trace.Trace.incr Ace_trace.Trace.Counter.Expansions;
  t.expansions <- t.expansions + 1;
  let o = slot * call_slot_ints in
  let sym = t.calls.data.(o) in
  Array.blit t.calls.data (o + 1) t.outer 0 Transform.ints;
  release t.calls slot;
  match Hashtbl.find_opt t.recipes sym with
  | Some (Recipe r) ->
      push_boxes t r.boxes (Array.length r.boxes);
      push_calls t r.calls (Array.length r.calls)
  | (None | Some Seen_once) as seen ->
      build_recipe t sym;
      Hashtbl.replace t.recipes sym
        (match seen with
        | None -> Seen_once
        | Some _ ->
            Recipe
              {
                boxes = Array.sub t.rboxes.data 0 t.rboxes.len;
                calls = Array.sub t.rcalls.data 0 t.rcalls.len;
              });
      (* pushing never builds a recipe, so the scratch stays put *)
      push_boxes t t.rboxes.data t.rboxes.len;
      push_calls t t.rcalls.data t.rcalls.len

(* Keep expanding while the heap's max item is an instance, so the top key
   is an exact box top. *)
let rec settle t =
  if t.size > 0 && t.slots.(0) < 0 then begin
    expand_call t (lnot (pop t));
    settle t
  end

let create ?window ?top design =
  let top_boxes, top_calls =
    match top with Some ints -> ints | None -> Design.top_ints design
  in
  let t =
    {
      design;
      window;
      keys = Array.make 64 0;
      seqs = Array.make 64 0;
      slots = Array.make 64 0;
      size = 0;
      next_seq = 0;
      boxes = pool box_slot_ints;
      calls = pool call_slot_ints;
      recipes = Hashtbl.create 64;
      rboxes = Ibuf.create ();
      rcalls = Ibuf.create ();
      shape_boxes = Ibuf.create ();
      outer = Array.make Transform.ints 0;
      placed = Array.make 4 0;
      popped = Ibuf.create ();
      labels = lazy (Design.labels design);
      expansions = 0;
      boxes_popped = 0;
    }
  in
  (* top level behaves like an anonymous symbol expanded once, from ints
     decomposed once per run: every tile's stream filters the same boxes
     and calls *)
  Transform.blit Transform.identity t.outer 0;
  push_boxes t top_boxes.data top_boxes.len;
  push_calls t top_calls.data top_calls.len;
  t

let peek_top t =
  settle t;
  if t.size = 0 then None else Some t.keys.(0)

let pop_at t y =
  (* Do not settle below [y]: an instance whose conservative key is already
     < y cannot contribute a box with top = y, and expanding it now would
     defeat the front-end's laziness. *)
  let out = t.popped in
  out.len <- 0;
  while t.size > 0 && t.keys.(0) >= y do
    let top = t.keys.(0) in
    let slot = pop t in
    if slot < 0 then expand_call t (lnot slot)
    else begin
      let o = slot * box_slot_ints in
      for j = 0 to box_slot_ints - 1 do
        Ibuf.push out t.boxes.data.(o + j)
      done;
      Ibuf.push out top;
      release t.boxes slot
    end
  done;
  let n = out.len / box_ints in
  t.boxes_popped <- t.boxes_popped + n;
  Ace_trace.Trace.count Ace_trace.Trace.Counter.Boxes_popped n;
  (* built back to front, so boxes sharing the top [y] come out in pop
     (FIFO) order *)
  let d = out.data and acc = ref [] in
  for k = n - 1 downto 0 do
    let i = box_ints * k in
    acc :=
      ( Layer.of_index d.(i),
        Box.make ~l:d.(i + 1) ~b:d.(i + 2) ~r:d.(i + 3) ~t:d.(i + 4) )
      :: !acc
  done;
  !acc

let drain t =
  let rec go acc last =
    match peek_top t with
    | None -> List.rev acc
    | Some y ->
        assert (match last with None -> true | Some prev -> y <= prev);
        let boxes = pop_at t y in
        go (List.rev_append boxes acc) (Some y)
  in
  go [] None

let pending t = t.size
let labels t = Lazy.force t.labels
let expansions t = t.expansions
let boxes_popped t = t.boxes_popped
