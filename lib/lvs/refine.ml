(* The colour-refinement kernel behind every LVS comparison loop.

   Gemini-style refinement (Ebeling & Zajicek, ICCAD 1983) alternates two
   steps until the partition stops splitting: each device rehashes its
   colour from the colours of the nets on its terminals, then each net
   rehashes its colour from the multiset of (device colour, terminal role)
   pairs incident on it.  The comparator, the chain canonicalizer and the
   hierarchical glue compare all run that loop; they differ only in the
   device formula, which stays with each caller.

   Everything here works on int arrays: the incidence is compressed
   sparse rows built once per graph, multisets are hashed by sorting a
   scratch segment in place, and colour counts go through a reusable
   open-addressing set.  The sort compares through [int] annotations, so
   the compiler emits integer comparisons rather than calls to the
   polymorphic compare; with the polymorphic compare the same loops are
   several times slower.

   Scratch lives in the graph (or a {!scratch} value) owned by one call,
   never in a global: comparisons run concurrently on threads of one
   domain, which can switch at every cancellation checkpoint. *)

module Cancel = Ace_core.Cancel

(* The one hashing discipline of every comparison: Match.run, Match.exact,
   the chain canonicalizer and the glue compare agree on what "same
   structure" means. *)
let mix h x = (h * 1000003) + x + 0x9e3779b9

let str_code s =
  String.fold_left (fun h c -> mix h (Char.code c)) 0x5EED s land max_int

let type_code = function
  | Ace_tech.Nmos.Enhancement -> 3
  | Ace_tech.Nmos.Depletion -> 4

(* ---------- monomorphic int sort ----------------------------------------- *)

let insertion_sort (a : int array) lo hi =
  for i = lo + 1 to hi - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= lo && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* Quicksort with a median-of-three pivot and Hoare partitioning, which
   splits runs of equal keys evenly; short ranges go to insertion sort.
   Recursing into the smaller side bounds the stack at log n. *)
let rec sort (a : int array) lo hi =
  if hi - lo <= 16 then insertion_sort a lo hi
  else begin
    let x = a.(lo) and y = a.(lo + ((hi - lo) / 2)) and z = a.(hi - 1) in
    let p =
      if x < y then if y < z then y else if x < z then z else x
      else if x < z then x
      else if y < z then z
      else y
    in
    let i = ref lo and j = ref (hi - 1) in
    while !i <= !j do
      while a.(!i) < p do incr i done;
      while a.(!j) > p do decr j done;
      if !i <= !j then begin
        let t = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- t;
        incr i;
        decr j
      end
    done;
    if !j + 1 - lo < hi - !i then begin
      sort a lo (!j + 1);
      sort a !i hi
    end
    else begin
      sort a !i hi;
      sort a lo (!j + 1)
    end
  end

let hash_sorted_range (a : int array) lo hi =
  sort a lo hi;
  let h = ref 0x1234567 in
  for i = lo to hi - 1 do
    h := mix !h a.(i)
  done;
  !h land max_int

let hash_pair (x : int) y =
  if x <= y then mix (mix 0x1234567 x) y land max_int
  else mix (mix 0x1234567 y) x land max_int

(* ---------- scratch and exact distinct counts ---------------------------- *)

(* [buf] holds segments being hashed.  [keys] and [stamps] form an
   open-addressing set for counting distinct values: a slot is occupied
   when its stamp equals the current [generation], so starting a new
   count never clears the table. *)
type scratch = {
  mutable buf : int array;
  mutable keys : int array;
  mutable stamps : int array;
  mutable generation : int;
}

let scratch () = { buf = [||]; keys = [||]; stamps = [||]; generation = 0 }

let reserve s n =
  if Array.length s.buf < n then
    s.buf <- Array.make (max n (2 * Array.length s.buf)) 0;
  s.buf

(* Distinct values among a.(0) .. a.(n - 1).  The table has at least 2n
   slots and is indexed by the top bits of a multiplicative hash, which
   depend on every bit of the value; collisions probe linearly and
   compare keys exactly. *)
let count_distinct s (a : int array) n =
  let bits = ref 4 in
  while 1 lsl !bits < 2 * n do
    incr bits
  done;
  let size = 1 lsl !bits in
  if Array.length s.keys < size then begin
    s.keys <- Array.make size 0;
    s.stamps <- Array.make size 0;
    s.generation <- 0
  end;
  s.generation <- s.generation + 1;
  let keys = s.keys and stamps = s.stamps and gen = s.generation in
  let shift = 63 - !bits and mask = size - 1 in
  let count = ref 0 in
  for i = 0 to n - 1 do
    let x = a.(i) in
    let j = ref ((x * 0x1E3779B97F4A7C15) lsr shift) in
    while stamps.(!j) = gen && keys.(!j) <> x do
      j := (!j + 1) land mask
    done;
    if stamps.(!j) <> gen then begin
      stamps.(!j) <- gen;
      keys.(!j) <- x;
      incr count
    end
  done;
  !count

let distinct s a = count_distinct s a (Array.length a)

(* ---------- the incidence graph ------------------------------------------- *)

type t = {
  nets : int;
  dev_off : int array;
  term_net : int array;
  term_role : int array;
  net_off : int array;
  inc_dev : int array;
  inc_role : int array;
  scratch : scratch;
}

(* Lay the terminal lists out as device-ordered rows, then transpose them
   into net-ordered rows.  Within a row the incidences keep device order,
   though nothing depends on it: every row is hashed as a multiset. *)
let graph ~nets terms =
  let n_devs = Array.length terms in
  let dev_off = Array.make (n_devs + 1) 0 in
  Array.iteri (fun d l -> dev_off.(d + 1) <- dev_off.(d) + List.length l) terms;
  let n_terms = dev_off.(n_devs) in
  let term_net = Array.make n_terms 0 and term_role = Array.make n_terms 0 in
  Array.iteri
    (fun d l ->
      List.iteri
        (fun j (role, n) ->
          term_net.(dev_off.(d) + j) <- n;
          term_role.(dev_off.(d) + j) <- role)
        l)
    terms;
  let net_off = Array.make (nets + 1) 0 in
  Array.iter (fun n -> net_off.(n + 1) <- net_off.(n + 1) + 1) term_net;
  for n = 0 to nets - 1 do
    net_off.(n + 1) <- net_off.(n + 1) + net_off.(n)
  done;
  let next = Array.sub net_off 0 nets in
  let inc_dev = Array.make n_terms 0 and inc_role = Array.make n_terms 0 in
  for d = 0 to n_devs - 1 do
    for t = dev_off.(d) to dev_off.(d + 1) - 1 do
      let n = term_net.(t) in
      let k = next.(n) in
      inc_dev.(k) <- d;
      inc_role.(k) <- term_role.(t);
      next.(n) <- k + 1
    done
  done;
  {
    nets;
    dev_off;
    term_net;
    term_role;
    net_off;
    inc_dev;
    inc_role;
    scratch = scratch ();
  }

let used g n = g.net_off.(n + 1) > g.net_off.(n)

let refine_nets g ~dev_color ~net_color =
  let buf = reserve g.scratch (Array.length g.inc_dev) in
  for n = 0 to g.nets - 1 do
    let lo = g.net_off.(n) and hi = g.net_off.(n + 1) in
    if hi > lo then begin
      for k = lo to hi - 1 do
        buf.(k - lo) <- mix dev_color.(g.inc_dev.(k)) g.inc_role.(k)
      done;
      net_color.(n) <- mix net_color.(n) (hash_sorted_range buf 0 (hi - lo))
    end
  done

let hash_terms g (net_color : int array) lo hi =
  let buf = reserve g.scratch (hi - lo) in
  for t = lo to hi - 1 do
    buf.(t - lo) <- net_color.(g.term_net.(t))
  done;
  hash_sorted_range buf 0 (hi - lo)

let hash_role_terms g (net_color : int array) lo hi =
  let buf = reserve g.scratch (hi - lo) in
  for t = lo to hi - 1 do
    buf.(t - lo) <- mix net_color.(g.term_net.(t)) g.term_role.(t)
  done;
  hash_sorted_range buf 0 (hi - lo)

(* Colours of the nets with at least one terminal, then of the devices,
   into the scratch buffer; returns the count written. *)
let gather g net_color (dev_color : int array) =
  let nd = Array.length dev_color in
  let buf = reserve g.scratch (g.nets + nd) in
  let k = ref 0 in
  for n = 0 to g.nets - 1 do
    if used g n then begin
      buf.(!k) <- net_color.(n);
      incr k
    end
  done;
  Array.blit dev_color 0 buf !k nd;
  (buf, !k + nd)

let run ?(cancel = Cancel.never) g ~net_color ~dev_color step =
  let distinct_used () =
    let buf, n = gather g net_color dev_color in
    count_distinct g.scratch buf n
  in
  let cap = g.nets + Array.length dev_color + 2 in
  let rounds = ref 0 in
  let before = ref (distinct_used ()) in
  let stable = ref false in
  while not !stable do
    Cancel.check cancel;
    incr rounds;
    for k = 0 to Array.length dev_color - 1 do
      dev_color.(k) <- step k
    done;
    refine_nets g ~dev_color ~net_color;
    let after = distinct_used () in
    if after <= !before || !rounds > cap then stable := true;
    before := after
  done;
  !rounds

let used_net_multiset g net_color =
  let buf, n = gather g net_color [||] in
  let m = Array.sub buf 0 n in
  sort m 0 n;
  m
