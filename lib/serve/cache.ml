module Trace = Ace_trace.Trace

let fnv1a64_hex = Ace_diag.Fnv.hex64
let fnv1a64_hex_parts = Ace_diag.Fnv.hex64_parts

(* The word hash.  A step xors a word into the state, multiplies by an
   odd constant and rotates: each is a bijection, of the word for a fixed
   state and of the state for a fixed word, and so is the finaliser
   (MurmurHash3's fmix64).  Two inputs that differ only inside one word
   therefore never share a hash.  The state is a local ref the compiler
   keeps unboxed. *)
let word_k = 0x9e3779b97f4a7c15L

let[@inline] absorb h w =
  let x = Int64.mul (Int64.logxor h w) word_k in
  Int64.logor (Int64.shift_left x 29) (Int64.shift_right_logical x 35)

let[@inline] fmix64 h =
  let h = Int64.logxor h (Int64.shift_right_logical h 33) in
  let h = Int64.mul h 0xff51afd7ed558ccdL in
  let h = Int64.logxor h (Int64.shift_right_logical h 33) in
  let h = Int64.mul h 0xc4ceb9fe1a85ec53L in
  Int64.logxor h (Int64.shift_right_logical h 33)

(* Each part is framed by its length, then read 8 bytes at a time; its
   last 1 to 7 bytes make one zero-padded word. *)
let hash64_hex_parts parts =
  let parts = Array.of_list parts in
  let h = ref 0x243f6a8885a308d3L in
  for p = 0 to Array.length parts - 1 do
    let s = Array.unsafe_get parts p in
    let n = String.length s in
    h := absorb !h (Int64.of_int n);
    let i = ref 0 in
    while !i <= n - 8 do
      h := absorb !h (String.get_int64_le s !i);
      i := !i + 8
    done;
    if !i < n then begin
      let w = ref 0 in
      for k = n - 1 downto !i do
        w := (!w lsl 8) lor Char.code (String.unsafe_get s k)
      done;
      h := absorb !h (Int64.of_int !w)
    end
  done;
  Printf.sprintf "%016Lx" (fmix64 !h)

let hash64_hex s = hash64_hex_parts [ s ]

let format_version = 2

(* Canonical keys hash this, not [format_version]: a v1 entry keeps its
   file name, so a v2 reader finds it, sees the old stamp and replaces
   it. *)
let key_version = 1

let magic = Printf.sprintf "ace-cache/%d" format_version

type t = {
  dir : string;
  max_bytes : int option;
  faults : Faults.t;
  lock : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable quarantined : int;
  mutable evictions : int;
  mutable swept_at_open : int;
      (* .tmp files removed when the cache was opened, not yet reported
         by a [gc]; folded into the next gc summary so `aced cache gc`
         accounts for every temp file it actually cleaned up *)
}

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let is_tmp name = String.length name > 4 && String.sub name 0 4 = ".tmp"

let has_suffix suf name =
  let n = String.length name and s = String.length suf in
  n >= s && String.sub name (n - s) s = suf

let entry_path t key = Filename.concat t.dir (key ^ ".ace")

let rec mkdir_p path =
  if path = "" || path = "." || path = "/" || Sys.file_exists path then ()
  else begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let list_dir dir = try Sys.readdir dir with Sys_error _ -> [||]

let remove_file path = try Sys.remove path with Sys_error _ -> ()

let sweep_tmp dir =
  Array.fold_left
    (fun n name ->
      if is_tmp name then begin
        remove_file (Filename.concat dir name);
        n + 1
      end
      else n)
    0 (list_dir dir)

let open_dir ?max_mb ?max_bytes ~faults dir =
  match mkdir_p dir with
  | () ->
      if not (Sys.is_directory dir) then
        Error (Printf.sprintf "cache path %s is not a directory" dir)
      else begin
        let swept = sweep_tmp dir in
        Ok
          {
            dir;
            max_bytes =
              (match max_bytes with
              | Some _ as b -> b
              | None -> Option.map (fun mb -> mb * 1024 * 1024) max_mb);
            faults;
            lock = Mutex.create ();
            hits = 0;
            misses = 0;
            stores = 0;
            quarantined = 0;
            evictions = 0;
            swept_at_open = swept;
          }
      end
  | exception (Unix.Unix_error _ | Sys_error _) ->
      Error (Printf.sprintf "cannot create cache directory %s" dir)

let dir t = t.dir

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      let len = in_channel_length ic in
      (try Some (really_input_string ic len) with End_of_file | Sys_error _ -> None)

(* Entry classification: [Ok payload] on a verified entry, [`Version] on a
   clean stamp mismatch (format evolved), [`Corrupt] on anything else. *)
let parse_entry data =
  match String.index_opt data '\n' with
  | None -> Error `Corrupt
  | Some nl -> (
      let header = String.sub data 0 nl in
      match String.split_on_char ' ' header with
      | [ m; csum; len ] when m = magic -> (
          match int_of_string_opt len with
          | Some len
            when String.length data - nl - 1 = len ->
              let payload = String.sub data (nl + 1) len in
              if hash64_hex payload = csum then Ok payload else Error `Corrupt
          | _ -> Error `Corrupt)
      | m :: _
        when String.length m > 10 && String.sub m 0 10 = "ace-cache/" && m <> magic
        ->
          Error `Version
      | _ -> Error `Corrupt)

let quarantine t path =
  (try Sys.rename path (path ^ ".quarantined") with Sys_error _ -> ());
  t.quarantined <- t.quarantined + 1

let find t key =
  with_lock t @@ fun () ->
  let path = entry_path t key in
  let miss () =
    t.misses <- t.misses + 1;
    Trace.incr Trace.Counter.Cache_misses;
    None
  in
  match read_file path with
  | None -> miss ()
  | Some data -> (
      match parse_entry data with
      | Ok payload ->
          t.hits <- t.hits + 1;
          Trace.incr Trace.Counter.Cache_hits;
          (* LRU touch: bump the mtime to now. *)
          (try Unix.utimes path 0.0 0.0 with Unix.Unix_error _ -> ());
          Some payload
      | Error `Version ->
          remove_file path;
          miss ()
      | Error `Corrupt ->
          quarantine t path;
          miss ())

(* Live entries as (path, bytes, mtime), oldest first (name-tiebroken so
   eviction order is deterministic under coarse clocks). *)
let live_entries t =
  let es =
    Array.to_list (list_dir t.dir)
    |> List.filter_map (fun name ->
           if has_suffix ".ace" name then
             let path = Filename.concat t.dir name in
             match Unix.stat path with
             | st -> Some (path, st.Unix.st_size, st.Unix.st_mtime)
             | exception Unix.Unix_error _ -> None
           else None)
  in
  List.sort
    (fun (p1, _, m1) (p2, _, m2) ->
      match compare m1 m2 with 0 -> compare p1 p2 | c -> c)
    es

let evict_over_cap t =
  match t.max_bytes with
  | None -> 0
  | Some cap ->
      let es = live_entries t in
      let total = List.fold_left (fun a (_, sz, _) -> a + sz) 0 es in
      let rec drop n total = function
        | (path, sz, _) :: rest when total > cap ->
            remove_file path;
            Trace.incr Trace.Counter.Cache_evictions;
            drop (n + 1) (total - sz) rest
        | _ -> n
      in
      let n = drop 0 total es in
      t.evictions <- t.evictions + n;
      n

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())

(* Per-process temp-file sequence: stores run outside [t.lock], so two
   threads storing one key must not share a temp path. *)
let tmp_seq = Atomic.make 0

(* The write, both fsyncs and the rename run outside [t.lock], so a warm
   [find] never waits on the disk.  The rename is atomic: a concurrent
   [find] reads either the old entry or the complete new one.  A [gc]
   that sweeps an in-flight temp file turns that store into a no-op (the
   rename fails and is swallowed like any other I/O error). *)
let store t key payload =
  try
    let path = entry_path t key in
    let header =
      Printf.sprintf "%s %s %d\n" magic (hash64_hex payload)
        (String.length payload)
    in
    if t.faults.Faults.torn_write then begin
      (* Simulated crash mid-write: a truncated entry, visible at its
         final path — exactly what skipping the temp/rename protocol
         risks.  Readers must quarantine it. *)
      let oc = open_out_bin path in
      output_string oc header;
      output_string oc (String.sub payload 0 (String.length payload / 2));
      close_out oc
    end
    else begin
      let payload =
        if t.faults.Faults.bit_flip && String.length payload > 0 then begin
          let b = Bytes.of_string payload in
          let i = Bytes.length b / 2 in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
          Bytes.to_string b
        end
        else payload
      in
      let tmp =
        Filename.concat t.dir
          (Printf.sprintf ".tmp.%s.%d.%d" key (Unix.getpid ())
             (Atomic.fetch_and_add tmp_seq 1))
      in
      let oc = open_out_bin tmp in
      (try
         output_string oc header;
         output_string oc payload;
         flush oc;
         Unix.fsync (Unix.descr_of_out_channel oc);
         close_out oc
       with e ->
         close_out_noerr oc;
         remove_file tmp;
         raise e);
      Sys.rename tmp path;
      fsync_dir t.dir
    end;
    with_lock t @@ fun () ->
    t.stores <- t.stores + 1;
    ignore (evict_over_cap t)
  with Sys_error _ | Unix.Unix_error _ -> ()

type gc_stats = {
  removed_tmp : int;
  removed_quarantined : int;
  evicted : int;
  kept : int;
  bytes : int;
}

let gc t =
  with_lock t @@ fun () ->
  let removed_tmp = sweep_tmp t.dir + t.swept_at_open in
  t.swept_at_open <- 0;
  let removed_quarantined =
    Array.fold_left
      (fun n name ->
        if has_suffix ".quarantined" name then begin
          remove_file (Filename.concat t.dir name);
          n + 1
        end
        else n)
      0 (list_dir t.dir)
  in
  let evicted = evict_over_cap t in
  let es = live_entries t in
  {
    removed_tmp;
    removed_quarantined;
    evicted;
    kept = List.length es;
    bytes = List.fold_left (fun a (_, sz, _) -> a + sz) 0 es;
  }

type stats = {
  entries : int;
  bytes : int;
  hits : int;
  misses : int;
  stores : int;
  quarantined : int;
  evictions : int;
}

let stats t =
  with_lock t @@ fun () ->
  let es = live_entries t in
  {
    entries = List.length es;
    bytes = List.fold_left (fun a (_, sz, _) -> a + sz) 0 es;
    hits = t.hits;
    misses = t.misses;
    stores = t.stores;
    quarantined = t.quarantined;
    evictions = t.evictions;
  }
