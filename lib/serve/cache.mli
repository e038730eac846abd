(** Crash-safe persistent extraction cache.

    Entries are content-addressed: the key is an FNV-1a 64 hash of the
    canonical CIF text of the checked design plus everything else that
    shapes the result (quantum, part name, shard count, {!key_version}),
    so a warm hit is byte-identical to the cold computation by
    construction and stale entries are unreachable rather than
    invalidated.  The cache sees only these canonical keys.  The server
    reaches them through an in-memory memo keyed by a request's raw CIF
    bytes, so a repeated request finds its entry without parsing or
    canonicalising (see [Server]).

    Two hashes serve three purposes:
    - file names: FNV-1a ({!fnv1a64_hex_parts}), fixed from build to
      build, so a cache directory outlives the daemon that wrote it;
    - entry checksums: the word hash ({!hash64_hex}), which reads 8 bytes
      per step, because a warm hit checksums its whole payload;
    - the server's raw keys: the word hash too, over the whole request
      CIF.  They never leave the process.
    Neither copies its input's parts into one string.

    On-disk format, one file [<key>.ace] per entry:

    {v ace-cache/2 <word-hash-hex-of-payload> <payload-length>\n<payload> v}

    Version 1 differed only in its checksum, FNV-1a.  Its files keep
    their names, since {!key_version} did not change, and a version 2
    reader deletes them as a version mismatch and recomputes.

    Writes are crash-safe: payload to a [.tmp.*] file, [fsync], atomic
    [rename] into place, directory fsync (best effort).  A crash before
    the rename leaves only a temp file, swept at {!open_dir} and {!gc};
    a crash after it leaves a complete entry.  Reads verify the version
    stamp, the length and the checksum: a version mismatch deletes the
    entry (format evolution), any corruption — truncation, bit flips,
    torn writes that bypassed the rename — quarantines it (renamed to
    [*.quarantined] for post-mortem) and reports a miss, so the daemon
    recomputes and heals the cache.

    Eviction is LRU by mtime: hits touch the entry's mtime, and when a
    byte cap is configured a sweep after each store removes
    oldest-first until under the cap.

    Every operation is total: filesystem errors degrade to misses or
    no-ops, never exceptions.  One cache may be shared by the server's
    connection threads: reads, eviction, gc and stats take an internal
    lock, while a store writes, fsyncs and renames its entry outside it
    (each through its own temp file) and locks only to count the store
    and run the eviction sweep, so a warm read never waits on the disk.
    Hits/misses/evictions also tick the global
    {!Ace_trace.Trace.Counter} set. *)

type t

val fnv1a64_hex : string -> string
(** FNV-1a 64-bit hash ({!Ace_diag.Fnv.hex64}), as 16 lowercase hex
    digits. *)

val fnv1a64_hex_parts : string list -> string
(** [fnv1a64_hex_parts parts = fnv1a64_hex (String.concat "\x00" parts)],
    without building the concatenation: a key over a multi-megabyte CIF
    costs no copy of it.  Names entry files. *)

val hash64_hex : string -> string
(** The word hash, as 16 lowercase hex digits: the entry checksum. *)

val hash64_hex_parts : string list -> string
(** The word hash of a list of parts, each framed by its length, so
    [["ab"; "c"]] and [["a"; "bc"]] are different inputs.  Each step
    reads 8 bytes with
    [String.get_int64_le] and is a bijection of the word it reads, and
    so is the finaliser: two inputs that differ only inside one 8-byte
    word (a part's last 1 to 7 bytes count as one) never collide, so
    every bit flip in a payload is caught.  Values are fixed by the
    known-answer tests, but unlike file names they may change with the
    entry format. *)

val key_version : int
(** The version field hashed into canonical keys, and so into file
    names: 1.  It changes only when a key must stop finding its old
    entries. *)

val open_dir :
  ?max_mb:int -> ?max_bytes:int -> faults:Faults.t -> string -> (t, string) result
(** Create/open a cache directory (created if missing, parents too) and
    sweep stale temp files left by a crashed writer.  [max_bytes] (used
    by tests for byte-precise eviction) wins over [max_mb]. *)

val dir : t -> string

val find : t -> string -> string option
(** [find t key] — the verified payload, or [None] (miss, version
    mismatch, corruption).  Hits refresh the entry's LRU position. *)

val store : t -> string -> string -> unit
(** [store t key payload] — atomic write, then an eviction sweep if a
    byte cap is set.  Failures are silent (the cache is advisory). *)

type gc_stats = {
  removed_tmp : int;
  removed_quarantined : int;
  evicted : int;
  kept : int;  (** live entries after the sweep *)
  bytes : int;  (** live bytes after the sweep *)
}

val gc : t -> gc_stats
(** Remove temp and quarantined files, then enforce the byte cap.
    [removed_tmp] also counts temp files swept when the cache was
    opened (reported once, by the first gc after open). *)

type stats = {
  entries : int;
  bytes : int;
  hits : int;
  misses : int;
  stores : int;
  quarantined : int;
  evictions : int;
}
(** Counts are since [open_dir]; entries/bytes are the current on-disk
    population. *)

val stats : t -> stats
