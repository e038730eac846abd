(** Crash-safe persistent extraction cache.

    Entries are content-addressed: the key is an FNV-1a 64 hash of the
    canonical CIF text of the checked design plus everything else that
    shapes the result (quantum, part name, shard count, format version),
    so a warm hit is byte-identical to the cold computation by
    construction and stale entries are unreachable rather than
    invalidated.  The cache sees only these canonical keys.  The server
    reaches them through an in-memory memo keyed by a request's raw CIF
    bytes, so a repeated request finds its entry without parsing or
    canonicalising (see [Server]); both keys hash their fields with
    {!fnv1a64_hex_parts}, which never copies the CIF.

    On-disk format, one file [<key>.ace] per entry:

    {v ace-cache/1 <fnv64-hex-of-payload> <payload-length>\n<payload> v}

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
(** FNV-1a 64-bit hash, as 16 lowercase hex digits. *)

val fnv1a64_hex_parts : string list -> string
(** [fnv1a64_hex_parts parts = fnv1a64_hex (String.concat "\x00" parts)],
    without building the concatenation: a key over a multi-megabyte CIF
    costs no copy of it. *)

val format_version : int

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
