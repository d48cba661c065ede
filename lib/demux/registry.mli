(** Uniform access to every lookup algorithm.

    The simulator, benchmarks and CLI treat algorithms
    interchangeably; this module erases each implementation's concrete
    state behind a record of operations. *)

type spec =
  | Linear
  | Bsd
  | Mtf
  | Sr_cache
  | Sequent of { chains : int; hasher : Hashing.Hashers.t }
  | Hashed_mtf of { chains : int; hasher : Hashing.Hashers.t }
  | Conn_id of { capacity : int }
  | Resizing_hash
  | Splay
  | Lru_cache of { entries : int }
  | Cuckoo
      (** Bucketized cuckoo hashing with a negative-lookup filter
          ({!Cuckoo} / {!Cuckoo_table}): bounded worst-case probes,
          single-bucket SYN-flood misses. *)
  | Guarded of { spec : spec; max_chain : int; max_total : int }
      (** Which algorithm, with its configuration.  [Guarded] wraps
          another algorithm in an overload guard (see {!Guarded} and
          {!guard}) with LRU shedding at the given bounds. *)

val chain_geometry : spec -> int * Hashing.Hashers.t
(** The hash-chain structure a spec demultiplexes with: chain count
    and hasher for the chained algorithms (through [Guarded]
    wrappers), [(1, multiplicative)] for single-list tables.  This is
    what an algorithmic-complexity attacker needs to know to
    synthesize colliding flows. *)

val default_specs : spec list
(** The paper's four algorithms in presentation order: BSD, MTF,
    SR-cache, Sequent (19 chains, multiplicative hash). *)

val spec_name : spec -> string
(** Short stable name, e.g. ["sequent-19"]. *)

val spec_of_string : string -> (spec, string) result
(** Parse names like ["bsd"], ["mtf"], ["sequent-19"], ["sequent-100"],
    ["hashed-mtf-19"], ["conn-id"], ["resizing-hash"], ["splay"], ["lru-cache-K"],
    ["linear"], ["sr-cache"], ["cuckoo"], and ["guarded-<algorithm>"] (default
    bounds).  Inverse of {!spec_name} up to configuration that the
    name does not encode (hashers, guard bounds, non-positive counts
    are rejected with a specific message). *)

type 'a t = {
  name : string;
  insert : Packet.Flow.t -> 'a -> 'a Pcb.t;
  remove : Packet.Flow.t -> 'a Pcb.t option;
  lookup : ?kind:Types.packet_kind -> Packet.Flow.t -> 'a Pcb.t option;
  note_send : Packet.Flow.t -> unit;
  stats : Lookup_stats.t;
  length : unit -> int;
  iter : ('a Pcb.t -> unit) -> unit;
}
(** One instantiated demultiplexer. *)

val create : spec -> 'a t
(** Instantiate an algorithm.
    @raise Invalid_argument on a nonsensical configuration (zero
    chains etc.). *)

val observe : ?prefix:string -> Obs.Registry.t -> 'a t -> unit
(** Register this demultiplexer's accounting into an observability
    registry under ["<prefix>."] (default ["demux.<name>."]): every
    {!Lookup_stats} counter as a polled counter, the resident PCB
    count as a gauge, and a ["<prefix>.examined"] histogram attached
    via {!Lookup_stats.set_histogram} so each lookup's examined count
    is recorded as a distribution (the paper's figure of merit, per
    packet instead of in aggregate), plus ["<prefix>.examined_hit"] /
    ["<prefix>.examined_miss"] per-outcome series via
    {!Lookup_stats.set_series_histograms}. *)

val guard_config : spec -> Guarded.config option
(** The overload guard {!create} wraps a [Guarded] spec in: its
    bounds, with the inner algorithm's {!chain_geometry}.  [None] for
    every other spec. *)

val guard : Guarded.config -> 'a t -> 'a t
(** [guard config inner] bounds [inner]'s population: insertions that
    would push a chain past [config.max_chain] or the table past
    [config.max_total] shed the least-recently-seen flow
    ([Evict_lru], counted in [stats] as evictions) or are refused
    ([Reject_new], counted as rejections; the returned PCB is not
    retained, so later lookups miss).  Lookup cost accounting is
    unchanged — the guard charges nothing.  [config.chains] /
    [config.hasher] should mirror [inner]'s chain geometry so the
    per-chain bound tracks the real chains. *)
