(** Multicore lookup-throughput measurement.

    Pre-populates a thread-safe demultiplexer with [connections]
    flows, then spawns [domains] OCaml domains that each perform
    [lookups_per_domain] receive-path lookups over a pseudo-random
    per-domain flow sequence, and reports aggregate throughput.  This
    is the experiment behind the paper's parallel-TCP motivation: with
    a single lock, adding processors adds nothing; with per-chain
    locks, throughput scales until chains collide — and even
    collision-free striping is {e not} the scaling ceiling, because
    every lookup still pays one mutex acquisition.  The
    {!Epoch_table} target measures the design past that wall:
    [Epoch.Packed]'s lock-free read path (readers pin an epoch and
    probe an immutable published region; bench E33 is the
    striped-vs-epoch scaling table).

    All timing — the run's elapsed window and the optional per-lookup
    latency — uses the monotonic nanosecond clock ({!Obs.Clock.now_ns}),
    never wall time, so an NTP step mid-run cannot produce negative or
    inflated intervals.  Any interval that still came out negative
    would be clamped to zero and counted ([clock_went_backwards]). *)

type target =
  | Coarse_bsd
  | Coarse_sequent of int
  | Striped_sequent of int
  | Epoch_table
      (** {!Epoch.Packed.Heap} — lock-free lookups over an immutable
          published region, epoch-based reclamation.  Named
          ["epoch:table"].  Timing uses the same monotonic clock and
          the same clamp-and-count ([clock_went_backwards]) discipline
          as every other target. *)
  | Offheap_epoch
      (** {!Epoch.Packed.Offheap} — the same lock-free protocol with
          the published region held in Bigarray (off-heap) storage,
          values the flow's load index.  Named ["epoch:offheap"]. *)
  | Cuckoo_table
      (** {!Demux.Cuckoo_table.Heap} — bucketized cuckoo hashing with
          per-bucket tag vectors and negative-lookup filters,
          populated before the domains spawn and probed read-only, so
          the unsynchronised structure is frozen for the whole
          measurement window.  Worst-case lookup is two buckets plus
          the stash regardless of load.  Named ["cuckoo:table"]. *)

val target_name : target -> string

type result = {
  target : string;
  domains : int;
  batch : int;  (** Lookups per [lookup_batch] call; 1 = per-packet. *)
  total_lookups : int;
  elapsed_seconds : float;
  lookups_per_second : float;
  clock_went_backwards : int;
      (** Latency intervals clamped to zero; expected 0 (the clock is
          monotonic).  Summed across domains. *)
  latency : Obs.Histogram.t option;
      (** Per-lookup monotonic latency in nanosecond units (quantised
          to the clock's granularity — do not read as ns precision),
          merged across domains — present iff [?obs] was passed to
          {!run}.  When [batch > 1] a batch is timed as a whole and the
          per-lookup share recorded [batch] times. *)
  traces : Obs.Trace.t list;
      (** One per domain (tagged with the domain index), each holding
          the last [?trace_capacity] [Latency] events — empty unless
          [?trace_capacity] was passed to {!run}.  In batched mode one
          event is recorded per batch: [a] = amortised ns, [b] = batch
          size (0 in per-packet mode). *)
}

val run :
  ?obs:Obs.Registry.t -> ?trace_capacity:int -> ?connections:int ->
  ?lookups_per_domain:int -> ?seed:int -> ?batch:int -> domains:int ->
  target -> result
(** Defaults: 2000 connections, 200_000 lookups per domain, seed 42,
    batch 1.  With [batch > 1] each domain stages its random flows
    into a local buffer and demultiplexes through the target's
    [lookup_batch] (one mutex acquisition per stripe per batch)
    instead of calling [lookup] per packet — same flow sequence, same
    total lookups, so the two modes are directly comparable.

    With [?obs], every lookup (or batch) is timed into a domain-local
    histogram (no cross-domain synchronisation); after the join the
    histograms are merged ({!Obs.Histogram.merge_into} is exact
    bucket-wise) and registered as
    ["parallel.<target>.d<domains>.b<batch>.lookup_ns"], and the
    clamp count accumulates into the owned
    ["parallel.clock_went_backwards"] counter.  Timing costs two clock
    reads per lookup (per batch when batched), so throughput numbers
    with [?obs] are not comparable to numbers without.
    @raise Invalid_argument if [domains <= 0] or [batch <= 0]. *)

val scaling_table :
  ?obs:Obs.Registry.t -> ?trace_capacity:int -> ?connections:int ->
  ?lookups_per_domain:int -> ?seed:int -> ?batches:int list ->
  domains:int list -> target list -> result list
(** Run every (target, domain-count, batch) triple, in order
    ([batches] defaults to [[1]], i.e. per-packet). *)

val pp_results : Format.formatter -> result list -> unit
