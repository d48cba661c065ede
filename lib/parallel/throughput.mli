(** Multicore lookup-throughput measurement.

    Pre-populates a thread-safe demultiplexer with [connections]
    flows, then spawns [domains] OCaml domains that each perform
    [lookups_per_domain] receive-path lookups over a pseudo-random
    per-domain flow sequence, and reports aggregate throughput.  This
    is the experiment behind the paper's parallel-TCP motivation: with
    a single lock, adding processors adds nothing; with per-chain
    locks, throughput scales until chains collide — and even
    collision-free striping is {e not} the scaling ceiling, because
    every lookup still pays one mutex acquisition.  The {!Epoch}
    target measures the design past that wall: [Epoch.Packed]'s
    lock-free read path (readers pin an epoch and probe an immutable
    published region; bench E33 is the striped-vs-epoch scaling
    table).  These three lock designs are the only targets; the
    single-domain table comparisons (E34 storage, E35 cuckoo) measure
    their tables directly.

    All timing — the run's elapsed window and the optional per-lookup
    latency — uses the monotonic nanosecond clock ({!Obs.Clock.now_ns}),
    never wall time, so an NTP step mid-run cannot produce negative or
    inflated intervals.  Any interval that still came out negative
    would be clamped to zero and counted ([clock_went_backwards]). *)

type target =
  | Coarse of Demux.Registry.spec
      (** {!Coarse}: any registry algorithm behind one global lock.
          Named ["coarse:<algorithm>"], e.g. ["coarse:bsd"],
          ["coarse:sequent-19"]. *)
  | Striped of int
      (** {!Striped}: Sequent hashing with one lock per chain, over
          this many chains.  Named ["striped:sequent-<H>"]. *)
  | Epoch
      (** {!Epoch.Packed.Heap}: lock-free lookups over an immutable
          published region, epoch-based reclamation.  Named
          ["epoch:table"]. *)

val target_name : target -> string

val target_of_name : string -> (target, string) result
(** Inverse of {!target_name}.  The algorithm after ["coarse:"] is
    parsed by {!Demux.Registry.spec_of_string}; ["striped:sequent"]
    means 19 chains and ["epoch"] is accepted for ["epoch:table"].
    The error message lists the valid forms. *)

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

    Every target is loaded with the same synthetic population:
    [connections] clients, each with its own remote address and port,
    talking to one server endpoint.

    With [?obs], every lookup (or batch) is timed into a domain-local
    histogram (no cross-domain synchronisation); after the join the
    histograms are merged ({!Obs.Histogram.merge_into} is exact
    bucket-wise) and registered as
    ["parallel.<target>.d<domains>.b<batch>.lookup_ns"], and the
    clamp count accumulates into the owned
    ["parallel.clock_went_backwards"] counter.  The {!Epoch} target
    also registers its table's own counters as [epoch.table.*]
    ({!Epoch.Packed.S.register_obs}); a later run over the same
    registry replaces them with its own table's.  Timing costs two clock
    reads per lookup (per batch when batched), so throughput numbers
    with [?obs] are not comparable to numbers without.
    @raise Invalid_argument if [domains], [batch], [connections] or
    [lookups_per_domain] is non-positive. *)

val scaling_table :
  ?obs:Obs.Registry.t -> ?trace_capacity:int -> ?connections:int ->
  ?lookups_per_domain:int -> ?seed:int -> ?batches:int list ->
  domains:int list -> target list -> result list
(** Run every (target, domain-count, batch) triple, in order
    ([batches] defaults to [[1]], i.e. per-packet). *)

val pp_results : Format.formatter -> result list -> unit
(** One row per result; a row that ran more domains than
    [Domain.recommended_domain_count ()] is marked [(time-sliced)]. *)
