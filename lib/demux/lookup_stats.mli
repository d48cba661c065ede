(** Shared accounting for PCB lookups.

    The paper's figure of merit is "the expected number of PCBs
    searched" per inbound packet: every cache probe and every chain
    node compared counts as one PCB examined.  All algorithms charge
    their work through this one module so they cannot diverge in
    accounting discipline. *)

type t

val create : unit -> t

(** {1 Charging (called by algorithm implementations)} *)

val begin_lookup : t -> unit
val examine : t -> unit
(** Charge one PCB examination to the current lookup. *)

val charge : t -> int -> unit
(** Charge [n] PCB examinations to the current lookup at once: a chain
    scan's whole walk, or a cuckoo probe's buckets and stash entries. *)

val end_lookup : t -> hit_cache:bool -> found:bool -> unit
(** Close the current lookup; [hit_cache] records that a one-entry
    cache satisfied it, [found] that any PCB matched at all. *)

val note_insert : t -> unit
val note_remove : t -> unit

val note_eviction : t -> unit
(** A PCB was shed by an overload guard (see {!Guarded}), not removed
    by the protocol. *)

val note_rejection : t -> unit
(** An insertion was refused outright by an overload guard. *)

val note_batch : t -> size:int -> unit
(** A batched operation of [size] packets was issued against the
    structure under one lock acquisition (see [Parallel.Coarse] /
    [Parallel.Striped] [lookup_batch]).  Emits a [Batch] trace event
    carrying the size.
    @raise Invalid_argument if [size] is negative. *)

(** {1 Observability (opt-in)}

    Both hooks are off by default and cost one branch per lookup when
    off, so plain accounting is bit-identical with or without them. *)

val set_histogram : t -> Obs.Histogram.t option -> unit
(** Attach a histogram that receives each lookup's examined count at
    [end_lookup] time.  {!reset} clears it along with the counters. *)

val histogram : t -> Obs.Histogram.t option

val set_series_histograms :
  t -> hit:Obs.Histogram.t option -> miss:Obs.Histogram.t option -> unit
(** Attach per-outcome histograms: the lookup's examined count is
    additionally recorded into [hit] when the lookup found a PCB and
    into [miss] otherwise.  Orthogonal to {!set_histogram} (the
    combined series keeps recording); {!reset} clears all three.
    Misses are the series that matters under a SYN flood
    (EXPERIMENTS.md E35) — this makes them directly attributable
    instead of inferred from mixed percentiles. *)

val set_tracer : t -> Obs.Trace.t -> unit
(** Attach a tracer; lookups emit [Lookup_begin] / [Lookup_end]
    (payload: examined count; flag bits: found, cache hit) plus
    [Cache_hit] / [Chain_walk] / [Insert] / [Remove] / [Eviction] /
    [Rejection] events.  Pass {!Obs.Trace.disabled} to detach. *)

val tracer : t -> Obs.Trace.t

(** {1 Reading} *)

type snapshot = {
  lookups : int;
  pcbs_examined : int;       (** Total across all lookups. *)
  cache_hits : int;
  found : int;
  not_found : int;
  inserts : int;
  removes : int;
  evictions : int;           (** PCBs shed by an overload guard. *)
  rejections : int;          (** Insertions refused by an overload guard. *)
  batches : int;             (** Batched operations issued ({!note_batch}). *)
  max_examined : int;        (** Worst single lookup. *)
}

val snapshot : t -> snapshot

val pcbs_examined : t -> int
(** The running total of {!snapshot}'s [pcbs_examined], read without
    building a snapshot. *)

val merge_snapshots : snapshot list -> snapshot
(** Pointwise sum (max for [max_examined]) — used to aggregate
    per-stripe counters in the parallel demultiplexers. *)

val mean_examined : snapshot -> float
(** PCBs examined per lookup — the paper's metric.  [nan] if no
    lookups happened. *)

val hit_rate : snapshot -> float
(** Cache hits per lookup; [nan] if no lookups happened. *)

val reset : t -> unit
(** Zero all counters (e.g. after simulation warm-up). *)

val pp_snapshot : Format.formatter -> snapshot -> unit
