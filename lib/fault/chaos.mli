(** Pipeline-level chaos scenarios for the parallel demux path.

    Where {!Injector} perturbs {e bytes on the wire}, this module
    perturbs the {e pipeline itself}: a real multi-domain
    {!Parallel.Dispatcher} run (the producer sharding ops by flow hash
    into bounded rings, worker domains applying them to one shared
    {!Parallel.Striped} table under a {!Parallel.Pressure} controller)
    with a seeded fault staged on top.  The five scenarios are the failure modes the
    degradation tiers exist for: a stalled consumer domain, a slow
    worker, a ring-full storm, bursty arrivals, and a flow population
    that forces incremental table resizes mid-run.

    The harness records rather than judges.  Every applied op is
    logged with its observed outcome in application order; every shed
    op is charged to a tier counter.  Because sharding is per-flow,
    one worker applies a given flow's ops in FIFO order, so the logs
    determine the correct end state exactly — [Check.Chaos] replays
    them through the reference oracle and asserts that graceful
    degradation dropped work {e without} corrupting state or losing
    accounting (the conservation law
    [offered = applied + dropped + rejected]). *)

type scenario =
  | Stalled_consumer  (** Worker 0 spins ~1 ms before its first pop. *)
  | Slow_worker       (** Worker 0 delays ~30 us on every batch. *)
  | Ring_full_storm   (** Two-slot rings; every worker drags a little. *)
  | Burst_arrival     (** 4096-op slams separated by 0.5 ms of quiet. *)
  | Mid_run_growth
      (** 8192 distinct flows, insert-heavy: every stripe's flat index
          crosses several incremental-resize boundaries mid-run. *)

val all : scenario list

val scenario_name : scenario -> string
(** ["stalled-consumer"], ["slow-worker"], ["ring-full-storm"],
    ["burst-arrival"], ["mid-run-growth"]. *)

val scenario_of_name : string -> scenario option

type op_kind = Insert | Lookup | Remove

type op = {
  kind : op_kind;
  flow : Packet.Flow.t;
  payload : int;  (** The op's index in the script (stale-PCB tracer). *)
}

(** What the worker observed when it applied the op.  [Found] and
    [Removed] carry the resident payload, so a replay can detect a
    stale PCB, not just a wrong hit/miss. *)
type outcome =
  | Inserted
  | Duplicate        (** Flow already resident; nothing changed. *)
  | Shed             (** Refused at {!Parallel.Pressure.Shed_new_flows}+. *)
  | Found of int
  | Missed
  | Removed of int
  | Absent

type event = { op : op; outcome : outcome }

type result = {
  scenario : scenario;
  seed : int;
  workers : int;
  offered : int;             (** Ops in the script. *)
  delivered : int;           (** Ops some worker applied (sum of logs). *)
  dropped_ops : int;         (** Shed at {!Parallel.Pressure.Drop_batches}. *)
  rejected_ops : int;        (** Refused at {!Parallel.Pressure.Reject}. *)
  logs : event array array;  (** Per worker, in application order. *)
  contents : (Packet.Flow.t * int) list;
      (** Final residents, sorted by {!Packet.Flow.compare}. *)
  population : int;
  stats : Demux.Lookup_stats.snapshot;  (** Merged across stripes. *)
  shed_flows : int;               (** The controller's shed counter. *)
  pressure_dropped_ops : int;     (** Controller ledger — must equal *)
  pressure_rejected_ops : int;    (** the producer's, audit enforced. *)
  transitions : (string * int) list;  (** Tier entries, by tier name. *)
  max_ring_depth : int;
  elapsed_seconds : float;
}

val run : ?workers:int -> ?ops:int -> ?seed:int -> scenario -> result
(** Run one scenario to quiescence (defaults: 4 workers, 60_000 ops,
    seed 42).  The op script is deterministic per seed; timing-driven
    tier changes are not, which is exactly what the replay audit is
    built to tolerate — whatever was dropped must be accounted, and
    whatever was applied must replay.
    @raise Invalid_argument if [workers] or [ops] is non-positive. *)

val pp_result : Format.formatter -> result -> unit
