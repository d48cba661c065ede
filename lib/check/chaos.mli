(** Chaos scenarios for the tiered parallel path, and their replay
    audit.

    Where {!Fault.Injector} perturbs {e bytes on the wire}, this module
    perturbs the parallel path itself: a pool of worker domains, each
    draining its own bounded {!Parallel.Ring} and applying ops to one
    shared {!Parallel.Striped} table under a {!Parallel.Pressure}
    controller, fed by a producer that shards ops by flow hash through
    {!Parallel.Dispatcher}'s staging and tier policy, with a seeded
    fault staged on top.  The five scenarios are the failure modes the
    degradation tiers exist for: a stalled consumer domain, a slow
    worker, a ring-full storm, bursty arrivals, and a flow population
    that forces incremental table resizes mid-run.

    A run records rather than judges.  Every applied op is logged with
    its observed outcome, in application order; every shed op is
    charged to a tier counter.  No two runs shed the same ops, but
    sharding is per flow, so one worker applies a given flow's ops in
    FIFO order, and feeding each worker's log through the reference
    {!Oracle} in order reconstructs the unique correct end state.  The
    audit demands, per scenario:

    - every flow's ops were applied by a single worker, which the
      replay's exactness rests on;
    - every logged outcome agrees with the oracle at that point
      (inserts of residents, phantom duplicates, stale payloads on
      [Found]/[Removed], missed residents — all are mismatches);
    - conservation: [offered = applied + dropped + rejected], with
      [applied] counted from the logs, the producer's shed ledger equal
      to the pressure controller's, and the logged [Shed] events equal
      to the controller's shed-flow count;
    - final contents, population, and {!Demux.Lookup_stats} match the
      replayed oracle exactly ({!Diff.audit_contents_against} /
      {!Diff.audit_snapshot}).

    Graceful degradation may drop work; it may not corrupt state or
    lose accounting. *)

(** {1 Scenarios} *)

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

(** One scenario's recorded run. *)
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
      (** Monotonic, from before the first worker spawns to the last
          join. *)
}

(** {1 Audit} *)

val audit : result -> Diff.mismatch list
(** Replay one run's logs and check everything above: empty, or the
    single first disagreement ([op = None]; [step] is the global replay
    index, or the logs' total for a quiesce-stage failure). *)

type scenario_outcome = { result : result; mismatches : Diff.mismatch list }

val run_scenario :
  ?workers:int -> ?ops:int -> seed:int -> scenario -> scenario_outcome
(** Run one scenario to quiescence and audit it (defaults: 4 workers,
    60_000 ops).  The op script is deterministic per seed; timing-driven
    tier changes are not, which is what the replay audit is built to
    tolerate.
    @raise Invalid_argument if [workers] or [ops] is non-positive. *)

type t = {
  seed : int;
  workers : int;
  ops : int;      (** Ops offered per scenario. *)
  outcomes : scenario_outcome list;
}

val run :
  ?workers:int -> ?ops:int -> ?scenarios:scenario list -> seed:int ->
  unit -> t
(** Run and audit [scenarios] (default {!all}) in order, with the
    {!run_scenario} defaults.  Scenario [s] runs at seed
    [seed * 31 + i], [i] its position in {!all}, so a scenario run
    alone repeats its script from a run of them all. *)

val passed : t -> bool
val mismatches : t -> Diff.mismatch list

val pp : Format.formatter -> t -> unit

(** {1 Report}

    A machine-readable verdict mirroring {!Report}, so CI can archive
    a chaos run and [bench --check] can gate on it. *)

val schema : string
(** ["tcpdemux-chaos/1"]. *)

val to_json : t -> Obs.Json.t
val write : string -> t -> unit

val validate_file : string -> (unit, string) Stdlib.result
(** [Ok ()] iff the file parses, declares {!schema}, has a non-empty
    scenario list with zero recorded mismatches, and says
    [passed: true]. *)
