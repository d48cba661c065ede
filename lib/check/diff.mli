(** The differential oracle: drive a subject and the reference model
    through the same program and demand they never disagree.

    Checked at every step:
    - lookup hit/miss parity with {!Oracle}, plus flow and payload of
      the returned PCB (payload is the inserting step's index, so a
      stale PCB surviving a remove/re-insert cycle is caught);
    - remove-result parity (including removes of absent flows);
    - population equality.

    Checked at every [checkpoint_every] steps and at quiesce:
    - full table contents against the oracle, both sides reduced to
      {!Packet.Flow.compare} order — independent of the subject's
      iteration order, which is what catches membership corruption
      such as a Robin-Hood delete that skips the backward shift;
    - {!Demux.Lookup_stats} accounting against the counts the oracle
      can predict exactly (lookups, found, not_found, inserts,
      removes, evictions, rejections) and the invariants it cannot
      (examined ≥ found, cache_hits ≤ lookups, max ≤ total).

    Guarded subjects ({!Subject.t.guard}) get a {e shadow guard}: a
    second {!Demux.Guarded.t} with the same configuration runs over
    the oracle, so the oracle predicts exactly which flows an
    overloaded table sheds — the content comparison then verifies the
    eviction {e set}, not just the eviction count. *)

type mismatch = {
  subject : string;
  step : int;            (** Op index, or [length ops] for quiesce. *)
  op : Op.op option;     (** The op at [step]; [None] at quiesce. *)
  what : string;         (** Human-readable disagreement. *)
}

val pp_mismatch : Format.formatter -> mismatch -> unit

(** {1 Audit primitives}

    The content/stats audits [run_subject] applies at checkpoints,
    exposed over raw data so checkers that do not drive a live
    {!Subject.t} — the chaos auditor replays per-worker pipeline logs
    after the fact — can demand the same exact match. *)

type counts = {
  mutable lookups : int;
  mutable found : int;
  mutable not_found : int;
  mutable inserts : int;
  mutable removes : int;
  mutable evictions : int;
  mutable rejections : int;
}
(** The {!Demux.Lookup_stats} counters an oracle can predict exactly;
    the rest of a snapshot is algorithm-specific and is only held to
    invariants. *)

val counts : unit -> counts
(** A fresh all-zero ledger. *)

val audit_contents_against :
  contents:(Packet.Flow.t * int) list -> length:int -> Oracle.t ->
  (unit, string) result
(** Compare a table's residents ([contents] must be sorted by
    {!Packet.Flow.compare}, as {!Subject.t.contents} and
    {!Chaos.result}'s [contents] both are) and its reported [length]
    against the oracle.  [Error what] names the first disagreement. *)

val audit_snapshot :
  Demux.Lookup_stats.snapshot -> counts -> (unit, string) result
(** Check a stats snapshot against a predicted ledger: the seven
    predictable counters exactly, plus the invariants
    ([cache_hits <= lookups], [pcbs_examined >= found],
    [max_examined <= pcbs_examined], ...). *)

val run_subject :
  ?checkpoint_every:int -> Subject.t -> Op.t -> mismatch list
(** Run one freshly created subject through a program.  Stops at the
    first mismatch (the subject's state is suspect from then on).
    [checkpoint_every] (default 512) is the content/stats audit
    period; every program also gets the audit at quiesce.

    Programs are made total: an [Insert] of a flow the oracle already
    holds is skipped on both sides (shrinking can splice out the
    remove that made an insert fresh), and a [Remove] of an absent
    flow checks that the subject also misses. *)

type summary = {
  subjects : string list;
  programs : int;
  ops : int;              (** Total operations executed. *)
  mismatches : mismatch list;
}

val run :
  ?obs:Obs.Registry.t -> ?checkpoint_every:int ->
  (unit -> Subject.t) list -> Op.t list -> summary
(** Every program against a fresh instance of every subject.  [?obs]
    registers the [check.programs] / [check.ops] / [check.mismatches]
    counters. *)
