(** The grace-period audit: a reader pinned across a writer's resize.

    This is the scenario epoch-based reclamation exists for, run as a
    deterministic single-domain check: pin a view, let the writer
    churn the table through several copy-publish-retire cycles
    (including growth), and then probe the {e pinned} view for every
    flow that was resident when it was pinned.  A correct
    implementation answers every probe from the retained region —
    and, because the reader is pinned, its retire backlog is visibly
    non-empty until the pin is dropped, after which [quiesce]
    drains it to zero.  An implementation that reclaims without
    honouring pins ({!Plant.Epoch_table}) scrubs the pinned region and
    misses every probe.

    [test/corpus/epoch-reclaim.prog] pins the same churn shape as a
    replayable oracle program (resize boundaries crossed with removes
    and re-inserts in flight), so the single-threaded half of the
    regression survives generator drift; this audit covers the half a
    replay cannot: the reader that outlives the region it reads. *)

type result = {
  probed : int;      (** Flows resident at pin time, all probed. *)
  wrong : int;       (** Probes the pinned view answered wrongly. *)
  pending_while_pinned : int;
      (** Retired regions backlogged while the reader was pinned — a
          correct table holds at least one (the pinned region). *)
  pending_after_quiesce : int;  (** Must drain to [0]. *)
  publishes_while_pinned : int;
      (** Writer publishes that happened across the pin — the audit
          forces enough churn for at least two growth publishes. *)
}

val passed : result -> bool
(** [wrong = 0 && pending_while_pinned > 0 && pending_after_quiesce = 0]. *)

val run : ?resident:int -> ?churn:int -> (module Epoch.Packed.S) -> result
(** Defaults: 12 resident flows probed, 64 churn inserts while pinned
    (enough to cross at least two growth boundaries from the 8-slot
    minimum).  Keys are synthetic two-word pairs; payloads encode the
    key so a stale or torn answer is detectable, not just a miss. *)

val pp_result : Format.formatter -> result -> unit
