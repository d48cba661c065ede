(** Planted bugs, for proving the checkers' teeth against the code
    that ships.

    Each module here is a shipping functor instantiated with one
    {!Demux.Packed_table.FAULT} hook switched away from the identity;
    nothing else in the library sets a hook.  Test-only: nothing
    outside [test/] should depend on this module. *)

module Table : Demux.Packed_table.S
(** {!Demux.Packed_table.Heap} whose live-region delete clears the
    victim's slot instead of backward-shifting its displaced
    successors.  The hole terminates later probe sequences early, so
    entries pushed past it become unreachable: lookups miss residents
    that [iter] still sees — the membership corruption the
    differential oracle's content audit describes. *)

module Epoch_table : Epoch.Packed.S
(** {!Epoch.Packed.Heap} whose publish scrubs the replaced region at
    once instead of retiring it until readers quiesce.  A reader
    holding a pinned view across a writer's publish probes a poisoned
    region and misses every flow resident when it pinned, and
    [pending] stays 0 because nothing is ever deferred. *)
