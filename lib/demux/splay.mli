(** Splay-tree demultiplexer — a beyond-the-paper extension.

    Move-to-front is the list instance of self-adjustment; the splay
    tree (Sleator & Tarjan 1985) is the tree instance.  Where MTF
    still pays O(N) for a cold key, splaying pays O(log N) amortised
    while keeping recently used connections near the root, so it
    interpolates between the paper's cached lists and its hashed
    chains: no tuning knob (unlike H), logarithmic worst case, strong
    locality adaptation.  Included to measure that trade (DESIGN.md
    section 6).

    Cost accounting: one PCB examined per tree node whose key is
    compared during the access, matching the paper's discipline.
    [note_send] splays the sent flow to the root, uncharged. *)

type 'a t

include Types.TABLE with type 'a t := 'a t

val create : unit -> 'a t

val depth : 'a t -> int
(** Current tree height (0 when empty), for balance diagnostics. *)
