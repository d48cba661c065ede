(** Flat open-addressing index over packed flow keys, with boxed
    values.

    A cache-friendly replacement for the [Hashtbl]-backed
    {!Flow_table}, and a thin facade over the Robin-Hood engine
    {!Packed_table.Heap}: the engine maps each key's two packed
    {!Packet.Flow} words to an int handle, and the handle names a cell of
    a value slab.  Probing, displacement, backward-shift deletes and
    both growth policies ({!resize}) are the engine's; see
    {!Packed_table} and DESIGN.md sections 10 and 12.

    The slab grows by adding chunks and never copies a cell, so the
    {!Incremental} policy's bound on per-insert work (E31) holds for
    the facade too; freed handles are reused through an int stack, so
    [remove] allocates nothing.

    [find] and [find_opt] on a present key perform zero minor-heap
    allocations ([find_opt] returns the option cell stored at insert
    time) — this is the index the demultiplexers' hot paths sit on
    (DESIGN.md section 10). *)

type 'a t

type resize = Packed_table.resize =
  | Doubling      (** Stop-the-world rebuild at the growth trigger. *)
  | Incremental   (** Bounded migration per mutation; no O(N) insert. *)

val create :
  ?hash:(int -> int -> int) -> ?initial_capacity:int -> ?resize:resize ->
  unit -> 'a t
(** [create ()] makes an empty table; the arguments are
    {!Packed_table.S.create}'s.
    @raise Invalid_argument if [initial_capacity < 0]. *)

val length : 'a t -> int
(** Resident entries, counting both regions during a drain. *)

val capacity : 'a t -> int
(** Capacity of the live region (the one accepting inserts). *)

val resize_policy : 'a t -> resize

val resizes : 'a t -> int
(** Growth triggers fired since creation (either policy). *)

val pending_migration : 'a t -> int
(** Entries still waiting in the draining old region; 0 when no
    incremental resize is in flight (always 0 under {!Doubling}). *)

val find : 'a t -> w0:int -> w1:int -> 'a
(** Allocation-free lookup by packed key words.
    @raise Not_found if the key is absent. *)

val find_opt : 'a t -> w0:int -> w1:int -> 'a option
(** Allocation-free: returns the stored option cell. *)

val mem : 'a t -> w0:int -> w1:int -> bool

val replace : 'a t -> w0:int -> w1:int -> 'a -> unit
(** Insert, or overwrite the existing binding. *)

val remove : 'a t -> w0:int -> w1:int -> unit
(** Remove the binding if present; its handle is recycled. *)

val iter : (w0:int -> w1:int -> 'a -> unit) -> 'a t -> unit
(** Visits both regions during a drain; order is unspecified. *)

val fold : (w0:int -> w1:int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b

val clear : 'a t -> unit
(** Empty the table, keeping the live region's current capacity and
    abandoning any in-flight drain. *)

val max_probe_length : 'a t -> int
(** Longest probe distance of any resident entry in either region — a
    diagnostic for tests; Robin Hood keeps it small. *)
