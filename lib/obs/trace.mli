(** Fixed-capacity ring buffer of typed hot-path events.

    A tracer either wraps a preallocated ring (struct-of-arrays:
    timestamps, kinds, two integer payloads) or is {!disabled}, in
    which case {!record} is a single pattern match on an immediate
    value: leaving trace calls in a packet hot path costs nothing
    measurable when tracing is off, which is the point.  An enabled
    tracer stores each timestamp with {!Clock.store}, so with a
    wall, monotonic, fixed or virtual clock it allocates nothing per
    event either (an {!Clock.of_fun} clock may box its float).

    Tracers are single-domain by design; parallel code creates one per
    domain (distinguished by [id]) and {!dump}s them into one file as
    consecutive segments, which {!read_file} returns separately. *)

(** The event vocabulary (payload meanings in [a]/[b]):

    - [Lookup_begin] — a PCB lookup opened.
    - [Lookup_end] — [a] = PCBs examined, [b] = bit 0 found, bit 1
      cache hit.
    - [Cache_hit] — a one-entry (or per-chain) cache satisfied the
      lookup.
    - [Chain_walk] — [a] = chain length walked (> 1 examined).
    - [Insert] / [Remove] — table population changes.
    - [Eviction] / [Rejection] — overload-guard shedding
      (see {!Demux.Guarded}).
    - [Drop] — ingest shed a datagram; [a] = reason code, the index
      of its reason in [Tcpcore.Stack.drop_reasons] (decoded by
      [Tcpcore.Stack.drop_reason_of_code]).
    - [Phase] — a marker injected between runs ([a] = phase index), so
      one dump can carry several algorithms' traces.
    - [Latency] — [a] = measured latency (unit chosen by the
      recorder; the CLI uses nanoseconds).
    - [Batch] — a batched operation was issued ([a] = batch size,
      [b] = recorder-chosen tag: the parallel pipeline uses the worker
      shard index). *)
type kind =
  | Lookup_begin
  | Lookup_end
  | Cache_hit
  | Chain_walk
  | Insert
  | Remove
  | Eviction
  | Rejection
  | Drop
  | Phase
  | Latency
  | Batch

val kind_name : kind -> string
val kind_code : kind -> int
val kind_of_code : int -> kind option

type record = { time : float; kind : kind; a : int; b : int }

type t

val disabled : t
(** The shared no-op tracer: {!record} returns immediately without
    allocating; {!length} is 0; {!dump} writes an empty segment. *)

val create : ?clock:Clock.t -> ?id:int -> capacity:int -> unit -> t
(** A ring holding the last [capacity] events, timestamped by [clock]
    (default: wall).  [id] tags the dump segment (default 0) —
    parallel code uses the domain index.
    @raise Invalid_argument if [capacity] is not positive. *)

val enabled : t -> bool
val id : t -> int
val capacity : t -> int
(** 0 for {!disabled}. *)

val set_clock : t -> Clock.t -> unit
(** Swap the time source — e.g. to a simulation engine's virtual
    clock once the engine exists.  No-op on {!disabled}. *)

val record : t -> kind -> int -> int -> unit
(** [record t kind a b]: append one event (overwriting the oldest when
    full).  All arguments are immediates; the disabled path does not
    allocate, the enabled one allocates its timestamp's float. *)

val length : t -> int
(** Events currently held (≤ capacity). *)

val recorded : t -> int
(** Events ever recorded, including overwritten ones. *)

val dropped : t -> int
(** Events lost to ring wrap ([recorded - length]). *)

val clear : t -> unit

val to_list : t -> record list
(** Held events, oldest first. *)

(** {1 Binary dump}

    A dump is a sequence of segments, one per {!dump} call:
    magic ["OBSTRC1\n"], then tracer id, event count (both 64-bit LE),
    then per event: timestamp (IEEE 754 bits), kind code (1 byte), [a],
    [b] (64-bit LE each).  Appending several tracers' dumps to one
    channel produces one readable file. *)

val dump : t -> out_channel -> unit

val read_channel : in_channel -> ((int * record list) list, string) result
(** All segments as [(id, events)], in file order. *)

val read_file : string -> ((int * record list) list, string) result

val pp_record : Format.formatter -> record -> unit
