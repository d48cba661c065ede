(** Monotonic time sources behind one interface.

    Everything in [Obs] that timestamps (tracers, latency histograms)
    reads time through a {!t}, so wall-clock code and simulated-time
    code share one instrumentation path: a benchmark passes {!wall},
    a discrete-event simulation passes a clock wrapping its engine's
    virtual [now] (see [Sim.Engine.clock]), and tests pass a
    {!virtual_} clock they advance by hand. *)

type t

val now : t -> float
(** Current time in seconds.  The epoch is the source's own: wall
    clocks use the Unix epoch, virtual clocks start wherever they were
    created. *)

val wall : unit -> t
(** The process wall clock ([Unix.gettimeofday]).  Not monotonic: NTP
    steps can move it backwards, so never subtract two reads of it to
    measure a latency — use {!monotonic} / {!now_ns}. *)

val monotonic : unit -> t
(** The OS monotonic clock ([CLOCK_MONOTONIC]) in seconds since an
    arbitrary epoch (boot, not 1970).  Strictly non-decreasing; the
    right source for latency measurement and tracer timestamps that
    must order correctly. *)

val store : t -> float array -> int -> unit
(** [store t times i] writes {!now}[ t] into [times.(i)].  For the
    {!wall}, {!monotonic}, {!fixed} and virtual ({!read}) clocks it
    allocates nothing, as {!now}'s boxed float would; an {!of_fun}
    clock stores what its function returns, boxed or not.
    @raise Invalid_argument if [i] is outside [times]. *)

val now_ns : unit -> int
(** One raw monotonic reading in integer nanoseconds — the hot-path
    form of {!monotonic} for interval timing ([stop - start] is always
    [>= 0]).  The integer resolution is the OS tick, typically coarser
    than 1 ns; treat values as ns {e units}, not ns {e precision}. *)

val of_fun : (unit -> float) -> t
(** Wrap any time source — e.g. a simulation engine's clock. *)

val fixed : float -> t
(** A clock frozen at the given instant (tests, headers). *)

(** {1 Virtual clocks}

    A hand-advanced source, for tests and replays.  Time never moves
    backwards. *)

type virtual_

val create_virtual : ?start:float -> unit -> virtual_
(** Starts at [start] (default 0).
    @raise Invalid_argument if [start] is negative or NaN. *)

val read : virtual_ -> t
(** The virtual clock as a {!t}. *)

val set : virtual_ -> float -> unit
(** Jump to an absolute time.
    @raise Invalid_argument if the time is in the past or NaN. *)

val advance : virtual_ -> float -> unit
(** Move forward by a delta.
    @raise Invalid_argument if the delta is negative or NaN. *)
