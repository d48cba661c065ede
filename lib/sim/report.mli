(** Workload run results. *)

type t = {
  algorithm : string;
  workload : string;
  packets : int;            (** Metered receive-path lookups. *)
  overall_mean : float;     (** PCBs examined per packet — the paper's
                                figure of merit. *)
  entry_mean : float;       (** Data-packet lookups only; [nan] if none. *)
  ack_mean : float;         (** Pure-ack lookups only; [nan] if none. *)
  overall_ci95 : float;     (** 95 % confidence half-width on
                                [overall_mean]. *)
  hit_rate : float;         (** One-entry-cache hit rate; 0 for
                                algorithms without caches. *)
  max_examined : int;
}

val of_meter : workload:string -> Meter.t -> t
(** Summarise a finished run. *)

val pp : Format.formatter -> t -> unit

val pp_table : Format.formatter -> t list -> unit
(** Aligned comparison table, one row per report. *)

val name_width : string list -> int
(** The width of a table's algorithm column: the longest name, and at
    least 16, so every row's numbers start in the same columns. *)
