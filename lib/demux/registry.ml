type spec =
  | Linear
  | Bsd
  | Mtf
  | Sr_cache
  | Sequent of { chains : int; hasher : Hashing.Hashers.t }
  | Hashed_mtf of { chains : int; hasher : Hashing.Hashers.t }
  | Conn_id of { capacity : int }
  | Resizing_hash
  | Splay
  | Lru_cache of { entries : int }
  | Cuckoo
  | Guarded of { spec : spec; max_chain : int; max_total : int }

let default_specs =
  [ Bsd; Mtf; Sr_cache;
    Sequent
      { chains = Sequent.default_chains;
        hasher = Hashing.Hashers.multiplicative } ]

let rec spec_name = function
  | Linear -> "linear"
  | Bsd -> "bsd"
  | Mtf -> "mtf"
  | Sr_cache -> "sr-cache"
  | Sequent { chains; _ } -> Printf.sprintf "sequent-%d" chains
  | Hashed_mtf { chains; _ } -> Printf.sprintf "hashed-mtf-%d" chains
  | Conn_id _ -> "conn-id"
  | Resizing_hash -> "resizing-hash"
  | Splay -> "splay"
  | Lru_cache { entries } -> Printf.sprintf "lru-cache-%d" entries
  | Cuckoo -> "cuckoo"
  | Guarded { spec; _ } -> "guarded-" ^ spec_name spec

let rec spec_of_string s =
  (* [Some (Ok spec)] on "<prefix><positive int>", [Some (Error _)] on
     a non-positive count (a misconfiguration worth naming, not an
     unknown algorithm), [None] when the prefix does not apply. *)
  let counted ~prefix ~what make =
    let plen = String.length prefix in
    if String.length s > plen && String.sub s 0 plen = prefix then
      match int_of_string_opt (String.sub s plen (String.length s - plen)) with
      | Some n when n > 0 -> Some (Ok (make n))
      | Some n ->
        Some
          (Error
             (Printf.sprintf "%s: %s must be positive (got %d)" s what n))
      | None -> None
    else None
  in
  match s with
  | "linear" -> Ok Linear
  | "bsd" -> Ok Bsd
  | "mtf" -> Ok Mtf
  | "sr-cache" -> Ok Sr_cache
  | "conn-id" -> Ok (Conn_id { capacity = 65536 })
  | "resizing-hash" -> Ok Resizing_hash
  | "splay" -> Ok Splay
  | "lru-cache" -> Ok (Lru_cache { entries = 8 })
  | "cuckoo" -> Ok Cuckoo
  | "sequent" ->
    Ok
      (Sequent
         { chains = Sequent.default_chains;
           hasher = Hashing.Hashers.multiplicative })
  | "hashed-mtf" ->
    Ok
      (Hashed_mtf
         { chains = Sequent.default_chains;
           hasher = Hashing.Hashers.multiplicative })
  | s when String.length s > 8 && String.sub s 0 8 = "guarded-" -> (
    match spec_of_string (String.sub s 8 (String.length s - 8)) with
    | Ok spec ->
      Ok
        (Guarded
           { spec; max_chain = Guarded.default_max_chain;
             max_total = Guarded.default_max_total })
    | Error _ as e -> e)
  | s -> (
    let attempts =
      [ counted ~prefix:"lru-cache-" ~what:"cache entry count" (fun entries ->
            Lru_cache { entries });
        counted ~prefix:"sequent-" ~what:"chain count" (fun chains ->
            Sequent { chains; hasher = Hashing.Hashers.multiplicative });
        counted ~prefix:"hashed-mtf-" ~what:"chain count" (fun chains ->
            Hashed_mtf { chains; hasher = Hashing.Hashers.multiplicative }) ]
    in
    match List.find_map Fun.id attempts with
    | Some outcome -> outcome
    | None ->
      Error
        (Printf.sprintf
           "unknown algorithm %S (try: linear, bsd, mtf, sr-cache, \
            sequent[-H], hashed-mtf[-H], conn-id, resizing-hash, splay, \
            lru-cache[-K], cuckoo, guarded-<algorithm>)"
           s))

type 'a t = {
  name : string;
  insert : Packet.Flow.t -> 'a -> 'a Pcb.t;
  remove : Packet.Flow.t -> 'a Pcb.t option;
  lookup : Types.packet_kind -> w0:int -> w1:int -> 'a Pcb.t;
  note_send : Packet.Flow.t -> unit;
  stats : Lookup_stats.t;
  length : unit -> int;
  iter : ('a Pcb.t -> unit) -> unit;
}

(* Chain geometry the guard must mirror so its shadow chains agree
   with the guarded algorithm's real ones; list-shaped tables are one
   big chain. *)
let rec chain_geometry = function
  | Sequent { chains; hasher } | Hashed_mtf { chains; hasher } ->
    (chains, hasher)
  | Guarded { spec; _ } -> chain_geometry spec
  | Linear | Bsd | Mtf | Sr_cache | Conn_id _ | Resizing_hash | Splay
  | Lru_cache _ | Cuckoo ->
    (1, Hashing.Hashers.multiplicative)

let guard_config = function
  | Guarded { spec; max_chain; max_total } ->
    let chains, hasher = chain_geometry spec in
    Some (Guarded.config ~max_chain ~max_total ~chains ~hasher ())
  | Linear | Bsd | Mtf | Sr_cache | Sequent _ | Hashed_mtf _ | Conn_id _
  | Resizing_hash | Splay | Lru_cache _ | Cuckoo ->
    None

let guard config inner =
  let g = Guarded.create config in
  let stats = inner.stats in
  let lookup kind ~w0 ~w1 =
    let pcb = inner.lookup kind ~w0 ~w1 in
    Guarded.note_touched g pcb.Pcb.flow;
    pcb
  in
  let evict flow =
    match inner.remove flow with
    | Some _ -> Lookup_stats.note_eviction stats
    | None -> ()
  in
  { name = "guarded-" ^ inner.name;
    insert =
      (fun flow data ->
        List.iter evict (Guarded.admit g flow);
        let pcb = inner.insert flow data in
        Guarded.note_inserted g flow;
        pcb);
    remove =
      (fun flow ->
        match inner.remove flow with
        | Some _ as removed ->
          Guarded.note_removed g flow;
          removed
        | None -> None);
    lookup;
    note_send = inner.note_send;
    stats;
    length = inner.length;
    iter = inner.iter }

(* Erase one table behind the record of closures.  [lookup] is the
   stack's per-datagram call: written as a full application, it is one
   closure call into the table's own lookup. *)
module Erase (D : Types.TABLE) = struct
  let make name d =
    { name; insert = D.insert d; remove = D.remove d;
      lookup = (fun kind ~w0 ~w1 -> D.lookup d kind ~w0 ~w1);
      note_send = D.note_send d; stats = D.stats d;
      length = (fun () -> D.length d); iter = (fun f -> D.iter f d) }
end

module Linear_e = Erase (Linear)
module Mtf_e = Erase (Mtf)
module Sr_cache_e = Erase (Sr_cache)
module Sequent_e = Erase (Sequent)
module Conn_id_e = Erase (Conn_id)
module Resizing_hash_e = Erase (Resizing_hash)
module Splay_e = Erase (Splay)
module Lru_cache_e = Erase (Lru_cache)
module Cuckoo_e = Erase (Cuckoo)

let rec create spec =
  let n = spec_name spec in
  match spec with
  | Linear -> Linear_e.make n (Linear.create ())
  | Bsd -> Sequent_e.make n (Sequent.create ~chains:1 ())
  | Mtf -> Mtf_e.make n (Mtf.create ())
  | Sr_cache -> Sr_cache_e.make n (Sr_cache.create ())
  | Sequent { chains; hasher } ->
    Sequent_e.make n (Sequent.create ~chains ~hasher ())
  | Hashed_mtf { chains; hasher } -> Mtf_e.make n (Mtf.create ~chains ~hasher ())
  | Conn_id { capacity } -> Conn_id_e.make n (Conn_id.create ~capacity ())
  | Resizing_hash -> Resizing_hash_e.make n (Resizing_hash.create ())
  | Splay -> Splay_e.make n (Splay.create ())
  | Lru_cache { entries } -> Lru_cache_e.make n (Lru_cache.create ~entries ())
  | Cuckoo -> Cuckoo_e.make n (Cuckoo.create ())
  | Guarded { spec = inner; _ } ->
    guard (Option.get (guard_config spec)) (create inner)

let observe ?prefix obs t =
  let prefix =
    match prefix with Some p -> p | None -> "demux." ^ t.name
  in
  let snap field = fun () -> field (Lookup_stats.snapshot t.stats) in
  let counter name help field =
    Obs.Registry.register_counter obs ~help ~name:(prefix ^ "." ^ name)
      (snap field)
  in
  counter "lookups" "receive-path lookups" (fun s -> s.Lookup_stats.lookups);
  counter "pcbs_examined" "total PCBs examined across all lookups"
    (fun s -> s.Lookup_stats.pcbs_examined);
  counter "cache_hits" "lookups satisfied by a one-entry cache"
    (fun s -> s.Lookup_stats.cache_hits);
  counter "found" "lookups that matched a PCB" (fun s -> s.Lookup_stats.found);
  counter "not_found" "lookups that matched nothing"
    (fun s -> s.Lookup_stats.not_found);
  counter "inserts" "PCB insertions" (fun s -> s.Lookup_stats.inserts);
  counter "removes" "protocol PCB removals" (fun s -> s.Lookup_stats.removes);
  counter "evictions" "PCBs shed by an overload guard"
    (fun s -> s.Lookup_stats.evictions);
  counter "rejections" "insertions refused by an overload guard"
    (fun s -> s.Lookup_stats.rejections);
  Obs.Registry.register_gauge obs ~help:"PCBs resident in the table"
    ~name:(prefix ^ ".pcbs") (fun () -> float_of_int (t.length ()));
  let histogram =
    Obs.Registry.histogram obs ~units:"pcbs"
      ~help:"per-lookup examined-count distribution"
      (prefix ^ ".examined")
  in
  Lookup_stats.set_histogram t.stats (Some histogram);
  (* Hit/miss split of the same distribution: under a SYN flood the
     miss series is the whole story (EXPERIMENTS.md E35). *)
  let hit =
    Obs.Registry.histogram obs ~units:"pcbs"
      ~help:"examined-count distribution, lookups that matched"
      (prefix ^ ".examined_hit")
  in
  let miss =
    Obs.Registry.histogram obs ~units:"pcbs"
      ~help:"examined-count distribution, lookups that missed"
      (prefix ^ ".examined_miss")
  in
  Lookup_stats.set_series_histograms t.stats ~hit:(Some hit) ~miss:(Some miss)
