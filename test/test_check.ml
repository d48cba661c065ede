(* Tests for lib/check: the differential oracle, the deterministic
   fuzzer and its shrinker, the pinned regression corpus, and the
   analytic cross-validation grid.  The centrepiece is the planted-bug
   demonstration: the shipping Robin-Hood engine with its delete hook
   switched to skip the backward shift (Check.Plant) is caught by the
   fuzzer and shrunk to a replayable counterexample a handful of ops
   long. *)

let flow i = Sim.Topology.flow_of_client i

(* Every registry algorithm, plus the striped table and the flat
   Robin-Hood index — the subject pool the oracle drives. *)
let registry_specs =
  [ Demux.Registry.Linear; Demux.Registry.Bsd; Demux.Registry.Mtf;
    Demux.Registry.Sr_cache;
    Demux.Registry.Sequent
      { chains = 19; hasher = Hashing.Hashers.multiplicative };
    Demux.Registry.Hashed_mtf
      { chains = 19; hasher = Hashing.Hashers.multiplicative };
    Demux.Registry.Conn_id { capacity = 4096 };
    Demux.Registry.Resizing_hash; Demux.Registry.Splay;
    Demux.Registry.Lru_cache { entries = 8 };
    Demux.Registry.Guarded
      { spec =
          Demux.Registry.Sequent
            { chains = 19; hasher = Hashing.Hashers.multiplicative };
        max_chain = Demux.Guarded.default_max_chain;
        max_total = Demux.Guarded.default_max_total };
    Demux.Registry.Guarded
      { spec = Demux.Registry.Bsd; max_chain = 16; max_total = 48 };
    Demux.Registry.Cuckoo;
    Demux.Registry.Guarded
      { spec = Demux.Registry.Cuckoo;
        max_chain = Demux.Guarded.default_max_chain;
        max_total = Demux.Guarded.default_max_total } ]

let all_subjects () =
  List.map (fun spec () -> Check.Subject.of_spec spec) registry_specs
  @ [ (fun () -> Check.Subject.striped ());
      (fun () -> Check.Subject.flat_table ());
      (fun () -> Check.Subject.flat_table_doubling ());
      (fun () -> Check.Subject.epoch_table ());
      (fun () -> Check.Subject.offheap_table ());
      (fun () -> Check.Subject.guarded_flat_table ());
      (fun () -> Check.Subject.cuckoo_table ()) ]

let buggy_subject () =
  Check.Subject.of_packed ~name:"buggy-flat" (module Check.Plant.Table)
    (Check.Plant.Table.create ())

let op kind flow = { Check.Op.kind; flow }

let op_equal (a : Check.Op.op) (b : Check.Op.op) =
  a.Check.Op.kind = b.Check.Op.kind
  && Packet.Flow.equal a.Check.Op.flow b.Check.Op.flow

let program_equal (a : Check.Op.t) (b : Check.Op.t) =
  a.Check.Op.label = b.Check.Op.label
  && a.Check.Op.seed = b.Check.Op.seed
  && Array.length a.Check.Op.ops = Array.length b.Check.Op.ops
  && Array.for_all2 op_equal a.Check.Op.ops b.Check.Op.ops

(* ------------------------------------------------------------------ *)
(* Op: the program text format                                         *)

let test_op_round_trip_unit () =
  let program =
    Check.Fuzz.generate Check.Fuzz.Boundary ~seed:5 ~pool:48 ~ops:200
  in
  match Check.Op.parse (Check.Op.print program) with
  | Error message -> Alcotest.fail message
  | Ok parsed ->
    Alcotest.(check bool) "round-trips" true (program_equal program parsed)

let test_op_parse_errors () =
  let bad text =
    match Check.Op.parse text with
    | Ok _ -> Alcotest.fail ("parsed: " ^ text)
    | Error _ -> ()
  in
  bad "X 1.2.3.4:1 5.6.7.8:2";
  bad "I 1.2.3.4:99999 5.6.7.8:2";
  bad "I 1.2.3.4 5.6.7.8:2";
  bad "I 300.2.3.4:1 5.6.7.8:2"

let qcheck_op_round_trip =
  let arbitrary_program =
    let open QCheck in
    let endpoint =
      map
        (fun (a, b, c, d, port) ->
          Packet.Flow.endpoint (Packet.Ipv4.addr_of_octets a b c d) port)
        (quad (0 -- 255) (0 -- 255) (0 -- 255) (0 -- 255)
        |> fun q -> pair q (0 -- 65535) |> map (fun ((a, b, c, d), p) -> (a, b, c, d, p)))
    in
    let kind =
      oneofl
        [ Check.Op.Insert; Check.Op.Lookup; Check.Op.Ack_lookup;
          Check.Op.Remove; Check.Op.Send ]
    in
    let op_gen =
      map
        (fun (k, (local, remote)) ->
          { Check.Op.kind = k; flow = Packet.Flow.v ~local ~remote })
        (pair kind (pair endpoint endpoint))
    in
    map
      (fun (seed, ops) ->
        Check.Op.v ~label:"qcheck" ~seed (Array.of_list ops))
      (pair (0 -- 1_000_000) (list_of_size Gen.(0 -- 40) op_gen))
  in
  QCheck.Test.make ~count:200 ~name:"Op.parse inverts Op.print"
    arbitrary_program (fun program ->
      match Check.Op.parse (Check.Op.print program) with
      | Ok parsed -> program_equal program parsed
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* The differential oracle                                             *)

let test_diff_all_algorithms_clean () =
  (* Every profile, every subject, one program each: zero mismatches.
     This is the tentpole invariant — all twenty-one implementations
     agree with the reference model op for op. *)
  let summary, failures =
    Check.Fuzz.campaign ~programs_per_profile:1 ~ops:768 ~pool:48
      ~subjects:(all_subjects ()) ~seed:42 ()
  in
  Alcotest.(check int) "subjects" 21 (List.length summary.Check.Diff.subjects);
  Alcotest.(check int) "programs" 5 summary.Check.Diff.programs;
  Alcotest.(check bool) "ops executed" true (summary.Check.Diff.ops > 10_000);
  (match summary.Check.Diff.mismatches with
  | [] -> ()
  | m :: _ -> Alcotest.fail (Format.asprintf "%a" Check.Diff.pp_mismatch m));
  Alcotest.(check int) "no failures" 0 (List.length failures)

let test_diff_is_deterministic () =
  let run () =
    let summary, _ =
      Check.Fuzz.campaign ~programs_per_profile:1 ~ops:256 ~pool:32
        ~subjects:[ (fun () -> Check.Subject.of_spec Demux.Registry.Bsd) ]
        ~seed:7 ()
    in
    summary.Check.Diff.ops
  in
  Alcotest.(check int) "same op count" (run ()) (run ())

let test_diff_obs_counters () =
  let obs = Obs.Registry.create () in
  let _summary, _failures =
    Check.Fuzz.campaign ~obs ~programs_per_profile:1 ~ops:128 ~pool:16
      ~subjects:[ (fun () -> Check.Subject.of_spec Demux.Registry.Mtf) ]
      ~seed:9 ()
  in
  let metrics = Obs.Registry.snapshot obs in
  let counter name =
    match Obs.Registry.find metrics name with
    | Some { Obs.Registry.data = Obs.Registry.Counter n; _ } -> n
    | _ -> Alcotest.fail ("missing counter " ^ name)
  in
  Alcotest.(check int) "check.programs" 5 (counter "check.programs");
  Alcotest.(check int) "check.ops" (5 * 128) (counter "check.ops");
  Alcotest.(check int) "check.mismatches" 0 (counter "check.mismatches")

(* ------------------------------------------------------------------ *)
(* Pinned corpus                                                       *)

let corpus_programs () =
  let dir = "corpus" in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".prog")
  |> List.sort String.compare
  |> List.map (fun f ->
         let path = Filename.concat dir f in
         match Check.Op.load path with
         | Ok program -> (f, program)
         | Error message -> Alcotest.fail (path ^ ": " ^ message))

let test_corpus_replays_clean () =
  let programs = corpus_programs () in
  Alcotest.(check bool) "corpus present" true (List.length programs >= 4);
  List.iter
    (fun (name, program) ->
      let summary =
        Check.Diff.run (all_subjects ()) [ program ]
      in
      match summary.Check.Diff.mismatches with
      | [] -> ()
      | m :: _ ->
        Alcotest.fail
          (Format.asprintf "%s: %a" name Check.Diff.pp_mismatch m))
    programs

let load_corpus name =
  match Check.Op.load (Filename.concat "corpus" name) with
  | Ok program -> program
  | Error message -> Alcotest.fail (name ^ ": " ^ message)

let test_corpus_robin_hood_is_a_cluster () =
  (* The pinned program's five inserted flows share one Flat_table
     home slot at the minimum capacity, so inserting them builds a
     displacement cluster — the precondition for backward-shift
     deletion to matter at all. *)
  let program = load_corpus "robin-hood-backward-shift.prog" in
  let inserts =
    Array.to_list program.Check.Op.ops
    |> List.filter (fun (o : Check.Op.op) -> o.Check.Op.kind = Check.Op.Insert)
    |> List.map (fun (o : Check.Op.op) -> o.Check.Op.flow)
  in
  Alcotest.(check int) "five colliding flows" 5 (List.length inserts);
  let home f = Hashing.Hashers.(hash_flow multiplicative) f land 7 in
  match inserts with
  | first :: rest ->
    List.iter
      (fun f -> Alcotest.(check int) "same home slot" (home first) (home f))
      rest
  | [] -> assert false

let test_corpus_robin_hood_catches_buggy_table () =
  (* The same program must fail the engine with the backward shift
     planted out — proof the corpus entry really regression-tests the
     delete path. *)
  let program = load_corpus "robin-hood-backward-shift.prog" in
  Alcotest.(check bool) "flat table passes" true
    (Check.Diff.run_subject (Check.Subject.flat_table ()) program = []);
  Alcotest.(check bool) "buggy table fails" true
    (Check.Diff.run_subject (buggy_subject ()) program <> [])

let test_corpus_guarded_sheds () =
  (* The guarded-eviction program must actually push the guard past
     its chain bound: evictions happen, and the oracle (via its shadow
     guard) still predicts the exact surviving set. *)
  let program = load_corpus "guarded-eviction.prog" in
  let subject =
    Check.Subject.of_spec
      (Demux.Registry.Guarded
         { spec =
             Demux.Registry.Sequent
               { chains = 19; hasher = Hashing.Hashers.multiplicative };
           max_chain = Demux.Guarded.default_max_chain;
           max_total = Demux.Guarded.default_max_total })
  in
  (match Check.Diff.run_subject subject program with
  | [] -> ()
  | m :: _ -> Alcotest.fail (Format.asprintf "%a" Check.Diff.pp_mismatch m));
  let stats = subject.Check.Subject.stats () in
  Alcotest.(check bool) "guard evicted" true
    (stats.Demux.Lookup_stats.evictions > 0)

let test_corpus_cuckoo_kick_crosses_stash () =
  (* Every flow in the pinned program homes to cuckoo bucket 0 at 16
     buckets (and, by mask nesting, at every smaller power-of-two
     count); the pair class also pins its alternate bucket to 1,
     while the feeder class keeps its alternate off the pair.
     Replaying the program onto a bare cuckoo table must therefore
     overflow the (0, 1) pair's sixteen slots: BFS kick chains evict
     the feeders, the surplus pair flows land in the stash, and the
     structural probe bound holds throughout. *)
  let program = load_corpus "cuckoo-kick.prog" in
  let module C = Demux.Cuckoo_table.Heap in
  let table = C.create () in
  Array.iter
    (fun (o : Check.Op.op) ->
      let w0 = Packet.Flow.w0 o.Check.Op.flow
      and w1 = Packet.Flow.w1 o.Check.Op.flow in
      let h2 = Demux.Cuckoo_table.default_hash2 w0 w1 in
      Alcotest.(check int) "primary bucket pinned" 0
        (Demux.Cuckoo_table.default_hash1 w0 w1 land 15);
      Alcotest.(check bool) "pair or feeder alternate" true
        (h2 land 15 = 1 || h2 land 3 >= 2);
      match o.Check.Op.kind with
      | Check.Op.Insert -> C.replace table ~w0 ~w1 0
      | Check.Op.Remove -> C.remove table ~w0 ~w1
      | _ -> ignore (C.find_opt table ~w0 ~w1))
    program.Check.Op.ops;
  Alcotest.(check int) "twenty-four residents" 24 (C.length table);
  Alcotest.(check bool) "kick chains ran" true (C.kicks table > 0);
  Alcotest.(check bool) "stash in use" true (C.stash_len table > 0);
  Alcotest.(check bool) "probe bound holds" true
    (C.max_probe_length table <= 2 + C.stash_len table)

(* ------------------------------------------------------------------ *)
(* The planted bug: caught, shrunk, replayable                         *)

let buggy_fails program =
  Check.Diff.run_subject (buggy_subject ()) program <> []

let find_failing_program () =
  let rec hunt seed =
    if seed > 50 then Alcotest.fail "no program caught the planted bug"
    else
      let program =
        Check.Fuzz.generate Check.Fuzz.Colliding ~seed ~pool:32 ~ops:256
      in
      if buggy_fails program then program else hunt (seed + 1)
  in
  hunt 0

let test_fuzzer_catches_planted_bug () =
  let original = find_failing_program () in
  let shrunk = Check.Fuzz.shrink buggy_fails original in
  (* Still failing, no longer than the input. *)
  Alcotest.(check bool) "shrunk still fails" true (buggy_fails shrunk);
  Alcotest.(check bool) "shrunk no longer" true
    (Check.Op.length shrunk <= Check.Op.length original);
  (* 1-minimal: deleting any single remaining op loses the failure. *)
  let ops = shrunk.Check.Op.ops in
  Array.iteri
    (fun i _ ->
      let without =
        Array.append (Array.sub ops 0 i)
          (Array.sub ops (i + 1) (Array.length ops - i - 1))
      in
      Alcotest.(check bool)
        (Printf.sprintf "op %d is necessary" i)
        false
        (buggy_fails (Check.Op.v ~label:"minimal?" ~seed:shrunk.Check.Op.seed without)))
    ops;
  (* Replayable: the printed dump parses back to the identical program
     and still fails — the counterexample survives being pasted into a
     corpus file. *)
  (match Check.Op.parse (Check.Op.print shrunk) with
  | Error message -> Alcotest.fail message
  | Ok parsed ->
    Alcotest.(check bool) "byte-identical replay" true
      (program_equal shrunk parsed);
    Alcotest.(check bool) "replay still fails" true (buggy_fails parsed));
  (* And the correct table shrugs the same program off. *)
  Alcotest.(check bool) "real flat table passes" true
    (Check.Diff.run_subject (Check.Subject.flat_table ()) shrunk = [])

let qcheck_shrink_properties =
  (* Across many generator seeds: whenever a colliding program trips
     the planted bug, shrinking yields a still-failing program no
     longer than the original that replays identically from its
     printed form. *)
  QCheck.Test.make ~count:12 ~name:"shrink: fails, <= length, replays"
    QCheck.(0 -- 1_000) (fun seed ->
      let program =
        Check.Fuzz.generate Check.Fuzz.Colliding ~seed ~pool:24 ~ops:192
      in
      if not (buggy_fails program) then true
      else
        let shrunk = Check.Fuzz.shrink buggy_fails program in
        buggy_fails shrunk
        && Check.Op.length shrunk <= Check.Op.length program
        &&
        match Check.Op.parse (Check.Op.print shrunk) with
        | Ok parsed -> program_equal shrunk parsed && buggy_fails parsed
        | Error _ -> false)

let test_campaign_reports_planted_bug () =
  (* End to end: a campaign over the buggy subject produces a failure
     with a shrunk program and a mismatch naming the subject. *)
  let summary, failures =
    Check.Fuzz.campaign ~profiles:[ Check.Fuzz.Colliding ]
      ~programs_per_profile:2 ~ops:256 ~pool:32
      ~subjects:[ buggy_subject ] ~seed:1 ()
  in
  Alcotest.(check bool) "mismatches recorded" true
    (summary.Check.Diff.mismatches <> []);
  match failures with
  | [] -> Alcotest.fail "campaign found no failure"
  | f :: _ ->
    Alcotest.(check string) "names the subject" "buggy-flat"
      f.Check.Fuzz.mismatch.Check.Diff.subject;
    Alcotest.(check bool) "shrunk is smaller" true
      (Check.Op.length f.Check.Fuzz.shrunk
      <= Check.Op.length f.Check.Fuzz.original)

(* ------------------------------------------------------------------ *)
(* Guarded shedding semantics                                          *)

let test_guarded_eviction_sets_match () =
  (* A tight guard under collision flood: the shadow guard over the
     oracle must predict the exact same eviction set, or the quiesce
     content audit fails.  Run long enough that dozens of evictions
     happen. *)
  let spec =
    Demux.Registry.Guarded
      { spec =
          Demux.Registry.Sequent
            { chains = 19; hasher = Hashing.Hashers.multiplicative };
        max_chain = 8; max_total = 24 }
  in
  let program =
    Check.Fuzz.generate Check.Fuzz.Colliding ~seed:21 ~pool:48 ~ops:2048
  in
  let subject = Check.Subject.of_spec spec in
  (match Check.Diff.run_subject subject program with
  | [] -> ()
  | m :: _ -> Alcotest.fail (Format.asprintf "%a" Check.Diff.pp_mismatch m));
  let stats = subject.Check.Subject.stats () in
  Alcotest.(check bool) "many evictions or rejections" true
    (stats.Demux.Lookup_stats.evictions
     + stats.Demux.Lookup_stats.rejections
    > 20)

let test_guarded_eviction_during_resize () =
  (* Eviction accounting while an incremental migration is in flight.
     [max_total = 30] sits just past the flat table's third resize
     boundary (the insert reaching population 29 triggers the 32->64
     grow), so on a plain ramp the guard starts shedding while the
     capacity-32 old region is still draining — evicted victims can be
     old-region residents, exercising the dead-marking remove path.
     Half one drives the guard + table directly (the exact
     [Subject.guarded_flat_table] wiring) and asserts the overlap
     really happens; half two replays equivalent churn through the
     oracle's shadow guard, which must predict the exact eviction
     set mid-migration. *)
  let config = Demux.Guarded.config ~max_chain:30 ~max_total:30 ~chains:4 () in
  let guard = Demux.Guarded.create config in
  let table : int Demux.Flat_table.t = Demux.Flat_table.create () in
  let words f = (Packet.Flow.w0 f, Packet.Flow.w1 f) in
  let evictions = ref 0 and overlapped = ref 0 in
  for i = 0 to 44 do
    let f = flow i in
    match Demux.Guarded.admit guard f with
    | `Reject -> Alcotest.fail "guard rejected below max_chain"
    | `Admit victims ->
      List.iter
        (fun victim ->
          let w0, w1 = words victim in
          Alcotest.(check bool) "victim resident" true
            (Demux.Flat_table.mem table ~w0 ~w1);
          Demux.Flat_table.remove table ~w0 ~w1;
          Demux.Guarded.note_removed guard victim;
          incr evictions;
          if Demux.Flat_table.pending_migration table > 0 then
            incr overlapped)
        victims;
      let w0, w1 = words f in
      Demux.Flat_table.replace table ~w0 ~w1 i;
      Demux.Guarded.note_inserted guard f
  done;
  Alcotest.(check int) "population pinned at max_total" 30
    (Demux.Flat_table.length table);
  Alcotest.(check int) "one victim per over-limit insert" 15 !evictions;
  Alcotest.(check bool) "crossed several resize boundaries" true
    (Demux.Flat_table.resizes table >= 3);
  Alcotest.(check bool) "evictions landed mid-migration" true
    (!overlapped >= 1);
  (* Shadow-guard half: the oracle must predict the same eviction
     sets while the subject's migrations are in flight.  Ramp past
     the boundary, then churn removes/re-inserts across it. *)
  let ops =
    Array.of_list
      (List.init 45 (fun i -> op Check.Op.Insert (flow i))
      @ List.init 45 (fun i -> op Check.Op.Lookup (flow i))
      @ List.init 6 (fun i -> op Check.Op.Remove (flow (20 + i)))
      @ List.init 6 (fun i -> op Check.Op.Insert (flow (50 + i)))
      @ List.init 56 (fun i -> op Check.Op.Lookup (flow i)))
  in
  let program = Check.Op.v ~label:"eviction-during-resize" ~seed:9 ops in
  let subject =
    Check.Subject.guarded_flat_table ~max_chain:30 ~max_total:30 ()
  in
  (match Check.Diff.run_subject subject program with
  | [] -> ()
  | m :: _ -> Alcotest.fail (Format.asprintf "%a" Check.Diff.pp_mismatch m));
  let stats = subject.Check.Subject.stats () in
  Alcotest.(check bool) "shadow guard saw evictions" true
    (stats.Demux.Lookup_stats.evictions > 10)

(* ------------------------------------------------------------------ *)
(* Parallel lockstep                                                   *)

(* A churn program that is valid per flow (insert only when absent,
   remove only when present), so any stripe-preserving reordering
   leaves every per-flow op sequence intact. *)
let churn_ops ~pool ~ops ~seed =
  let rng = Numerics.Rng.create ~seed in
  let present = Array.make pool false in
  Array.init ops (fun _ ->
      let i = Numerics.Rng.int rng ~bound:pool in
      let f = flow i in
      let roll = Numerics.Rng.int rng ~bound:100 in
      if roll < 30 && not present.(i) then begin
        present.(i) <- true;
        op Check.Op.Insert f
      end
      else if roll < 45 && present.(i) then begin
        present.(i) <- false;
        op Check.Op.Remove f
      end
      else op Check.Op.Lookup f)

type lockstep_result =
  | Inserted
  | Removed of int option
  | Found of int option

let apply_striped table (o : Check.Op.op) index =
  match o.Check.Op.kind with
  | Check.Op.Insert ->
    ignore (Parallel.Striped.insert table o.Check.Op.flow index);
    Inserted
  | Check.Op.Remove ->
    Removed
      (Option.map
         (fun pcb -> pcb.Demux.Pcb.data)
         (Parallel.Striped.remove table o.Check.Op.flow))
  | Check.Op.Lookup | Check.Op.Ack_lookup | Check.Op.Send ->
    Found
      (Option.map
         (fun pcb -> pcb.Demux.Pcb.data)
         (Parallel.Striped.lookup table o.Check.Op.flow))

let test_striped_four_domain_lockstep () =
  let chains = 19 and domains = 4 in
  let ops = churn_ops ~pool:200 ~ops:8_000 ~seed:33 in
  let n = Array.length ops in
  (* Single-domain reference run. *)
  let reference = Parallel.Striped.create ~chains () in
  let expected = Array.mapi (fun i o -> apply_striped reference o i) ops in
  (* 4-domain run: domain d owns stripes congruent to d mod domains,
     and applies its ops in program order — per-stripe sequences are
     exactly the single-domain ones, so every result and the merged
     stats must come out identical. *)
  let table = Parallel.Striped.create ~chains () in
  let results = Array.make n Inserted in
  let stripe_of (o : Check.Op.op) =
    Hashing.Hashers.bucket_flow Hashing.Hashers.multiplicative ~buckets:chains
      o.Check.Op.flow
  in
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            Array.iteri
              (fun i o ->
                if stripe_of o mod domains = d then
                  results.(i) <- apply_striped table o i)
              ops))
  in
  List.iter Domain.join workers;
  for i = 0 to n - 1 do
    if results.(i) <> expected.(i) then
      Alcotest.fail (Printf.sprintf "op %d diverged from single-domain run" i)
  done;
  let merged = Parallel.Striped.stats table
  and single = Parallel.Striped.stats reference in
  Alcotest.(check bool) "merged stats match single-domain run" true
    (merged = single);
  (* And the scalar Sequent algorithm, driven by the same program,
     agrees on every counter too (same chains, same per-chain cache). *)
  let scalar =
    Demux.Sequent.create ~chains ~hasher:Hashing.Hashers.multiplicative ()
  in
  Array.iteri
    (fun i (o : Check.Op.op) ->
      match o.Check.Op.kind with
      | Check.Op.Insert -> ignore (Demux.Sequent.insert scalar o.Check.Op.flow i)
      | Check.Op.Remove -> ignore (Demux.Sequent.remove scalar o.Check.Op.flow)
      | _ -> ignore (Demux.Sequent.lookup scalar o.Check.Op.flow))
    ops;
  let scalar_stats = Demux.Lookup_stats.snapshot (Demux.Sequent.stats scalar) in
  Alcotest.(check bool) "scalar Sequent stats match" true
    (scalar_stats = merged)

let test_batch_accounting_equals_scalar () =
  (* A burst demultiplexed through lookup_batch must charge exactly
     what the per-packet path charges — same examined counts, same
     cache hits — plus only the batch markers. *)
  let population = Array.init 300 flow in
  let make () =
    let t = Parallel.Striped.create ~chains:19 () in
    Array.iteri (fun i f -> ignore (Parallel.Striped.insert t f i)) population;
    t
  in
  let rng = Numerics.Rng.create ~seed:11 in
  let burst =
    Array.init 4_096 (fun _ ->
        (* 1 in 8 is a miss: a flow outside the resident population. *)
        let i = Numerics.Rng.int rng ~bound:(300 * 8 / 7) in
        flow i)
  in
  let scalar = make () in
  let scalar_found = ref 0 in
  Array.iter
    (fun f ->
      match Parallel.Striped.lookup scalar f with
      | Some _ -> incr scalar_found
      | None -> ())
    burst;
  let batched = make () in
  let batched_found = Parallel.Striped.lookup_batch batched burst in
  Alcotest.(check int) "same hits" !scalar_found batched_found;
  let s = Parallel.Striped.stats scalar
  and b = Parallel.Striped.stats batched in
  Alcotest.(check int) "lookups" s.Demux.Lookup_stats.lookups
    b.Demux.Lookup_stats.lookups;
  Alcotest.(check int) "pcbs_examined" s.Demux.Lookup_stats.pcbs_examined
    b.Demux.Lookup_stats.pcbs_examined;
  Alcotest.(check int) "cache_hits" s.Demux.Lookup_stats.cache_hits
    b.Demux.Lookup_stats.cache_hits;
  Alcotest.(check int) "found" s.Demux.Lookup_stats.found
    b.Demux.Lookup_stats.found;
  Alcotest.(check int) "not_found" s.Demux.Lookup_stats.not_found
    b.Demux.Lookup_stats.not_found;
  Alcotest.(check int) "max_examined" s.Demux.Lookup_stats.max_examined
    b.Demux.Lookup_stats.max_examined;
  Alcotest.(check int) "scalar path has no batches" 0
    s.Demux.Lookup_stats.batches;
  Alcotest.(check bool) "batched path marked batches" true
    (b.Demux.Lookup_stats.batches > 0)

(* ------------------------------------------------------------------ *)
(* Epoch table: lockstep determinism and the grace-period audit        *)

module E = Epoch.Packed.Heap

let apply_epoch table (o : Check.Op.op) index =
  let w0 = Packet.Flow.w0 o.Check.Op.flow
  and w1 = Packet.Flow.w1 o.Check.Op.flow in
  match o.Check.Op.kind with
  | Check.Op.Insert ->
    E.replace table ~w0 ~w1 index;
    Inserted
  | Check.Op.Remove ->
    let prior = E.find_opt table ~w0 ~w1 in
    E.remove table ~w0 ~w1;
    Removed prior
  | Check.Op.Lookup | Check.Op.Ack_lookup | Check.Op.Send ->
    Found (E.find_opt table ~w0 ~w1)

let test_epoch_four_domain_lockstep () =
  let domains = 4 in
  let ops = churn_ops ~pool:200 ~ops:8_000 ~seed:35 in
  let n = Array.length ops in
  (* Single-domain reference run of the same driver. *)
  let reference = E.create () in
  let expected = Array.mapi (fun i o -> apply_epoch reference o i) ops in
  (* 4-domain run: domain d owns the flows hashing to bucket d and
     applies its ops in program order, so every per-flow op sequence
     is exactly the single-domain one.  Writers serialize on the
     table's writer mutex and readers are lock-free, but a flow's
     presence depends only on its own op sequence — so every result
     and the merged stats must come out identical (the table charges
     exactly one examination per lookup, an order-independent
     discipline). *)
  let table = E.create () in
  let results = Array.make n Inserted in
  let owner_of (o : Check.Op.op) =
    Hashing.Hashers.bucket_flow Hashing.Hashers.multiplicative
      ~buckets:domains o.Check.Op.flow
  in
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            Array.iteri
              (fun i o ->
                if owner_of o = d then results.(i) <- apply_epoch table o i)
              ops))
  in
  List.iter Domain.join workers;
  for i = 0 to n - 1 do
    if results.(i) <> expected.(i) then
      Alcotest.fail (Printf.sprintf "op %d diverged from single-domain run" i)
  done;
  let merged = E.stats table
  and single = E.stats reference in
  Alcotest.(check bool) "merged stats match single-domain run" true
    (merged = single);
  (* Every region the concurrent run retired is reclaimable once the
     workers are gone. *)
  E.quiesce table;
  Alcotest.(check int) "retire backlog drained" 0 (E.pending table);
  (* The scalar Sequent algorithm, driven by the same program, returns
     the same payload for every op — same per-flow histories — and
     agrees on the result-derived counters (examined counts differ by
     design: Sequent charges chain positions, the epoch table charges
     one probe). *)
  let scalar =
    Demux.Sequent.create ~chains:19 ~hasher:Hashing.Hashers.multiplicative ()
  in
  Array.iteri
    (fun i (o : Check.Op.op) ->
      let r =
        match o.Check.Op.kind with
        | Check.Op.Insert ->
          ignore (Demux.Sequent.insert scalar o.Check.Op.flow i);
          Inserted
        | Check.Op.Remove ->
          Removed
            (Option.map
               (fun pcb -> pcb.Demux.Pcb.data)
               (Demux.Sequent.remove scalar o.Check.Op.flow))
        | Check.Op.Lookup | Check.Op.Ack_lookup | Check.Op.Send ->
          Found
            (Option.map
               (fun pcb -> pcb.Demux.Pcb.data)
               (Demux.Sequent.lookup scalar o.Check.Op.flow))
      in
      if r <> expected.(i) then
        Alcotest.fail
          (Printf.sprintf "op %d: scalar Sequent result diverged" i))
    ops;
  let scalar_stats = Demux.Lookup_stats.snapshot (Demux.Sequent.stats scalar) in
  Alcotest.(check int) "inserts match scalar Sequent"
    scalar_stats.Demux.Lookup_stats.inserts merged.Demux.Lookup_stats.inserts;
  Alcotest.(check int) "removes match scalar Sequent"
    scalar_stats.Demux.Lookup_stats.removes merged.Demux.Lookup_stats.removes

let test_epoch_audit_real_table_passes () =
  let r = Check.Epoch_audit.run (module E) in
  Alcotest.(check int) "pinned view answers every probe" 0
    r.Check.Epoch_audit.wrong;
  Alcotest.(check bool) "retire backlog visible while pinned" true
    (r.Check.Epoch_audit.pending_while_pinned > 0);
  Alcotest.(check int) "backlog drains at quiesce" 0
    r.Check.Epoch_audit.pending_after_quiesce;
  Alcotest.(check bool) "audit passes" true (Check.Epoch_audit.passed r)

let test_epoch_audit_catches_buggy_epoch () =
  let r = Check.Epoch_audit.run (module Check.Plant.Epoch_table) in
  (* The planted bug scrubs the pinned region at publish time, so the
     pinned view misses every flow that was resident — a total, not a
     partial, failure — and nothing is ever deferred. *)
  Alcotest.(check int) "pinned view lost every resident"
    r.Check.Epoch_audit.probed r.Check.Epoch_audit.wrong;
  Alcotest.(check bool) "probes happened" true
    (r.Check.Epoch_audit.probed > 0);
  Alcotest.(check int) "nothing deferred while pinned" 0
    r.Check.Epoch_audit.pending_while_pinned;
  Alcotest.(check bool) "audit fails" false (Check.Epoch_audit.passed r)

let test_corpus_epoch_reclaim () =
  (* The pinned program's first seven ops build a capacity-8 region;
     the rest churns across all three growth boundaries (populations
     8, 15, 29) with removes and re-inserts in flight.  Replaying it
     against every subject is covered by the replays-clean test; this
     one replays it onto a bare Epoch.Packed.Heap with a view pinned after
     the seventh insert — the reader that outlives every region the
     writer retires — and checks the view still answers with the
     pin-time payloads even for flows the churn removed or rebound. *)
  let program = load_corpus "epoch-reclaim.prog" in
  let ops = program.Check.Op.ops in
  let table = E.create () in
  let split = 7 in
  for i = 0 to split - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "op %d is an insert" i)
      true
      (ops.(i).Check.Op.kind = Check.Op.Insert);
    ignore (apply_epoch table ops.(i) i)
  done;
  let resident = ref [] in
  E.iter
    (fun ~w0 ~w1 v -> resident := (w0, w1, v) :: !resident)
    table;
  Alcotest.(check int) "seven residents at pin time" split
    (List.length !resident);
  let view = E.pin table in
  for i = split to Array.length ops - 1 do
    ignore (apply_epoch table ops.(i) i)
  done;
  Alcotest.(check bool) "crossed all three growth boundaries" true
    (E.capacity table >= 64);
  Alcotest.(check bool) "writer retired regions across the pin" true
    (E.pending table > 0);
  List.iter
    (fun (w0, w1, v) ->
      match E.view_find view ~w0 ~w1 with
      | Some v' when v' = v -> ()
      | _ -> Alcotest.fail "pinned view lost a pin-time resident")
    !resident;
  E.unpin table;
  E.quiesce table;
  Alcotest.(check int) "backlog drains after unpin" 0
    (E.pending table)

(* ------------------------------------------------------------------ *)
(* Cross-validation and the report                                     *)

let test_xval_grid_passes () =
  let outcome = Check.Xval.run ~duration:40.0 ~seed:42 () in
  Alcotest.(check int) "full grid" 18 (List.length outcome.Check.Xval.cells);
  List.iter
    (fun (c : Check.Xval.cell) ->
      if not c.Check.Xval.pass then
        Alcotest.fail
          (Printf.sprintf "%s at N=%d out of tolerance (ratio %.3f)"
             c.Check.Xval.algorithm c.Check.Xval.users c.Check.Xval.ratio))
    outcome.Check.Xval.cells;
  Alcotest.(check bool) "passed" true outcome.Check.Xval.passed;
  (* The grid covers >= 3 populations and >= 3 chain counts. *)
  let distinct f =
    List.sort_uniq compare (List.filter_map f outcome.Check.Xval.cells)
  in
  Alcotest.(check bool) "3 populations" true
    (List.length (distinct (fun c -> Some c.Check.Xval.users)) >= 3);
  Alcotest.(check bool) "3 chain counts" true
    (List.length (distinct (fun c -> c.Check.Xval.chains)) >= 3)

let test_report_round_trip () =
  let summary, failures =
    Check.Fuzz.campaign ~profiles:[ Check.Fuzz.Uniform ]
      ~programs_per_profile:1 ~ops:64 ~pool:16
      ~subjects:[ (fun () -> Check.Subject.of_spec Demux.Registry.Bsd) ]
      ~seed:4 ()
  in
  let report = Check.Report.v ~seed:4 summary failures in
  Alcotest.(check bool) "passed" true (Check.Report.passed report);
  let path = Filename.temp_file "tcpdemux-check" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Check.Report.write path report;
      match Check.Report.validate_file path with
      | Ok () -> ()
      | Error message -> Alcotest.fail message)

let test_report_rejects_failures () =
  (* A report carrying a mismatch must not validate. *)
  let mismatch =
    { Check.Diff.subject = "bsd"; step = 3; op = None; what = "synthetic" }
  in
  let summary =
    { Check.Diff.subjects = [ "bsd" ]; programs = 1; ops = 10;
      mismatches = [ mismatch ] }
  in
  let report = Check.Report.v ~seed:1 summary [] in
  Alcotest.(check bool) "not passed" false (Check.Report.passed report);
  let path = Filename.temp_file "tcpdemux-check" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Check.Report.write path report;
      match Check.Report.validate_file path with
      | Ok () -> Alcotest.fail "failing report validated"
      | Error _ -> ());
  match Check.Report.validate_file "no-such-file.json" with
  | Ok () -> Alcotest.fail "missing report validated"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Chaos replay audit                                                  *)

let test_chaos_audit_all_scenarios () =
  (* Small but real: every fault scenario through the worker pool, each
     run's worker logs replayed against the oracle.  Degradation may
     shed work; it may not corrupt state or lose accounting — zero
     mismatches across the board. *)
  let t = Check.Chaos.run ~workers:2 ~ops:4_000 ~seed:17 () in
  Alcotest.(check int) "every scenario ran"
    (List.length Check.Chaos.all)
    (List.length t.Check.Chaos.outcomes);
  List.iter
    (fun (o : Check.Chaos.scenario_outcome) ->
      let r = o.Check.Chaos.result in
      (match o.Check.Chaos.mismatches with
      | [] -> ()
      | m :: _ ->
        Alcotest.fail
          (Format.asprintf "%s: %a"
             (Check.Chaos.scenario_name r.Check.Chaos.scenario)
             Check.Diff.pp_mismatch m));
      Alcotest.(check int)
        (Check.Chaos.scenario_name r.Check.Chaos.scenario ^ " conservation")
        r.Check.Chaos.offered
        (r.Check.Chaos.delivered + r.Check.Chaos.dropped_ops
        + r.Check.Chaos.rejected_ops))
    t.Check.Chaos.outcomes;
  Alcotest.(check bool) "audit passed" true (Check.Chaos.passed t)

(* A recorded run, doctored one way per case: the audit must name each
   fault, and pass the run as recorded.  At this size mid-run growth's
   rings hold the whole script and its tiers never engage, so every op
   is applied and the logged outcomes repeat run to run. *)
let test_chaos_audit_catches_doctored_runs () =
  let o =
    Check.Chaos.run_scenario ~workers:2 ~ops:4_000 ~seed:29
      Check.Chaos.Mid_run_growth
  in
  let r = o.Check.Chaos.result in
  Alcotest.(check int) "the run as recorded audits clean" 0
    (List.length o.Check.Chaos.mismatches);
  (* The first event, in log order, that [pick] accepts. *)
  let find pick =
    let found = ref None in
    Array.iteri
      (fun w log ->
        Array.iteri
          (fun i (ev : Check.Chaos.event) ->
            if !found = None && pick w ev then found := Some (w, i))
          log)
      r.Check.Chaos.logs;
    match !found with
    | Some at -> at
    | None -> Alcotest.fail "no event to doctor in the recorded run"
  in
  let with_log w log =
    let logs = Array.copy r.Check.Chaos.logs in
    logs.(w) <- log;
    logs
  in
  let without (w, i) =
    let log = r.Check.Chaos.logs.(w) in
    with_log w
      (Array.append (Array.sub log 0 i)
         (Array.sub log (i + 1) (Array.length log - i - 1)))
  in
  let lookup _ (ev : Check.Chaos.event) =
    match ev.Check.Chaos.outcome with
    | Check.Chaos.Found _ | Check.Chaos.Missed -> true
    | _ -> false
  in
  let flags label expected doctored =
    match Check.Chaos.audit doctored with
    | [ m ] ->
      let what = m.Check.Diff.what in
      if
        not
          (String.length what >= String.length expected
          && String.sub what 0 (String.length expected) = expected)
      then Alcotest.failf "%s: flagged %S, want %S..." label what expected
    | [] -> Alcotest.failf "%s: the audit passed a doctored run" label
    | _ -> Alcotest.failf "%s: more than one mismatch" label
  in
  (* An applied lookup missing from its worker's log: the replay stays
     consistent, and the logs no longer account for every op. *)
  flags "event dropped from a log" "conservation:"
    { r with Check.Chaos.logs = without (find lookup) };
  (* The same event shed instead, by the producer alone. *)
  flags "tier drop missing from the controller's ledger"
    "ledgers disagree: producer dropped"
    { r with
      Check.Chaos.logs = without (find lookup);
      dropped_ops = r.Check.Chaos.dropped_ops + 1 };
  (* A lookup that saw another op's payload. *)
  let w, i =
    find (fun _ (ev : Check.Chaos.event) ->
        match ev.Check.Chaos.outcome with
        | Check.Chaos.Found _ -> true
        | _ -> false)
  in
  let log = Array.copy r.Check.Chaos.logs.(w) in
  (match log.(i) with
  | { Check.Chaos.outcome = Check.Chaos.Found v; op } ->
    log.(i) <- { Check.Chaos.op; outcome = Check.Chaos.Found (v + 1) }
  | _ -> assert false);
  flags "stale payload" "lookup of"
    { r with Check.Chaos.logs = with_log w log };
  (* The last op of a flow that worker 0 applied more than once, moved
     to the end of worker 1's log.  Replayed in log order, the flow's
     ops still run in their order, so only the ownership check can see
     it. *)
  let flow_of (ev : Check.Chaos.event) = ev.Check.Chaos.op.Check.Chaos.flow in
  let ops_of flow =
    List.filter
      (fun k -> Packet.Flow.equal (flow_of r.Check.Chaos.logs.(0).(k)) flow)
      (List.init (Array.length r.Check.Chaos.logs.(0)) Fun.id)
  in
  let _, i =
    find (fun w ev -> w = 0 && List.length (ops_of (flow_of ev)) > 1)
  in
  let flow = flow_of r.Check.Chaos.logs.(0).(i) in
  let last = List.fold_left max i (ops_of flow) in
  let logs = without (0, last) in
  logs.(1) <- Array.append logs.(1) [| r.Check.Chaos.logs.(0).(last) |];
  flags "one flow split across two workers"
    (Printf.sprintf "ops on %s applied by workers 0 and 1"
       (Packet.Flow.to_string flow))
    { r with Check.Chaos.logs }

let test_chaos_report_round_trip () =
  let t = Check.Chaos.run ~workers:2 ~ops:2_000 ~seed:23 () in
  let path = Filename.temp_file "chaos" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Check.Chaos.write path t;
      match Check.Chaos.validate_file path with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("chaos report rejected: " ^ e))

(* ------------------------------------------------------------------ *)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "check"
    [ ( "op",
        [ quick "print/parse round trip" test_op_round_trip_unit;
          quick "parse errors" test_op_parse_errors;
          QCheck_alcotest.to_alcotest qcheck_op_round_trip ] );
      ( "diff",
        [ quick "all algorithms agree with the oracle"
            test_diff_all_algorithms_clean;
          quick "deterministic" test_diff_is_deterministic;
          quick "obs counters" test_diff_obs_counters ] );
      ( "corpus",
        [ quick "replays clean on every subject" test_corpus_replays_clean;
          quick "robin-hood program is a displacement cluster"
            test_corpus_robin_hood_is_a_cluster;
          quick "robin-hood program catches the buggy table"
            test_corpus_robin_hood_catches_buggy_table;
          quick "guarded program sheds and still matches"
            test_corpus_guarded_sheds;
          quick "cuckoo-kick program crosses the kick/stash boundary"
            test_corpus_cuckoo_kick_crosses_stash ] );
      ( "fuzz",
        [ quick "planted bug caught, shrunk, replayable"
            test_fuzzer_catches_planted_bug;
          QCheck_alcotest.to_alcotest qcheck_shrink_properties;
          quick "campaign reports the failure"
            test_campaign_reports_planted_bug ] );
      ( "guarded",
        [ quick "eviction sets predicted by the shadow guard"
            test_guarded_eviction_sets_match;
          quick "evictions during incremental resize"
            test_guarded_eviction_during_resize ] );
      ( "parallel",
        [ quick "4-domain lockstep equals single domain"
            test_striped_four_domain_lockstep;
          quick "batch accounting equals scalar"
            test_batch_accounting_equals_scalar ] );
      ( "epoch",
        [ quick "4-domain lockstep equals single domain"
            test_epoch_four_domain_lockstep;
          quick "grace-period audit passes the real table"
            test_epoch_audit_real_table_passes;
          quick "grace-period audit catches the planted bug"
            test_epoch_audit_catches_buggy_epoch;
          quick "pinned reader survives the corpus churn"
            test_corpus_epoch_reclaim ] );
      ( "chaos",
        [ quick "every scenario audits clean" test_chaos_audit_all_scenarios;
          quick "audit catches doctored runs"
            test_chaos_audit_catches_doctored_runs;
          quick "report write/validate round trip"
            test_chaos_report_round_trip ] );
      ( "xval",
        [ quick "grid within tolerance" test_xval_grid_passes ] );
      ( "report",
        [ quick "write/validate round trip" test_report_round_trip;
          quick "rejects failures and missing files"
            test_report_rejects_failures ] ) ]
