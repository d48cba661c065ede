(* The off-heap storage stack (DESIGN.md section 14): Storage backends,
   Packed_table over Bigarray slots, and Epoch.Packed's eager
   reclaim-time free.

   The differential campaign already replays every corpus program and
   fuzz profile against the offheap-table subject (test_check.ml, 18
   subjects); this file owns what the oracle cannot see — the
   Hashtbl-model agreement over both resize policies and degenerate
   hashes, the pending-migration accounting invariant, the
   zero-allocation warm hit, byte accounting, and the copy-on-write
   table's storage lifecycle. *)

let flow i = Sim.Topology.flow_of_client i

let words i =
  let f = flow i in
  (Packet.Flow.w0 f, Packet.Flow.w1 f)

(* ------------------------------------------------------------------ *)
(* Storage: the slot-buffer contract both backends must meet           *)

let backends : (module Demux.Storage.S) list =
  [ (module Demux.Storage.Heap); (module Demux.Storage.Offheap) ]

let test_storage_round_trip () =
  List.iter
    (fun (module St : Demux.Storage.S) ->
      let s = St.create ~capacity:8 in
      let check_int label = Alcotest.(check int) (St.backend ^ ": " ^ label) in
      check_int "capacity" 8 (St.capacity s);
      check_int "mask" 7 (St.mask s);
      check_int "bytes" (8 * St.bytes_per_slot) (St.bytes s);
      (* Fresh slots read empty. *)
      check_int "fresh tag" 0 (St.tag s 3);
      check_int "fresh value" 0 (St.value s 3);
      St.set_tag s 3 77;
      St.set_hash s 3 123456789;
      St.set_words s 3 ~w0:max_int ~w1:1;
      St.set_value s 3 (-42);
      check_int "tag" 77 (St.tag s 3);
      check_int "hash" 123456789 (St.hash s 3);
      check_int "w0" max_int (St.w0 s 3);
      check_int "w1" 1 (St.w1 s 3);
      check_int "value" (-42) (St.value s 3);
      (* A deep copy carries every lane and is independent of the
         original afterwards. *)
      let c = St.copy s in
      check_int "copied tag" 77 (St.tag c 3);
      check_int "copied w0" max_int (St.w0 c 3);
      check_int "copied value" (-42) (St.value c 3);
      St.set_tag s 3 99;
      check_int "copy unaffected by source writes" 77 (St.tag c 3);
      (* reset empties the region without shrinking it. *)
      St.reset s;
      check_int "reset tag" 0 (St.tag s 3);
      check_int "reset capacity" 8 (St.capacity s);
      check_int "copy survives source reset" 77 (St.tag c 3))
    backends

let test_storage_scrub_and_free () =
  List.iter
    (fun (module St : Demux.Storage.S) ->
      let s = St.create ~capacity:8 in
      St.set_tag s 2 9;
      St.set_hash s 2 55;
      St.set_value s 2 7;
      St.scrub s;
      (* Scrubbed slots are poisoned with the dead tag and zeroed
         payload: a stale probe can only see a deterministic miss. *)
      Alcotest.(check int)
        (St.backend ^ ": scrubbed tag") Demux.Storage.dead_tag (St.tag s 2);
      Alcotest.(check int) (St.backend ^ ": scrubbed hash") 0 (St.hash s 2);
      Alcotest.(check int) (St.backend ^ ": scrubbed value") 0 (St.value s 2);
      St.free s;
      (* A freed store degrades to the shared empty sentinel: mask 0
         collapses every probe to slot 0, whose tag never matches. *)
      Alcotest.(check int) (St.backend ^ ": freed mask") 0 (St.mask s);
      Alcotest.(check int) (St.backend ^ ": freed tag") 0 (St.tag s 0);
      (* Double free is a no-op, not a crash. *)
      St.free s)
    backends

let test_storage_validation_and_names () =
  List.iter
    (fun (module St : Demux.Storage.S) ->
      Alcotest.check_raises
        (St.backend ^ ": non-power-of-two capacity")
        (Invalid_argument "Storage.create: capacity must be a positive power \
                           of two") (fun () -> ignore (St.create ~capacity:6)))
    backends;
  let name (module St : Demux.Storage.S) = St.backend in
  Alcotest.(check (option string))
    "by_name heap" (Some "heap")
    (Option.map name (Demux.Storage.by_name "heap"));
  Alcotest.(check (option string))
    "by_name offheap" (Some "offheap")
    (Option.map name (Demux.Storage.by_name "offheap"));
  Alcotest.(check bool)
    "by_name unknown" true
    (Demux.Storage.by_name "mmap" = None)

(* ------------------------------------------------------------------ *)
(* Packed_table (offheap): Hashtbl-model agreement                     *)

type op = P_insert of int | P_remove of int | P_find of int

let arbitrary_ops =
  let open QCheck.Gen in
  let op =
    frequency
      [ (4, map (fun i -> P_insert i) (int_bound 60));
        (2, map (fun i -> P_remove i) (int_bound 60));
        (5, map (fun i -> P_find i) (int_bound 60)) ]
  in
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | P_insert i -> Printf.sprintf "I%d" i
             | P_remove i -> Printf.sprintf "R%d" i
             | P_find i -> Printf.sprintf "F%d" i)
           ops))
    (list_size (int_range 1 300) op)

(* Same discipline as test_demux's flat-table model property, but over
   a storage backend and an explicit resize policy — and with the
   pending-migration accounting invariant checked after every single
   op, since the draining old region is live during most of a random
   program under the incremental policy. *)
let model_agreement (module M : Demux.Packed_table.S) ?hash ~resize ops =
  let table = M.create ?hash ~initial_capacity:8 ~resize () in
  let model = Hashtbl.create 16 in
  List.for_all
    (fun op ->
      let healthy =
        match op with
        | P_insert i ->
          let w0, w1 = words i in
          M.replace table ~w0 ~w1 i;
          Hashtbl.replace model i i;
          M.find_opt table ~w0 ~w1 = Some i
        | P_remove i ->
          let w0, w1 = words i in
          M.remove table ~w0 ~w1;
          Hashtbl.remove model i;
          M.find_opt table ~w0 ~w1 = None && not (M.mem table ~w0 ~w1)
        | P_find i ->
          let w0, w1 = words i in
          M.find_opt table ~w0 ~w1 = Hashtbl.find_opt model i
          && (match M.find table ~w0 ~w1 with
             | v -> Hashtbl.find_opt model i = Some v
             | exception Not_found -> Hashtbl.find_opt model i = None)
      in
      healthy
      && M.pending_migration table >= 0
      && M.length table = Hashtbl.length model)
    ops
  && M.fold (fun ~w0:_ ~w1:_ _ n -> n + 1) table 0 = Hashtbl.length model

let prop_offheap_model_both_policies =
  QCheck.Test.make ~count:200
    ~name:"offheap packed table agrees with Hashtbl model (both policies)"
    arbitrary_ops
    (fun ops ->
      model_agreement
        (module Demux.Packed_table.Offheap)
        ~resize:Demux.Flat_table.Incremental ops
      && model_agreement
           (module Demux.Packed_table.Offheap)
           ~resize:Demux.Flat_table.Doubling ops)

let prop_offheap_model_degenerate_hash =
  QCheck.Test.make ~count:100
    ~name:"offheap packed table agrees with model under forced collisions"
    arbitrary_ops
    (fun ops ->
      model_agreement
        (module Demux.Packed_table.Offheap)
        ~hash:(fun _ _ -> 0)
        ~resize:Demux.Flat_table.Incremental ops
      && model_agreement
           (module Demux.Packed_table.Offheap)
           ~hash:(fun w0 _ -> w0 land 3)
           ~resize:Demux.Flat_table.Incremental ops)

let run_ops (module M : Demux.Packed_table.S) ~resize ops =
  let table = M.create ~initial_capacity:8 ~resize () in
  List.iter
    (function
      | P_insert i ->
        let w0, w1 = words i in
        M.replace table ~w0 ~w1 i
      | P_remove i ->
        let w0, w1 = words i in
        M.remove table ~w0 ~w1
      | P_find i ->
        let w0, w1 = words i in
        ignore (M.find_opt table ~w0 ~w1))
    ops;
  List.sort compare
    (M.fold (fun ~w0 ~w1 v acc -> (w0, w1, v) :: acc) table [])

let prop_backends_agree =
  QCheck.Test.make ~count:150
    ~name:"heap and offheap backends reach identical contents"
    arbitrary_ops
    (fun ops ->
      let heap_i =
        run_ops (module Demux.Packed_table.Heap)
          ~resize:Demux.Flat_table.Incremental ops
      in
      let off_i =
        run_ops (module Demux.Packed_table.Offheap)
          ~resize:Demux.Flat_table.Incremental ops
      in
      let off_d =
        run_ops (module Demux.Packed_table.Offheap)
          ~resize:Demux.Flat_table.Doubling ops
      in
      heap_i = off_i && off_i = off_d)

(* ------------------------------------------------------------------ *)
(* Packed_table (offheap): resize machinery over Bigarray slots        *)

let test_offheap_grows_across_boundaries () =
  let table =
    Demux.Packed_table.Offheap.create ~initial_capacity:8
      ~resize:Demux.Flat_table.Incremental ()
  in
  for i = 0 to 59 do
    let w0, w1 = words i in
    Demux.Packed_table.Offheap.replace table ~w0 ~w1 i
  done;
  Alcotest.(check int) "length" 60 (Demux.Packed_table.Offheap.length table);
  Alcotest.(check bool) "crossed the 8/15/29 triggers" true
    (Demux.Packed_table.Offheap.resizes table >= 3);
  for i = 0 to 59 do
    let w0, w1 = words i in
    Alcotest.(check int)
      (Printf.sprintf "key %d survives growth" i)
      i
      (Demux.Packed_table.Offheap.find table ~w0 ~w1)
  done;
  (* The drain terminates: enough further mutations bring the old
     region to zero and free its buffers. *)
  let spin = ref 0 in
  while Demux.Packed_table.Offheap.pending_migration table > 0 do
    incr spin;
    if !spin > 1000 then Alcotest.fail "drain did not terminate";
    let w0, w1 = words 0 in
    Demux.Packed_table.Offheap.replace table ~w0 ~w1 0
  done;
  Alcotest.(check int)
    "drained bytes = one region"
    (Demux.Packed_table.Offheap.capacity table
    * Demux.Storage.Offheap.bytes_per_slot)
    (Demux.Packed_table.Offheap.bytes table)

let test_offheap_no_resurrection_across_resize () =
  (* The offheap-churn corpus scenario, asserted directly: remove a
     key resident in the draining old region, re-insert it (lands in
     the new region), remove it again — the second remove must not
     re-kill the dead-marked old slot, and the key must stay gone. *)
  let module M = Demux.Packed_table.Offheap in
  let table =
    M.create ~initial_capacity:8 ~resize:Demux.Flat_table.Incremental ()
  in
  for i = 0 to 7 do
    let w0, w1 = words i in
    M.replace table ~w0 ~w1 i
  done;
  Alcotest.(check bool) "old region draining" true
    (M.pending_migration table > 0);
  let w0, w1 = words 0 in
  M.remove table ~w0 ~w1;
  Alcotest.(check bool) "gone" true (M.find_opt table ~w0 ~w1 = None);
  M.replace table ~w0 ~w1 100;
  Alcotest.(check (option int)) "re-insert visible" (Some 100)
    (M.find_opt table ~w0 ~w1);
  M.remove table ~w0 ~w1;
  Alcotest.(check bool) "gone again, not resurrected" true
    (M.find_opt table ~w0 ~w1 = None && not (M.mem table ~w0 ~w1));
  Alcotest.(check bool) "accounting stayed non-negative" true
    (M.pending_migration table >= 0)

let test_offheap_clear_releases_storage () =
  let module M = Demux.Packed_table.Offheap in
  let table =
    M.create ~initial_capacity:8 ~resize:Demux.Flat_table.Incremental ()
  in
  for i = 0 to 40 do
    let w0, w1 = words i in
    M.replace table ~w0 ~w1 i
  done;
  M.clear table;
  Alcotest.(check int) "empty" 0 (M.length table);
  Alcotest.(check int) "no drain after clear" 0 (M.pending_migration table);
  (* clear frees any draining old region: only the (still-grown)
     current region remains resident. *)
  Alcotest.(check int)
    "bytes = one region"
    (M.capacity table * Demux.Storage.Offheap.bytes_per_slot)
    (M.bytes table);
  let w0, w1 = words 3 in
  Alcotest.(check bool) "cleared keys miss" true (M.find_opt table ~w0 ~w1 = None);
  M.replace table ~w0 ~w1 3;
  Alcotest.(check (option int)) "usable after clear" (Some 3)
    (M.find_opt table ~w0 ~w1)

let measure_minor_words iterations f =
  let before = Gc.minor_words () in
  for _ = 1 to iterations do
    f ()
  done;
  Gc.minor_words () -. before

let test_offheap_find_zero_alloc () =
  let module M = Demux.Packed_table.Offheap in
  let table = M.create () in
  for i = 0 to 255 do
    let w0, w1 = words i in
    M.replace table ~w0 ~w1 i
  done;
  let w0, w1 = words 17 in
  ignore (M.find table ~w0 ~w1);
  let delta =
    measure_minor_words 10_000 (fun () -> ignore (M.find table ~w0 ~w1))
  in
  Alcotest.(check bool)
    (Printf.sprintf "offheap find allocates nothing (minor-words delta %.0f)"
       delta)
    true (delta <= 64.0)

(* ------------------------------------------------------------------ *)
(* Epoch.Packed: copy-on-write over off-heap regions                   *)

let test_epoch_packed_read_write_agreement () =
  let module E = Epoch.Packed.Offheap in
  let t = E.create () in
  E.load t
    (Array.init 64 (fun i ->
         let w0, w1 = words i in
         (w0, w1, i * 3)));
  Alcotest.(check int) "length" 64 (E.length t);
  for i = 0 to 63 do
    let w0, w1 = words i in
    Alcotest.(check int)
      (Printf.sprintf "get %d" i)
      (i * 3)
      (E.get t ~w0 ~w1 ~default:(-1));
    Alcotest.(check (option int))
      (Printf.sprintf "find_opt %d" i)
      (Some (i * 3))
      (E.find_opt t ~w0 ~w1)
  done;
  Alcotest.(check (option int)) "find_flow hit" (Some 51)
    (E.find_flow t (flow 17));
  let w0, w1 = words 1000 in
  Alcotest.(check int) "get miss -> default" (-1)
    (E.get t ~w0 ~w1 ~default:(-1));
  Alcotest.(check bool) "mem miss" false (E.mem t ~w0 ~w1);
  E.remove t ~w0:(fst (words 5)) ~w1:(snd (words 5));
  Alcotest.(check (option int)) "removed" None
    (E.find_opt t ~w0:(fst (words 5)) ~w1:(snd (words 5)));
  Alcotest.(check int) "length after remove" 63 (E.length t)

let test_epoch_packed_eager_free () =
  let module E = Epoch.Packed.Offheap in
  let t = E.create ~initial_capacity:8 () in
  (* Enough inserts to force several copy-publish-retire growths. *)
  for i = 0 to 99 do
    let w0, w1 = words i in
    E.replace t ~w0 ~w1 i
  done;
  (* Every replace copy-publishes and retires the previous region;
     with no pinned readers the writer's inline reclaim frees each one
     immediately, so nothing accumulates. *)
  Alcotest.(check bool) "published per mutation" true (E.publishes t >= 100);
  E.quiesce t;
  Alcotest.(check int) "all retirements reclaimed" 0 (E.pending t);
  (* bytes reports only the live published region after reclaim. *)
  Alcotest.(check int)
    "bytes = published region"
    (E.capacity t * Demux.Storage.Offheap.bytes_per_slot)
    (E.bytes t);
  for i = 0 to 99 do
    let w0, w1 = words i in
    Alcotest.(check int)
      (Printf.sprintf "key %d survives reclaim" i)
      i
      (E.get t ~w0 ~w1 ~default:(-1))
  done

let test_epoch_packed_get_zero_alloc () =
  let module E = Epoch.Packed.Offheap in
  let t = E.create () in
  E.load t
    (Array.init 256 (fun i ->
         let w0, w1 = words i in
         (w0, w1, i)));
  let w0, w1 = words 17 in
  ignore (E.get t ~w0 ~w1 ~default:(-1));
  let delta =
    measure_minor_words 10_000 (fun () ->
        ignore (E.get t ~w0 ~w1 ~default:(-1)))
  in
  Alcotest.(check bool)
    (Printf.sprintf "epoch get allocates nothing (minor-words delta %.0f)"
       delta)
    true (delta <= 64.0)

let test_epoch_packed_backends_agree () =
  let seed_ops (module E : Epoch.Packed.S) =
    let t = E.create () in
    for i = 0 to 49 do
      let w0, w1 = words i in
      E.replace t ~w0 ~w1 i
    done;
    for i = 0 to 9 do
      let w0, w1 = words (i * 5) in
      E.remove t ~w0 ~w1
    done;
    let acc = ref [] in
    E.iter (fun ~w0 ~w1 v -> acc := (w0, w1, v) :: !acc) t;
    List.sort compare !acc
  in
  Alcotest.(check bool) "heap and offheap epoch tables agree" true
    (seed_ops (module Epoch.Packed.Heap)
    = seed_ops (module Epoch.Packed.Offheap))

(* ------------------------------------------------------------------ *)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_offheap_model_both_policies; prop_offheap_model_degenerate_hash;
      prop_backends_agree ]

let () =
  Alcotest.run "offheap"
    [ ( "storage",
        [ Alcotest.test_case "slot round trip" `Quick test_storage_round_trip;
          Alcotest.test_case "scrub and free" `Quick
            test_storage_scrub_and_free;
          Alcotest.test_case "validation and names" `Quick
            test_storage_validation_and_names ] );
      ( "packed-table",
        [ Alcotest.test_case "grows across boundaries" `Quick
            test_offheap_grows_across_boundaries;
          Alcotest.test_case "no resurrection across resize" `Quick
            test_offheap_no_resurrection_across_resize;
          Alcotest.test_case "clear releases storage" `Quick
            test_offheap_clear_releases_storage;
          Alcotest.test_case "warm find allocates nothing" `Quick
            test_offheap_find_zero_alloc ] );
      ("model", qcheck_cases);
      ( "epoch-packed",
        [ Alcotest.test_case "read/write agreement" `Quick
            test_epoch_packed_read_write_agreement;
          Alcotest.test_case "eager free on reclaim" `Quick
            test_epoch_packed_eager_free;
          Alcotest.test_case "get allocates nothing" `Quick
            test_epoch_packed_get_zero_alloc;
          Alcotest.test_case "backends agree" `Quick
            test_epoch_packed_backends_agree ] ) ]
