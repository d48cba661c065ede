(* Tests for the TCP substrate: the RFC 793 state machine, the
   two-level connection table, and the segment-processing stack. *)

let addr = Packet.Ipv4.addr_of_octets
let server_addr = addr 192 168 1 1
let client_addr = addr 10 0 0 1
let server_ep = Packet.Flow.endpoint server_addr 8888
let client_ep port = Packet.Flow.endpoint client_addr port

(* ------------------------------------------------------------------ *)
(* State machine                                                       *)

let state = Alcotest.testable Tcpcore.State.pp Tcpcore.State.equal

let check_transition from event expected =
  Alcotest.(check (option state))
    (Format.asprintf "%a --%a-->" Tcpcore.State.pp from Tcpcore.State.pp_event
       event)
    expected
    (Tcpcore.State.transition from event)

let test_three_way_handshake_server () =
  check_transition Tcpcore.State.Closed Tcpcore.State.Passive_open
    (Some Tcpcore.State.Listen);
  check_transition Tcpcore.State.Listen Tcpcore.State.Rcv_syn
    (Some Tcpcore.State.Syn_received);
  check_transition Tcpcore.State.Syn_received Tcpcore.State.Rcv_ack
    (Some Tcpcore.State.Established)

let test_three_way_handshake_client () =
  check_transition Tcpcore.State.Closed Tcpcore.State.Active_open
    (Some Tcpcore.State.Syn_sent);
  check_transition Tcpcore.State.Syn_sent Tcpcore.State.Rcv_syn_ack
    (Some Tcpcore.State.Established)

let test_simultaneous_open () =
  check_transition Tcpcore.State.Syn_sent Tcpcore.State.Rcv_syn
    (Some Tcpcore.State.Syn_received)

let test_active_close_path () =
  check_transition Tcpcore.State.Established Tcpcore.State.Close
    (Some Tcpcore.State.Fin_wait_1);
  check_transition Tcpcore.State.Fin_wait_1 Tcpcore.State.Rcv_ack
    (Some Tcpcore.State.Fin_wait_2);
  check_transition Tcpcore.State.Fin_wait_2 Tcpcore.State.Rcv_fin
    (Some Tcpcore.State.Time_wait);
  check_transition Tcpcore.State.Time_wait Tcpcore.State.Time_wait_expired
    (Some Tcpcore.State.Closed)

let test_passive_close_path () =
  check_transition Tcpcore.State.Established Tcpcore.State.Rcv_fin
    (Some Tcpcore.State.Close_wait);
  check_transition Tcpcore.State.Close_wait Tcpcore.State.Close
    (Some Tcpcore.State.Last_ack);
  check_transition Tcpcore.State.Last_ack Tcpcore.State.Rcv_ack
    (Some Tcpcore.State.Closed)

let test_simultaneous_close () =
  check_transition Tcpcore.State.Fin_wait_1 Tcpcore.State.Rcv_fin
    (Some Tcpcore.State.Closing);
  check_transition Tcpcore.State.Closing Tcpcore.State.Rcv_ack
    (Some Tcpcore.State.Time_wait);
  check_transition Tcpcore.State.Fin_wait_1 Tcpcore.State.Rcv_fin_ack
    (Some Tcpcore.State.Time_wait)

let test_rst_tears_down () =
  List.iter
    (fun s ->
      if not (Tcpcore.State.equal s Tcpcore.State.Closed) then
        check_transition s Tcpcore.State.Rcv_rst (Some Tcpcore.State.Closed))
    Tcpcore.State.all;
  check_transition Tcpcore.State.Closed Tcpcore.State.Rcv_rst None

let test_undefined_transitions () =
  check_transition Tcpcore.State.Closed Tcpcore.State.Rcv_fin None;
  check_transition Tcpcore.State.Established Tcpcore.State.Rcv_syn None;
  check_transition Tcpcore.State.Listen Tcpcore.State.Rcv_ack None;
  check_transition Tcpcore.State.Time_wait Tcpcore.State.Close None

let test_synchronized_states () =
  Alcotest.(check bool) "established" true
    (Tcpcore.State.is_synchronized Tcpcore.State.Established);
  Alcotest.(check bool) "time-wait" true
    (Tcpcore.State.is_synchronized Tcpcore.State.Time_wait);
  Alcotest.(check bool) "listen" false
    (Tcpcore.State.is_synchronized Tcpcore.State.Listen);
  Alcotest.(check bool) "syn-sent" false
    (Tcpcore.State.is_synchronized Tcpcore.State.Syn_sent)

let test_valid_events_consistency () =
  List.iter
    (fun s ->
      List.iter
        (fun event ->
          if Tcpcore.State.transition s event = None then
            Alcotest.failf "valid_events lied for %s" (Tcpcore.State.to_string s))
        (Tcpcore.State.valid_events s))
    Tcpcore.State.all

let prop_transitions_closed_world =
  QCheck.Test.make ~count:500 ~name:"random event walks stay in the state set"
    QCheck.(list_of_size (Gen.int_range 1 40) (int_bound 9))
    (fun walk ->
      let events =
        Tcpcore.State.
          [| Passive_open; Active_open; Close; Rcv_syn; Rcv_syn_ack; Rcv_ack;
             Rcv_fin; Rcv_fin_ack; Rcv_rst; Time_wait_expired |]
      in
      let state = ref Tcpcore.State.Closed in
      List.iter
        (fun i ->
          match Tcpcore.State.transition !state events.(i) with
          | Some next -> state := next
          | None -> ())
        walk;
      List.exists (Tcpcore.State.equal !state) Tcpcore.State.all)

(* ------------------------------------------------------------------ *)
(* Connection table                                                    *)

let flow port = Packet.Flow.v ~local:server_ep ~remote:(client_ep port)

let test_conn_table_lookup_priority () =
  let table = Tcpcore.Conn_table.create Demux.Registry.Bsd in
  Tcpcore.Conn_table.listen table ~port:8888 "listener-payload";
  (* SYN to the listening port with no connection: listener. *)
  (match Tcpcore.Conn_table.lookup table ~kind:Demux.Types.Data (flow 5000) with
  | Tcpcore.Conn_table.Listener payload ->
    Alcotest.(check string) "listener" "listener-payload" payload
  | _ -> Alcotest.fail "expected listener");
  (* Establish a connection: 4-tuple match wins over the listener. *)
  ignore (Tcpcore.Conn_table.add_connection table (flow 5000) "conn-payload");
  (match Tcpcore.Conn_table.lookup table ~kind:Demux.Types.Data (flow 5000) with
  | Tcpcore.Conn_table.Connection pcb ->
    Alcotest.(check string) "connection" "conn-payload" pcb.Demux.Pcb.data
  | _ -> Alcotest.fail "expected connection");
  (* A different remote port still reaches the listener. *)
  (match Tcpcore.Conn_table.lookup table ~kind:Demux.Types.Data (flow 5001) with
  | Tcpcore.Conn_table.Listener _ -> ()
  | _ -> Alcotest.fail "expected listener for new peer");
  (* Port without listener: no match. *)
  let other_local =
    Packet.Flow.v
      ~local:(Packet.Flow.endpoint server_addr 9999)
      ~remote:(client_ep 5000)
  in
  (match Tcpcore.Conn_table.lookup table ~kind:Demux.Types.Data other_local with
  | Tcpcore.Conn_table.No_match -> ()
  | _ -> Alcotest.fail "expected no match")

(* Words per warm lookup through the stack's default demultiplexer.
   A hit allocates only the [Connection] (2): the 4-tuple probe is the
   registry's words lookup, which answers without an option.  A
   listener fallback allocates only the [Listener] (2): it probes the
   listener table with [Hashtbl.find] on the packed local word.  A
   packing helper that boxed an endpoint or a word on this path would
   push either count past its bound. *)
let test_conn_table_warm_lookup_alloc () =
  let table =
    Tcpcore.Conn_table.create
      (Demux.Registry.Sequent
         { chains = 19; hasher = Hashing.Hashers.multiplicative })
  in
  Tcpcore.Conn_table.listen table ~port:8888 ();
  for port = 5000 to 5099 do
    ignore (Tcpcore.Conn_table.add_connection table (flow port) ())
  done;
  let check what ~bound target =
    let lookup () =
      ignore (Tcpcore.Conn_table.lookup table ~kind:Demux.Types.Data target)
    in
    lookup ();
    let before = Gc.minor_words () in
    for _ = 1 to 10_000 do
      lookup ()
    done;
    let words = (Gc.minor_words () -. before) /. 10_000.0 in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.2f words (at most %.0f)" what words bound)
      true (words <= bound)
  in
  check "hit" ~bound:2.0 (flow 5050);
  check "listener fallback" ~bound:2.0 (flow 6000)

let test_conn_table_listen_validation () =
  let table = Tcpcore.Conn_table.create Demux.Registry.Bsd in
  Tcpcore.Conn_table.listen table ~port:80 ();
  Alcotest.check_raises "duplicate listener"
    (Invalid_argument "Conn_table.listen: port already has a listener")
    (fun () -> Tcpcore.Conn_table.listen table ~port:80 ());
  Tcpcore.Conn_table.unlisten table ~port:80;
  Tcpcore.Conn_table.listen table ~port:80 ();
  Alcotest.check_raises "bad port" (Invalid_argument "Conn_table.listen: bad port")
    (fun () -> Tcpcore.Conn_table.listen table ~port:(-1) ())

let test_conn_table_port_listener_any_address () =
  (* A listener is its port: a SYN to that port reaches it whatever
     the local address, and a port with no listener reaches none. *)
  let table = Tcpcore.Conn_table.create Demux.Registry.Bsd in
  Tcpcore.Conn_table.listen table ~port:80 "port-80";
  (match Tcpcore.Conn_table.listener table ~port:80 with
  | Some which -> Alcotest.(check string) "bound" "port-80" which
  | None -> Alcotest.fail "no listener");
  List.iter
    (fun local_addr ->
      match
        Tcpcore.Conn_table.lookup table ~kind:Demux.Types.Data
          (Packet.Flow.v
             ~local:(Packet.Flow.endpoint local_addr 80)
             ~remote:(client_ep 777))
      with
      | Tcpcore.Conn_table.Listener which ->
        Alcotest.(check string)
          (Packet.Ipv4.addr_to_string local_addr)
          "port-80" which
      | _ -> Alcotest.fail "expected the port's listener")
    [ server_addr; addr 10 9 9 9; addr 0 0 0 0 ];
  (match
     Tcpcore.Conn_table.lookup table ~kind:Demux.Types.Data
       (Packet.Flow.v
          ~local:(Packet.Flow.endpoint server_addr 81)
          ~remote:(client_ep 778))
   with
  | Tcpcore.Conn_table.No_match -> ()
  | _ -> Alcotest.fail "port 81 has no listener");
  Tcpcore.Conn_table.unlisten table ~port:80;
  Alcotest.(check bool) "unbound" true
    (Option.is_none (Tcpcore.Conn_table.listener table ~port:80))

let test_conn_table_remove () =
  let table = Tcpcore.Conn_table.create Demux.Registry.Bsd in
  ignore (Tcpcore.Conn_table.add_connection table (flow 1) ());
  Alcotest.(check int) "one connection" 1 (Tcpcore.Conn_table.connections table);
  Alcotest.(check bool) "removed" true
    (Tcpcore.Conn_table.remove_connection table (flow 1));
  Alcotest.(check bool) "already gone" false
    (Tcpcore.Conn_table.remove_connection table (flow 1));
  Alcotest.(check int) "empty" 0 (Tcpcore.Conn_table.connections table)

(* ------------------------------------------------------------------ *)
(* Timer wheel                                                         *)

module W = Tcpcore.Timer_wheel

(* The payloads one advance fires, in order. *)
let advance_list wheel ~now =
  let fired = ref [] in
  W.advance wheel ~now ~fire:(fun payload _ -> fired := payload :: !fired);
  List.rev !fired

let test_wheel_fires_in_order () =
  let wheel = W.create ~tick:1.0 () in
  ignore (W.schedule wheel ~delay:5.0 "b" 0);
  ignore (W.schedule wheel ~delay:2.0 "a" 0);
  ignore (W.schedule wheel ~delay:9.0 "c" 0);
  Alcotest.(check int) "pending" 3 (W.pending wheel);
  let fired = advance_list wheel ~now:6.0 in
  Alcotest.(check (list string)) "a then b" [ "a"; "b" ] fired;
  Alcotest.(check int) "one left" 1 (W.pending wheel);
  let fired = advance_list wheel ~now:100.0 in
  Alcotest.(check (list string)) "c" [ "c" ] fired

let test_wheel_cancel () =
  let wheel = W.create ~tick:0.5 () in
  let t1 = W.schedule wheel ~delay:1.0 1 0 in
  let _t2 = W.schedule wheel ~delay:1.0 2 0 in
  Alcotest.(check bool) "cancelled" true (W.cancel wheel t1);
  Alcotest.(check bool) "double cancel" false (W.cancel wheel t1);
  let fired = advance_list wheel ~now:2.0 in
  Alcotest.(check (list int)) "only t2" [ 2 ] fired

let test_wheel_wraparound () =
  (* Deadlines several revolutions out must not fire early. *)
  let wheel = W.create ~slot_count:8 ~tick:1.0 () in
  ignore (W.schedule wheel ~delay:100.0 "far" 0);
  ignore (W.schedule wheel ~delay:3.0 "near" 0);
  let fired = advance_list wheel ~now:50.0 in
  Alcotest.(check (list string)) "only near" [ "near" ] fired;
  let fired = advance_list wheel ~now:101.0 in
  Alcotest.(check (list string)) "far eventually" [ "far" ] fired

let test_wheel_many_small_steps () =
  (* Advancing in sub-tick steps must still fire everything exactly
     once. *)
  let wheel = W.create ~slot_count:16 ~tick:1.0 () in
  for i = 1 to 50 do
    ignore (W.schedule wheel ~delay:(float_of_int i /. 3.0) i 0)
  done;
  let fired = ref 0 in
  let clock = ref 0.0 in
  while !clock < 20.0 do
    clock := !clock +. 0.1;
    fired := !fired + List.length (advance_list wheel ~now:!clock)
  done;
  Alcotest.(check int) "all fired once" 50 !fired;
  Alcotest.(check int) "none pending" 0 (W.pending wheel)

let test_wheel_full_revolution () =
  (* Regression: an advance of exactly one revolution must cover every
     slot once — the old step bound visited [slot_count + 1] slots,
     re-scanning the starting slot.  Entries in every slot, including
     both endpoints of the sweep, fire exactly once. *)
  let wheel = W.create ~slot_count:8 ~tick:1.0 () in
  for i = 0 to 7 do
    ignore (W.schedule wheel ~delay:(float_of_int i) i 0)
  done;
  let fired = advance_list wheel ~now:8.0 in
  Alcotest.(check (list int)) "all 8 fire, each once" [ 0; 1; 2; 3; 4; 5; 6; 7 ]
    fired;
  Alcotest.(check int) "none pending" 0 (W.pending wheel)

let test_wheel_multi_revolution_delay () =
  (* A delay of more than one revolution must survive intermediate
     full-revolution advances and fire only when its deadline passes. *)
  let wheel = W.create ~slot_count:8 ~tick:1.0 () in
  ignore (W.schedule wheel ~delay:20.0 "late" 0);
  Alcotest.(check (list string)) "revolution 1: nothing" []
    (advance_list wheel ~now:8.0);
  Alcotest.(check (list string)) "revolution 2: nothing" []
    (advance_list wheel ~now:16.0);
  Alcotest.(check int) "still pending" 1 (W.pending wheel);
  Alcotest.(check (list string)) "fires in revolution 3" [ "late" ]
    (advance_list wheel ~now:20.0);
  Alcotest.(check int) "none pending" 0 (W.pending wheel)

let test_wheel_boundary_landing () =
  (* The sweep is endpoint-inclusive: a deadline exactly on the slot
     boundary the advance lands on fires in that same advance, not the
     next one. *)
  let wheel = W.create ~slot_count:16 ~tick:0.5 () in
  ignore (W.schedule wheel ~delay:3.0 "edge" 0);
  Alcotest.(check (list string)) "fires on the boundary" [ "edge" ]
    (advance_list wheel ~now:3.0);
  (* And again when the advance starts on a boundary too. *)
  ignore (W.schedule wheel ~delay:1.5 "next" 0);
  Alcotest.(check (list string)) "boundary to boundary" [ "next" ]
    (advance_list wheel ~now:4.5)

let test_wheel_validation () =
  let wheel = W.create ~tick:1.0 () in
  W.advance wheel ~now:5.0 ~fire:(fun () _ -> ());
  Alcotest.check_raises "backwards"
    (Invalid_argument "Timer_wheel.advance: clock cannot move backwards")
    (fun () -> W.advance wheel ~now:1.0 ~fire:(fun () _ -> ()));
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Timer_wheel.schedule: negative or NaN delay") (fun () ->
      ignore (W.schedule wheel ~delay:(-1.0) () 0));
  Alcotest.check_raises "bad tick"
    (Invalid_argument "Timer_wheel.create: tick <= 0") (fun () ->
      ignore (W.create ~tick:0.0 () : unit W.t))

(* Times the wheel cannot place are refused, and a refused advance
   leaves the wheel working: its clock does not move, and a due timer
   still fires. *)
let test_wheel_unplaceable_times () =
  let refuses what f =
    match f () with
    | () -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ()
  in
  let wheel = W.create ~tick:0.25 () in
  ignore (W.schedule wheel ~delay:1.0 "due" 0);
  refuses "advance to infinity" (fun () ->
      W.advance wheel ~now:Float.infinity ~fire:(fun _ _ -> ()));
  (* 4.6e18 / 0.25 is past max_int: its tick index overflows. *)
  refuses "advance past the last tick index" (fun () ->
      W.advance wheel ~now:4.6e18 ~fire:(fun _ _ -> ()));
  refuses "infinite delay" (fun () ->
      ignore (W.schedule wheel ~delay:Float.infinity "never" 0));
  refuses "delay past the last tick index" (fun () ->
      ignore (W.schedule wheel ~delay:4.6e18 "never" 0));
  Alcotest.(check (float 0.0)) "clock unmoved" 0.0 (W.now wheel);
  Alcotest.(check int) "only the due timer pending" 1 (W.pending wheel);
  Alcotest.(check (list string)) "the due timer still fires" [ "due" ]
    (advance_list wheel ~now:2.0);
  (* A far but placeable time still works. *)
  Alcotest.(check (list string)) "a far advance" []
    (advance_list wheel ~now:1e18)

let test_wheel_ownership () =
  (* A wheel belongs to the first domain that schedules, cancels or
     advances on it: a mis-steered timer operation from another domain
     must raise instead of racing the owner's slot lists. *)
  let wheel = W.create ~tick:1.0 () in
  Alcotest.(check bool) "unclaimed at creation" true (W.owner wheel = None);
  ignore (W.schedule wheel ~delay:1.0 "mine" 0);
  let self = (Domain.self () :> int) in
  Alcotest.(check bool) "claimed by first use" true
    (W.owner wheel = Some self);
  (* Same-domain use stays fine. *)
  ignore (advance_list wheel ~now:0.5);
  let raised =
    Domain.join
      (Domain.spawn (fun () ->
           try
             ignore (advance_list wheel ~now:2.0);
             None
           with Invalid_argument msg -> Some msg))
  in
  (match raised with
  | Some msg ->
    Alcotest.(check bool) "names the operation and both domains" true
      (String.length msg > 0
      && String.sub msg 0 24 = "Timer_wheel.advance: whe")
  | None -> Alcotest.fail "cross-domain advance did not raise");
  (* The owner is unaffected by the stranger's failed call. *)
  Alcotest.(check int) "still one pending" 1 (W.pending wheel);
  Alcotest.(check (list string)) "owner still advances" [ "mine" ]
    (advance_list wheel ~now:2.0)

let test_wheel_owned_by_spawning_domain () =
  (* A wheel first used inside a spawned domain belongs there — the
     per-core stack pattern (Parallel.Smp creates each stack inside
     its worker domain). *)
  let wheel = W.create ~tick:1.0 () in
  let worker_id, timer =
    Domain.join
      (Domain.spawn (fun () ->
           let timer = W.schedule wheel ~delay:1.0 () 0 in
           ((Domain.self () :> int), timer)))
  in
  Alcotest.(check bool) "owned by the worker" true
    (W.owner wheel = Some worker_id);
  Alcotest.check_raises "main domain is now a stranger"
    (Invalid_argument
       (Printf.sprintf
          "Timer_wheel.cancel: wheel is owned by domain %d but was called \
           from domain %d (mis-steered timer)" worker_id
          ((Domain.self () :> int))))
    (fun () -> ignore (W.cancel wheel timer))

(* A handle names one scheduling: after its entry is released and
   reused, the old handle cancels nothing. *)
let test_wheel_stale_handles () =
  let wheel = W.create ~tick:1.0 () in
  let fired = W.schedule wheel ~delay:1.0 "fired" 0 in
  Alcotest.(check (list string)) "fires" [ "fired" ]
    (advance_list wheel ~now:1.0);
  let reused = W.schedule wheel ~delay:1.0 "reused" 0 in
  Alcotest.(check bool) "a fired timer's handle" false (W.cancel wheel fired);
  Alcotest.(check int) "the reuse is still pending" 1 (W.pending wheel);
  Alcotest.(check bool) "the reuse's own handle" true (W.cancel wheel reused);
  Alcotest.(check bool) "twice" false (W.cancel wheel reused);
  Alcotest.(check int) "none pending" 0 (W.pending wheel)

(* [fire] runs inside the advance: what it schedules, even at delay 0,
   waits for the next advance, and what it cancels does not fire. *)
let test_wheel_fire_reenters () =
  let wheel = W.create ~slot_count:8 ~tick:1.0 () in
  let log = ref [] in
  let later = ref None in
  let rec fire name _ =
    log := name :: !log;
    match name with
    | "first" ->
      ignore (W.schedule wheel ~delay:0.0 "rescheduled" 0);
      Option.iter
        (fun timer ->
          Alcotest.(check bool) "cancel a due timer" true
            (W.cancel wheel timer))
        !later
    | "rescheduled" ->
      Alcotest.check_raises "no nested advance"
        (Invalid_argument "Timer_wheel.advance: called from fire") (fun () ->
          W.advance wheel ~now:3.0 ~fire)
    | _ -> ()
  in
  ignore (W.schedule wheel ~delay:1.0 "first" 0);
  later := Some (W.schedule wheel ~delay:2.0 "cancelled" 0);
  ignore (W.schedule wheel ~delay:2.0 "kept" 0);
  W.advance wheel ~now:2.0 ~fire;
  Alcotest.(check (list string)) "first, then the kept one" [ "first"; "kept" ]
    (List.rev !log);
  Alcotest.(check int) "the delay-0 timer waits" 1 (W.pending wheel);
  log := [];
  W.advance wheel ~now:2.0 ~fire;
  Alcotest.(check (list string)) "and fires on the next advance"
    [ "rescheduled" ] (List.rev !log);
  Alcotest.(check int) "none pending" 0 (W.pending wheel)

(* An exception from [fire] leaves the due timers it did not reach
   pending, and the next advance fires them first, even at the same
   time. *)
let test_wheel_fire_raises () =
  let wheel = W.create ~slot_count:8 ~tick:1.0 () in
  List.iter
    (fun (name, delay) -> ignore (W.schedule wheel ~delay name 0))
    [ ("a", 1.0); ("b", 2.0); ("c", 3.0); ("d", 30.0) ];
  let log = ref [] in
  let fire name _ =
    log := name :: !log;
    if name = "b" then failwith "b"
  in
  Alcotest.check_raises "fire's exception propagates" (Failure "b") (fun () ->
      W.advance wheel ~now:20.0 ~fire);
  Alcotest.(check (list string)) "a, then b raised" [ "a"; "b" ]
    (List.rev !log);
  Alcotest.(check int) "c and d pending" 2 (W.pending wheel);
  Alcotest.(check (list string)) "c fires next" [ "c" ]
    (advance_list wheel ~now:20.0);
  Alcotest.(check (list string)) "then d" [ "d" ] (advance_list wheel ~now:30.0)

(* Warm, with a constant delay, a schedule, a cancel and a fire
   allocate nothing: the entries live in arrays that stopped growing,
   and the handle and argument are ints. *)
let test_wheel_warm_words () =
  let wheel = W.create ~tick:(1.0 /. 64.0) () in
  let fired = ref 0 in
  let fire _ arg = fired := !fired + arg in
  let rounds = 10_000 in
  (* Boxed once, before the measurement. *)
  let nows = List.init (rounds + 100) (fun i -> 0.01 *. float_of_int i) in
  let round now =
    ignore (W.schedule wheel ~delay:0.5 "kept" 1);
    ignore (W.cancel wheel (W.schedule wheel ~delay:0.5 "cancelled" 0));
    W.advance wheel ~now ~fire
  in
  let rec run k = function
    | now :: rest when k > 0 ->
      round now;
      run (k - 1) rest
    | rest -> rest
  in
  let rest = run 100 nows in
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (run rounds rest));
  let words = (Gc.minor_words () -. before) /. float_of_int rounds in
  Alcotest.(check (float 0.0)) "words per schedule + cancel + fire" 0.0 words;
  Alcotest.(check bool) "timers fired" true (!fired > rounds / 2)

let prop_wheel_fires_everything =
  QCheck.Test.make ~count:200 ~name:"wheel fires every uncancelled timer once"
    QCheck.(list_of_size (Gen.int_range 1 100) (float_range 0.0 500.0))
    (fun delays ->
      let wheel = W.create ~slot_count:32 ~tick:2.0 () in
      List.iter (fun d -> ignore (W.schedule wheel ~delay:d () 0)) delays;
      let fired = advance_list wheel ~now:1000.0 in
      List.length fired = List.length delays && W.pending wheel = 0)

(* The wheel against a list model: an advance fires every pending
   timer whose deadline the clock has reached, in (deadline, scheduling
   order); a cancel succeeds only on a pending timer, so cancelling
   after the timer fired or a second time returns false.  With
   [reenter], a fired timer may itself schedule (delay 0 included) or
   cancel: what it schedules waits for the next advance, and a due
   timer it cancels does not fire. *)
type wheel_op =
  | Schedule of float * wheel_reentry
  | Cancel of int
  | Advance of float

and wheel_reentry = Nothing | Then_schedule of float | Then_cancel of int

let print_wheel_op op =
  let reentry = function
    | Nothing -> ""
    | Then_schedule delay -> Printf.sprintf ", fire schedules %g" delay
    | Then_cancel i -> Printf.sprintf ", fire cancels #%d" i
  in
  match op with
  | Schedule (delay, then_) ->
    Printf.sprintf "schedule %g%s" delay (reentry then_)
  | Cancel i -> Printf.sprintf "cancel #%d" i
  | Advance step -> Printf.sprintf "advance +%g" step

let wheel_model_test ~name ~count ~reenter =
  let delays =
    QCheck.Gen.(
      (* Whole delays make deadline ties; 40 ticks wrap the 8-slot
         wheel several times. *)
      oneof [ float_range 0.0 40.0; map float_of_int (int_range 0 12) ])
  in
  let reentry =
    if not reenter then QCheck.Gen.return Nothing
    else
      QCheck.Gen.(
        frequency
          [ (2, return Nothing);
            (1, map (fun d -> Then_schedule d) (oneof [ return 0.0; delays ]));
            (1, map (fun i -> Then_cancel i) (int_bound 1000)) ])
  in
  let op =
    QCheck.Gen.(
      frequency
        [ (4, map2 (fun d r -> Schedule (d, r)) delays reentry);
          (2, map (fun i -> Cancel i) (int_bound 1000));
          (3, map (fun step -> Advance step) (float_range 0.0 12.0)) ])
  in
  QCheck.Test.make ~count ~name
    (QCheck.make
       ~print:(QCheck.Print.list print_wheel_op)
       QCheck.Gen.(list_size (int_range 1 80) op))
    (fun ops ->
      let wheel = W.create ~slot_count:8 ~tick:1.0 () in
      (* Timer [id]'s handle and what its firing does, and the
         deadlines of the pending ones. *)
      let handles = Hashtbl.create 16 and reentries = Hashtbl.create 16 in
      let model = Hashtbl.create 16 in
      let scheduled = ref 0 and clock = ref 0.0 and agrees = ref true in
      let schedule delay then_ =
        let id = !scheduled in
        Hashtbl.replace handles id (W.schedule wheel ~delay id 0);
        Hashtbl.replace reentries id then_;
        Hashtbl.replace model id (!clock +. delay);
        incr scheduled
      in
      let cancel i =
        if !scheduled > 0 then begin
          let id = i mod !scheduled in
          let was_pending = Hashtbl.mem model id in
          Hashtbl.remove model id;
          if W.cancel wheel (Hashtbl.find handles id) <> was_pending then
            agrees := false
        end
      in
      List.for_all
        (fun op ->
          (match op with
          | Schedule (delay, then_) -> schedule delay then_
          | Cancel i -> cancel i
          | Advance step ->
            clock := !clock +. step;
            (* Due when the advance starts: later schedules wait. *)
            let due =
              ref
                (Hashtbl.fold
                   (fun id deadline acc ->
                     if deadline <= !clock then (deadline, id) :: acc else acc)
                   model []
                |> List.sort compare)
            in
            (* The next due timer a fire has not cancelled. *)
            let rec next_due () =
              match !due with
              | (_, id) :: rest when not (Hashtbl.mem model id) ->
                due := rest;
                next_due ()
              | next -> next
            in
            W.advance wheel ~now:!clock ~fire:(fun id _ ->
                match next_due () with
                | (_, expected) :: rest when expected = id ->
                  due := rest;
                  Hashtbl.remove model id;
                  (match Hashtbl.find reentries id with
                  | Nothing -> ()
                  | Then_schedule delay -> schedule delay Nothing
                  | Then_cancel i -> cancel i)
                | _ -> agrees := false);
            if next_due () <> [] then agrees := false);
          !agrees && W.pending wheel = Hashtbl.length model)
        ops)

let prop_wheel_matches_model =
  wheel_model_test ~count:300 ~reenter:false
    ~name:"wheel agrees with a list model under schedule, cancel, advance"

let prop_wheel_reentrant_model =
  wheel_model_test ~count:500 ~reenter:true
    ~name:"wheel agrees with a list model when fire schedules and cancels"

(* ------------------------------------------------------------------ *)
(* Stack: full segment exchanges between two instances                 *)

let make_pair () =
  let server = Tcpcore.Stack.create ~local_addr:server_addr () in
  let client = Tcpcore.Stack.create ~local_addr:client_addr () in
  (server, client)

let pump server client =
  let rec go n =
    if n > 100 then Alcotest.fail "stacks never went quiescent";
    let client_out = Tcpcore.Stack.poll_output client in
    let server_out = Tcpcore.Stack.poll_output server in
    List.iter (Tcpcore.Stack.handle_segment server) client_out;
    List.iter (Tcpcore.Stack.handle_segment client) server_out;
    if client_out <> [] || server_out <> [] then go (n + 1)
  in
  go 0

let establish ?(port = 4000) server client =
  let received = Buffer.create 64 in
  Tcpcore.Stack.listen server ~port:8888 ~on_data:(fun t conn payload ->
      Buffer.add_string received payload;
      Tcpcore.Stack.send t conn ("echo:" ^ payload));
  let conn = Tcpcore.Stack.connect client ~local_port:port ~remote:server_ep in
  pump server client;
  (conn, received)

let test_stack_handshake () =
  let server, client = make_pair () in
  let conn, _ = establish server client in
  Alcotest.(check state) "client established" Tcpcore.State.Established
    conn.Tcpcore.Stack.state;
  Alcotest.(check int) "server has the connection" 1
    (Tcpcore.Stack.connection_count server);
  match
    Tcpcore.Stack.connection_of_flow server
      (Packet.Flow.v ~local:server_ep ~remote:(client_ep 4000))
  with
  | Some sconn ->
    Alcotest.(check state) "server established" Tcpcore.State.Established
      sconn.Tcpcore.Stack.state
  | None -> Alcotest.fail "server lost the connection"

let test_stack_data_echo () =
  let server, client = make_pair () in
  let conn, received = establish server client in
  Tcpcore.Stack.send client conn "hello";
  pump server client;
  Tcpcore.Stack.send client conn " world";
  pump server client;
  Alcotest.(check string) "server got both" "hello world"
    (Buffer.contents received);
  Alcotest.(check int) "client counted bytes in" (String.length "echo:hello" + String.length "echo: world")
    conn.Tcpcore.Stack.bytes_in;
  Alcotest.(check int) "client counted bytes out" 11 conn.Tcpcore.Stack.bytes_out

let test_stack_duplicate_data_reacked_once () =
  (* Retransmission of an already-delivered segment must not deliver
     twice: the stale sequence number draws a duplicate ACK only. *)
  let server, client = make_pair () in
  let conn, received = establish server client in
  Tcpcore.Stack.send client conn "once";
  (* Capture the data segment so we can replay it. *)
  let outgoing = Tcpcore.Stack.poll_output client in
  List.iter (Tcpcore.Stack.handle_segment server) outgoing;
  pump server client;
  let data_segment =
    match outgoing with
    | [ s ] -> s
    | _ -> Alcotest.fail "expected one data segment"
  in
  Tcpcore.Stack.handle_segment server data_segment (* replay *);
  pump server client;
  Alcotest.(check string) "delivered once" "once" (Buffer.contents received)

let test_stack_full_close () =
  let server, client = make_pair () in
  let conn, _ = establish server client in
  Tcpcore.Stack.close client conn;
  pump server client;
  Alcotest.(check state) "client FIN-WAIT-2" Tcpcore.State.Fin_wait_2
    conn.Tcpcore.Stack.state;
  let sconn =
    match
      Tcpcore.Stack.connection_of_flow server
        (Packet.Flow.v ~local:server_ep ~remote:(client_ep 4000))
    with
    | Some c -> c
    | None -> Alcotest.fail "server connection missing"
  in
  Alcotest.(check state) "server CLOSE-WAIT" Tcpcore.State.Close_wait
    sconn.Tcpcore.Stack.state;
  Tcpcore.Stack.close server sconn;
  pump server client;
  Alcotest.(check state) "client TIME-WAIT" Tcpcore.State.Time_wait
    conn.Tcpcore.Stack.state;
  (* Server reached CLOSED and removed the PCB. *)
  Alcotest.(check int) "server cleaned up" 0
    (Tcpcore.Stack.connection_count server);
  (* 2MSL (60 s) expiry cleans the client too. *)
  Alcotest.(check int) "reaped at 60 s" 1
    (Tcpcore.Stack.advance_clock client ~now:60.0);
  Alcotest.(check int) "client cleaned up" 0
    (Tcpcore.Stack.connection_count client)

let test_stack_rst_on_unknown () =
  let server, _client = make_pair () in
  Tcpcore.Stack.listen server ~port:8888 ~on_data:(fun _ _ _ -> ());
  (* Data segment for a connection that does not exist, to a port that
     is listening: RST. *)
  let stray =
    Packet.Segment.make ~src:(client_ep 1234) ~dst:server_ep
      ~flags:Packet.Tcp_header.flag_psh_ack ~seq:10l ~payload:"?" ()
  in
  Tcpcore.Stack.handle_segment server stray;
  Alcotest.(check int) "one RST" 1 (Tcpcore.Stack.rsts_sent server);
  (match Tcpcore.Stack.poll_output server with
  | [ segment ] ->
    Alcotest.(check bool) "rst flag" true
      segment.Packet.Segment.tcp.Packet.Tcp_header.flags.Packet.Tcp_header.rst
  | _ -> Alcotest.fail "expected exactly the RST");
  (* And to a port nobody listens on. *)
  let cold =
    Packet.Segment.make ~src:(client_ep 1235)
      ~dst:(Packet.Flow.endpoint server_addr 7)
      ~flags:Packet.Tcp_header.flag_syn ()
  in
  Tcpcore.Stack.handle_segment server cold;
  Alcotest.(check int) "second RST" 2 (Tcpcore.Stack.rsts_sent server)

let test_stack_rst_teardown () =
  let server, client = make_pair () in
  let _conn, _ = establish server client in
  let rst =
    Packet.Segment.make ~src:(client_ep 4000) ~dst:server_ep
      ~flags:Packet.Tcp_header.flag_rst ()
  in
  Tcpcore.Stack.handle_segment server rst;
  Alcotest.(check int) "connection dropped" 0
    (Tcpcore.Stack.connection_count server)

let test_stack_send_validation () =
  let server, client = make_pair () in
  let conn, _ = establish server client in
  Tcpcore.Stack.close client conn;
  pump server client;
  Alcotest.check_raises "send after close"
    (Invalid_argument "Stack.send: cannot send in FIN-WAIT-2") (fun () ->
      Tcpcore.Stack.send client conn "too late")

let test_stack_handle_bytes () =
  let server, _client = make_pair () in
  Tcpcore.Stack.listen server ~port:8888 ~on_data:(fun _ _ _ -> ());
  let syn =
    Packet.Segment.make ~src:(client_ep 6000) ~dst:server_ep
      ~flags:Packet.Tcp_header.flag_syn ~seq:5l ()
  in
  (match Tcpcore.Stack.handle_bytes server (Packet.Segment.to_bytes syn) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "accepted" 1 (Tcpcore.Stack.connection_count server);
  (* Wrong destination host. *)
  let misdelivered =
    Packet.Segment.make ~src:(client_ep 6001)
      ~dst:(Packet.Flow.endpoint (addr 9 9 9 9) 8888)
      ~flags:Packet.Tcp_header.flag_syn ()
  in
  (match
     Tcpcore.Stack.handle_bytes server (Packet.Segment.to_bytes misdelivered)
   with
  | Ok () -> Alcotest.fail "accepted a misdelivered datagram"
  | Error _ -> ());
  (* Garbage bytes. *)
  match Tcpcore.Stack.handle_bytes server (Bytes.make 10 'x') with
  | Ok () -> Alcotest.fail "accepted garbage"
  | Error _ -> ()

(* Minor words a warm segment costs from bytes to replies, through
   [handle_bytes] and [poll_output] on the default demultiplexer.  An
   in-sequence 64-byte data segment pays its payload copy for
   [on_data] (10), its [rcv_nxt] box (3) and its ACK (16: the segment
   record, the header record and the outbox cell; the IPv4 header is
   the connection's template).  A duplicate pure ACK pays nothing,
   and one that advances [snd_una] pays only that field's box. *)
let test_stack_warm_receive_words () =
  let server = Tcpcore.Stack.create ~local_addr:server_addr () in
  let delivered = ref 0 in
  Tcpcore.Stack.listen server ~port:8888 ~on_data:(fun _ _ payload ->
      delivered := !delivered + String.length payload);
  let client = client_ep 4242 in
  let wire ?payload ~flags ~seq ~ack () =
    Packet.Segment.to_bytes
      (Packet.Segment.make ?payload ~flags ~seq:(Int32.of_int seq)
         ~ack_number:(Int32.of_int ack) ~src:client ~dst:server_ep ())
  in
  let handle d =
    (match Tcpcore.Stack.handle_bytes server d with
    | Ok () -> ()
    | Error e -> Alcotest.fail e);
    Tcpcore.Stack.poll_output server
  in
  let iss =
    match
      handle (wire ~flags:Packet.Tcp_header.flag_syn ~seq:100 ~ack:0 ())
    with
    | [ synack ] ->
      Int32.to_int synack.Packet.Segment.tcp.Packet.Tcp_header.seq
      land 0xFFFFFFFF
    | _ -> Alcotest.fail "expected one SYN-ACK"
  in
  ignore
    (handle (wire ~flags:Packet.Tcp_header.flag_ack ~seq:101 ~ack:(iss + 1) ()));
  let conn =
    match
      Tcpcore.Stack.connection_of_flow server
        (Packet.Flow.v ~local:server_ep ~remote:client)
    with
    | Some c -> c
    | None -> Alcotest.fail "not established"
  in
  (* Mean words over [ds], after [warm] of them ran unmeasured. *)
  let words ?(warm = 0) ds =
    let run d = ignore (Sys.opaque_identity (handle d)) in
    Array.iteri (fun i d -> if i < warm then run d) ds;
    let before = Gc.minor_words () in
    for i = warm to Array.length ds - 1 do
      run ds.(i)
    done;
    (Gc.minor_words () -. before) /. float_of_int (Array.length ds - warm)
  in
  let payload = String.make 64 'q' in
  let segments = 1_100 in
  let data =
    Array.init segments (fun k ->
        wire ~payload ~flags:Packet.Tcp_header.flag_psh_ack
          ~seq:(101 + (64 * k)) ~ack:(iss + 1) ())
  in
  let data_words = words ~warm:100 data in
  Alcotest.(check int) "every byte delivered" (64 * segments) !delivered;
  Alcotest.(check bool)
    (Printf.sprintf "in-sequence 64-byte data: %.2f words (at most 29)"
       data_words)
    true (data_words <= 29.0);
  let rcv_nxt = 101 + (64 * segments) in
  let dup =
    wire ~flags:Packet.Tcp_header.flag_ack ~seq:rcv_nxt ~ack:(iss + 1) ()
  in
  let dup_words = words ~warm:1 (Array.make 10_001 dup) in
  Alcotest.(check (float 0.0)) "duplicate pure ACK: words" 0.0 dup_words;
  (* Queue segments to acknowledge, one byte each, then ack them one
     at a time. *)
  let sends = 1_000 in
  for _ = 1 to sends do
    Tcpcore.Stack.send server conn "r"
  done;
  ignore (Tcpcore.Stack.poll_output server);
  let acks =
    Array.init sends (fun k ->
        wire ~flags:Packet.Tcp_header.flag_ack ~seq:rcv_nxt
          ~ack:(iss + 2 + k) ())
  in
  let ack_words = words ~warm:10 acks in
  Alcotest.(check int) "every segment released" 0
    (List.length conn.Tcpcore.Stack.unacked);
  Alcotest.(check bool)
    (Printf.sprintf "pure ACK advancing snd_una: %.2f words (at most 8)"
       ack_words)
    true (ack_words <= 8.0)

(* A rejected datagram is named from [Segment.reason]'s strings, not
   parsed: its [Error] is the only allocation. *)
let test_stack_rejected_words () =
  let server = Tcpcore.Stack.create ~local_addr:server_addr () in
  let wire () =
    Packet.Segment.to_bytes
      (Packet.Segment.make ~payload:"query" ~flags:Packet.Tcp_header.flag_psh_ack
         ~src:(client_ep 4242) ~dst:server_ep ())
  in
  let bad_checksum = wire () and bad_version = wire () in
  Bytes.set_uint8 bad_checksum 44 (Bytes.get_uint8 bad_checksum 44 lxor 1);
  Bytes.set_uint8 bad_version 0 0x65;
  List.iter
    (fun (name, d, reason) ->
      let handle () =
        match Tcpcore.Stack.handle_bytes server d with
        | Ok () -> Alcotest.failf "%s: accepted" name
        | Error e -> Sys.opaque_identity e
      in
      Alcotest.(check string) name reason (handle ());
      let n = 1_000 in
      let before = Gc.minor_words () in
      for _ = 1 to n do
        ignore (handle ())
      done;
      let words = (Gc.minor_words () -. before) /. float_of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.2f words (at most 2)" name words)
        true (words <= 2.0))
    [ ("bad TCP checksum", bad_checksum, "tcp: checksum mismatch");
      ("bad version", bad_version, "ipv4: bad version 6") ]

(* Minor words a warm accepted SYN costs through [handle_bytes] and
   [poll_output]: the connection, its flow, template, PCB and table
   entry, the SYN-ACK on the connection's template, its retransmission
   queue entry and outbox cell.  Its RTO timer allocates nothing. *)
let test_stack_accepted_syn_words () =
  let server = Tcpcore.Stack.create ~local_addr:server_addr () in
  Tcpcore.Stack.listen server ~port:8888 ~on_data:(fun _ _ _ -> ());
  let syns =
    Array.init 4_000 (fun k ->
        Packet.Segment.to_bytes
          (Packet.Segment.make ~seq:(Int32.of_int (7 * k))
             ~flags:Packet.Tcp_header.flag_syn
             ~src:(Packet.Flow.endpoint (addr 10 1 (k lsr 8) (k land 255)) 4000)
             ~dst:server_ep ()))
  in
  let accept d =
    (match Tcpcore.Stack.handle_bytes server d with
    | Ok () -> ()
    | Error e -> Alcotest.fail e);
    ignore (Sys.opaque_identity (Tcpcore.Stack.poll_output server))
  in
  let warm = 2_000 in
  for i = 0 to warm - 1 do
    accept syns.(i)
  done;
  let before = Gc.minor_words () in
  for i = warm to Array.length syns - 1 do
    accept syns.(i)
  done;
  let words =
    (Gc.minor_words () -. before) /. float_of_int (Array.length syns - warm)
  in
  Alcotest.(check int) "every SYN accepted" (Array.length syns)
    (Tcpcore.Stack.connection_count server);
  Alcotest.(check bool)
    (Printf.sprintf "accepted SYN: %.2f words (at most 95)" words)
    true (words <= 95.0)

(* SYN, SYN-ACK and FIN|ACK are built on the connection's template:
   their bytes are those [Segment.make] gives for the same fields. *)
let test_stack_template_segments () =
  let server, client = make_pair () in
  Tcpcore.Stack.listen server ~port:8888 ~on_data:(fun _ _ _ -> ());
  let only st =
    match Tcpcore.Stack.poll_output st with
    | [ segment ] -> segment
    | out -> Alcotest.failf "expected one segment, got %d" (List.length out)
  in
  let same_bytes what (segment : Packet.Segment.t) =
    let tcp = segment.Packet.Segment.tcp and ip = segment.Packet.Segment.ip in
    let endpoint = Packet.Flow.endpoint in
    let made =
      Packet.Segment.make ~seq:tcp.Packet.Tcp_header.seq
        ~ack_number:tcp.Packet.Tcp_header.ack_number
        ~flags:tcp.Packet.Tcp_header.flags
        ~src:(endpoint ip.Packet.Ipv4.src tcp.Packet.Tcp_header.src_port)
        ~dst:(endpoint ip.Packet.Ipv4.dst tcp.Packet.Tcp_header.dst_port)
        ()
    in
    Alcotest.(check string) (what ^ ": bytes")
      (Bytes.to_string (Packet.Segment.to_bytes made))
      (Bytes.to_string (Packet.Segment.to_bytes segment));
    Alcotest.(check bool) (what ^ ": record") true (made = segment);
    Tcpcore.Stack.handle_segment
      (if Packet.Ipv4.equal_addr ip.Packet.Ipv4.dst server_addr then server
       else client)
      segment
  in
  let conn = Tcpcore.Stack.connect client ~local_port:4000 ~remote:server_ep in
  same_bytes "SYN" (only client);
  same_bytes "SYN-ACK" (only server);
  ignore (only client) (* the handshake ACK *);
  Tcpcore.Stack.close client conn;
  same_bytes "FIN|ACK" (only client)

let test_stack_rejects_unplaceable_timeouts () =
  List.iter
    (fun (what, create) ->
      match create () with
      | (_ : Tcpcore.Stack.t) -> Alcotest.failf "%s: accepted" what
      | exception Invalid_argument _ -> ())
    [ ( "infinite RTO",
        fun () ->
          Tcpcore.Stack.create ~retransmit_timeout:Float.infinity
            ~local_addr:server_addr () );
      ( "NaN RTO",
        fun () ->
          Tcpcore.Stack.create ~retransmit_timeout:Float.nan
            ~local_addr:server_addr () );
      (* The wheel places deadlines below 2^62 ticks of 1/64 s, about
         7.2e16 s: the first SYN-ACK timer of a 1e17-s RTO does not
         fit, and a 2e15-s RTO's 64-fold backoff does not. *)
      ( "RTO beyond the wheel",
        fun () ->
          Tcpcore.Stack.create ~retransmit_timeout:1e17
            ~local_addr:server_addr () );
      ( "RTO backoff beyond the wheel",
        fun () ->
          Tcpcore.Stack.create ~retransmit_timeout:2e15
            ~local_addr:server_addr () ) ];
  (* Just inside the range, a SYN arms its SYN-ACK's timer. *)
  let server =
    Tcpcore.Stack.create ~retransmit_timeout:1e15 ~local_addr:server_addr ()
  in
  Tcpcore.Stack.listen server ~port:8888 ~on_data:(fun _ _ _ -> ());
  match
    Tcpcore.Stack.handle_bytes server
      (Packet.Segment.to_bytes
         (Packet.Segment.make ~src:(client_ep 5000) ~dst:server_ep
            ~flags:Packet.Tcp_header.flag_syn ()))
  with
  | Ok () ->
    Alcotest.(check int) "accepted" 1 (Tcpcore.Stack.connection_count server)
  | Error e -> Alcotest.failf "SYN at a 1e15-s RTO: %s" e

let test_stack_demux_metering () =
  (* The receive path is metered: handshake + 2 data segments from an
     established peer produce lookups in the demux stats. *)
  let server, client = make_pair () in
  let conn, _ = establish server client in
  Tcpcore.Stack.send client conn "q1";
  pump server client;
  let s = Demux.Lookup_stats.snapshot (Tcpcore.Stack.demux_stats server) in
  Alcotest.(check bool)
    (Printf.sprintf "lookups %d >= 3" s.Demux.Lookup_stats.lookups)
    true
    (s.Demux.Lookup_stats.lookups >= 3);
  Alcotest.(check int) "one insert" 1 s.Demux.Lookup_stats.inserts

let test_stack_time_wait_reaping () =
  (* A full close leaves the client in TIME-WAIT; the stack's timer
     wheel reaps it 2MSL (60 s) later via advance_clock. *)
  let server, client = make_pair () in
  let conn, _ = establish server client in
  Tcpcore.Stack.close client conn;
  pump server client;
  let sconn =
    match
      Tcpcore.Stack.connection_of_flow server
        (Packet.Flow.v ~local:server_ep ~remote:(client_ep 4000))
    with
    | Some c -> c
    | None -> Alcotest.fail "server connection missing"
  in
  Tcpcore.Stack.close server sconn;
  pump server client;
  Alcotest.(check state) "TIME-WAIT" Tcpcore.State.Time_wait
    conn.Tcpcore.Stack.state;
  Alcotest.(check int) "timer armed" 1 (Tcpcore.Stack.pending_time_wait client);
  (* Too early: nothing reaped. *)
  Alcotest.(check int) "not yet" 0
    (Tcpcore.Stack.advance_clock client ~now:(Float.pred 60.0));
  Alcotest.(check int) "still there" 1 (Tcpcore.Stack.connection_count client);
  (* At 2MSL: reaped. *)
  Alcotest.(check int) "reaped" 1 (Tcpcore.Stack.advance_clock client ~now:60.0);
  Alcotest.(check int) "gone" 0 (Tcpcore.Stack.connection_count client);
  Alcotest.(check state) "closed" Tcpcore.State.Closed conn.Tcpcore.Stack.state

let test_stack_retransmission_recovers_loss () =
  (* Drop a data segment on the floor; after the RTO the client
     re-sends it and the exchange completes. *)
  let server, client = make_pair () in
  let conn, received = establish server client in
  Tcpcore.Stack.send client conn "precious";
  (* The segment is "lost": drain and discard the client's outbox. *)
  (match Tcpcore.Stack.poll_output client with
  | [ _lost ] -> ()
  | _ -> Alcotest.fail "expected one data segment");
  Alcotest.(check string) "not delivered" "" (Buffer.contents received);
  (* Before the RTO nothing happens. *)
  Alcotest.(check int) "no premature retransmit" 0
    (Tcpcore.Stack.advance_clock client ~now:0.5);
  (* After the RTO the segment is retransmitted. *)
  Alcotest.(check int) "one retransmit" 1
    (Tcpcore.Stack.advance_clock client ~now:2.5);
  Alcotest.(check int) "counter" 1 (Tcpcore.Stack.retransmissions client);
  pump server client;
  Alcotest.(check string) "recovered" "precious" (Buffer.contents received);
  (* Once acknowledged, later clock advances retransmit nothing. *)
  Alcotest.(check int) "quiet after ack" 0
    (Tcpcore.Stack.advance_clock client ~now:10.0)

let test_stack_rto_backoff () =
  (* Each unanswered retransmission waits for the next attempt's delay:
     the base RTO (1 s) for the first, then a full-jittered draw whose
     cap doubles up to 64 s.  A second stack created the same way draws
     the same delays for the same attempts, so each re-send must land
     exactly at the deadline its draw names, and not before. *)
  let server, client = make_pair () in
  let twin = Tcpcore.Stack.create ~local_addr:client_addr () in
  let conn, _ = establish server client in
  Tcpcore.Stack.send client conn "into the void";
  ignore (Tcpcore.Stack.poll_output client);
  let advance now = Tcpcore.Stack.advance_clock client ~now in
  let deadline = ref 0.0 in
  for attempt = 1 to 8 do
    let delay = Tcpcore.Stack.rto_for_attempt twin attempt in
    let cap = Float.of_int (1 lsl min 6 (attempt - 1)) in
    if delay < 1.0 || delay > cap then
      Alcotest.failf "attempt %d: delay %g outside [1, %g]" attempt delay cap;
    deadline := !deadline +. delay;
    Alcotest.(check int)
      (Printf.sprintf "attempt %d: quiet before %g s" attempt !deadline)
      0
      (advance (Float.pred !deadline));
    Alcotest.(check int)
      (Printf.sprintf "attempt %d: re-sent at %g s" attempt !deadline)
      1 (advance !deadline)
  done;
  Alcotest.(check int) "counter" 8 (Tcpcore.Stack.retransmissions client);
  (* The segment is still deliverable after all that. *)
  ignore (Tcpcore.Stack.poll_output client);
  Alcotest.(check bool) "still queued" true
    (conn.Tcpcore.Stack.unacked <> [])

let test_stack_retransmit_attempts_bounded () =
  let server, client = make_pair () in
  Tcpcore.Stack.listen server ~port:8888 ~on_data:(fun _ _ _ -> ());
  ignore (Tcpcore.Stack.connect client ~local_port:4000 ~remote:server_ep);
  ignore (Tcpcore.Stack.poll_output client);
  (* The SYN vanishes; drive the clock far past every backoff stage
     (at most 64 s each), one retransmission per advance. *)
  for i = 1 to 20 do
    ignore (Tcpcore.Stack.advance_clock client ~now:(float_of_int i *. 100.0));
    ignore (Tcpcore.Stack.poll_output client)
  done;
  Alcotest.(check int) "abandoned after 12 attempts" 12
    (Tcpcore.Stack.retransmissions client)

let test_stack_rto_jitter_bounds () =
  (* Full jitter on the capped exponential: every delay for attempt n
     lies in [base, base * 2^min(6, n-1)] — never below the base (no
     hammering), never above the 64x cap (no unbounded sulk). *)
  let base = 0.5 in
  let stack =
    Tcpcore.Stack.create ~retransmit_timeout:base ~local_addr:client_addr ()
  in
  Alcotest.(check (float 1e-9))
    "attempt 1 is exactly the base" base
    (Tcpcore.Stack.rto_for_attempt stack 1);
  for attempt = 2 to 20 do
    let capped = base *. Float.of_int (1 lsl min 6 (attempt - 1)) in
    for _ = 1 to 50 do
      let delay = Tcpcore.Stack.rto_for_attempt stack attempt in
      if delay < base -. 1e-9 then
        Alcotest.failf "attempt %d: delay %g below base %g" attempt delay base;
      if delay > capped +. 1e-9 then
        Alcotest.failf "attempt %d: delay %g above cap %g" attempt delay capped
    done
  done

let test_stack_rto_jitter_deterministic () =
  (* Two stacks created the same way draw the same delay sequence, and
     the draws genuinely spread (full jitter, not a constant offset). *)
  let sequence () =
    let stack = Tcpcore.Stack.create ~local_addr:client_addr () in
    List.init 32 (fun i -> Tcpcore.Stack.rto_for_attempt stack (2 + (i mod 8)))
  in
  let a = sequence () and b = sequence () in
  Alcotest.(check (list (float 1e-12))) "same draws" a b;
  let spread =
    List.fold_left max neg_infinity a -. List.fold_left min infinity a
  in
  Alcotest.(check bool) "draws spread" true (spread > 0.1)

let test_stack_overload_tiers () =
  (* The stack maps each pressure tier onto a named drop reason.
     Shed_new_flows refuses listener SYNs silently; Drop_batches also
     sheds stray traffic (no RST); Reject sheds before parsing. *)
  let tier = ref Tcpcore.Stack.Normal in
  let stack = Tcpcore.Stack.create ~local_addr:server_addr () in
  Tcpcore.Stack.set_overload_probe stack (fun () -> !tier);
  Tcpcore.Stack.listen stack ~port:80 ~on_data:(fun _ _ _ -> ());
  let syn ~client_port =
    Packet.Segment.make
      ~src:(Packet.Flow.endpoint client_addr client_port)
      ~dst:(Packet.Flow.endpoint server_addr 80)
      ~flags:Packet.Tcp_header.flag_syn ~seq:100l ()
  in
  let drop reason = List.assoc reason (Tcpcore.Stack.drop_counts stack) in
  (* Normal: the SYN is accepted. *)
  Tcpcore.Stack.handle_segment stack (syn ~client_port:5000);
  Alcotest.(check int) "accepted" 1 (Tcpcore.Stack.connection_count stack);
  ignore (Tcpcore.Stack.poll_output stack);
  (* Shed_new_flows: a fresh SYN is shed, counted, and draws no RST;
     the established connection's traffic still flows. *)
  tier := Tcpcore.Stack.Shed_new_flows;
  Tcpcore.Stack.handle_segment stack (syn ~client_port:5001);
  Alcotest.(check int) "not accepted" 1 (Tcpcore.Stack.connection_count stack);
  Alcotest.(check int) "shed counted" 1 (drop "overload-shed-new-flow");
  Alcotest.(check (list pass)) "no RST for shed SYN" []
    (Tcpcore.Stack.poll_output stack);
  (* Drop_batches: stray non-SYN traffic is shed without the RST
     courtesy. *)
  tier := Tcpcore.Stack.Drop_batches;
  let stray =
    Packet.Segment.make
      ~src:(Packet.Flow.endpoint client_addr 5002)
      ~dst:(Packet.Flow.endpoint server_addr 80)
      ~flags:Packet.Tcp_header.flag_ack ~seq:7l ~ack_number:9l ()
  in
  Tcpcore.Stack.handle_segment stack stray;
  Alcotest.(check int) "stray shed" 1 (drop "overload-drop-batch");
  Alcotest.(check int) "no RST sent" 0 (Tcpcore.Stack.rsts_sent stack);
  Tcpcore.Stack.handle_segment stack (syn ~client_port:5003);
  Alcotest.(check int) "SYN shed at drop-batches too" 2
    (drop "overload-drop-batch");
  (* Reject: handle_bytes sheds before parsing — even junk is counted
     under the tier, not as a parse error. *)
  tier := Tcpcore.Stack.Reject;
  (match Tcpcore.Stack.handle_bytes stack (Bytes.create 3) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "reject tier let a datagram in");
  Alcotest.(check int) "rejected" 1 (drop "overload-reject");
  Alcotest.(check int) "not a parse error" 0 (drop "parse-error");
  (* Back to normal: full service resumes. *)
  tier := Tcpcore.Stack.Normal;
  Tcpcore.Stack.handle_segment stack (syn ~client_port:5004);
  Alcotest.(check int) "recovered" 2 (Tcpcore.Stack.connection_count stack);
  Alcotest.(check int) "drops sum" 4 (Tcpcore.Stack.drops_total stack)

let test_stack_drop_codes () =
  (* Each drop reason, triggered once: exactly its counter moves, and
     the one [Drop] event traced with it carries a code that decodes
     back to it. *)
  let server, client = make_pair () in
  let tier = ref Tcpcore.Stack.Normal in
  Tcpcore.Stack.set_overload_probe server (fun () -> !tier);
  Tcpcore.Stack.listen server ~port:8888 ~on_data:(fun _ _ _ ->
      failwith "on_data");
  let conn = Tcpcore.Stack.connect client ~local_port:4000 ~remote:server_ep in
  pump server client;
  let tracer = Obs.Trace.create ~capacity:256 () in
  Tcpcore.Stack.set_tracer server tracer;
  let segment ?(dst = server_ep) ~port ~flags () =
    Packet.Segment.to_bytes
      (Packet.Segment.make ~src:(client_ep port) ~dst ~flags ~seq:7l
         ~ack_number:9l ())
  in
  let data =
    Tcpcore.Stack.send client conn "boom";
    match Tcpcore.Stack.poll_output client with
    | [ seg ] -> Packet.Segment.to_bytes seg
    | _ -> Alcotest.fail "expected one data segment"
  in
  List.iter
    (fun (reason, at, datagram) ->
      tier := at;
      let before = Tcpcore.Stack.drop_counts server in
      Obs.Trace.clear tracer;
      ignore (Tcpcore.Stack.handle_bytes server datagram);
      let moved =
        List.filter_map
          (fun ((name, n), (_, m)) ->
            if m <> n then Some (name, m - n) else None)
          (List.combine before (Tcpcore.Stack.drop_counts server))
      in
      Alcotest.(check (list (pair string int)))
        (reason ^ ": its counter moved") [ (reason, 1) ] moved;
      Alcotest.(check (list (option string)))
        (reason ^ ": traced code decodes to it") [ Some reason ]
        (List.filter_map
           (fun (e : Obs.Trace.record) ->
             if e.kind = Obs.Trace.Drop then
               Some (Tcpcore.Stack.drop_reason_of_code e.a)
             else None)
           (Obs.Trace.to_list tracer)))
    [ ("parse-error", Tcpcore.Stack.Normal, Bytes.create 3);
      ( "wrong-destination", Tcpcore.Stack.Normal,
        segment ~dst:(Packet.Flow.endpoint (addr 172 16 0 9) 8888) ~port:5000
          ~flags:Packet.Tcp_header.flag_syn () );
      ("handler-error", Tcpcore.Stack.Normal, data);
      ( "overload-shed-new-flow", Tcpcore.Stack.Shed_new_flows,
        segment ~port:5001 ~flags:Packet.Tcp_header.flag_syn () );
      ( "overload-drop-batch", Tcpcore.Stack.Drop_batches,
        segment ~port:5002 ~flags:Packet.Tcp_header.flag_ack () );
      ("overload-reject", Tcpcore.Stack.Reject, Bytes.create 3) ];
  Alcotest.(check int) "every reason triggered once"
    (List.length Tcpcore.Stack.drop_reasons)
    (Tcpcore.Stack.drops_total server);
  (* A damaged trace file may carry any payload. *)
  List.iter
    (fun code ->
      Alcotest.(check (option string))
        (Printf.sprintf "code %d decodes to nothing" code)
        None
        (Tcpcore.Stack.drop_reason_of_code code))
    [ -1; 6; min_int; max_int ]

let test_stack_overload_probe_once () =
  (* The tier is read once per datagram.  A probe that flips between
     Normal and Reject on every call (a dispatcher domain moving the
     tier mid-datagram) must not let handle_bytes shed a datagram yet
     report it as [Ok]: every shed datagram is an [Error]. *)
  let calls = ref 0 in
  let stack = Tcpcore.Stack.create ~local_addr:server_addr () in
  Tcpcore.Stack.set_overload_probe stack (fun () ->
      incr calls;
      if !calls mod 2 = 1 then Tcpcore.Stack.Normal else Tcpcore.Stack.Reject);
  Tcpcore.Stack.listen stack ~port:80 ~on_data:(fun _ _ _ -> ());
  let errors = ref 0 in
  for i = 0 to 5 do
    let syn =
      Packet.Segment.to_bytes
        (Packet.Segment.make
           ~src:(Packet.Flow.endpoint client_addr (5000 + i))
           ~dst:(Packet.Flow.endpoint server_addr 80)
           ~flags:Packet.Tcp_header.flag_syn ~seq:100l ())
    in
    match Tcpcore.Stack.handle_bytes stack syn with
    | Ok () -> ()
    | Error _ -> incr errors
  done;
  Alcotest.(check int) "one probe per datagram" 6 !calls;
  Alcotest.(check int) "every shed reported as Error"
    (Tcpcore.Stack.drops_total stack) !errors;
  Alcotest.(check int) "every other datagram rejected" 3 !errors;
  Alcotest.(check int) "the rest accepted" 3
    (Tcpcore.Stack.connection_count stack)

let test_stack_fuzz_never_raises () =
  (* 10k hostile buffers: pure junk, bit-flipped real segments,
     truncated real segments and misdelivered ones.  [handle_bytes]
     must never raise, and every [Error] must be attributed to a named
     drop counter. *)
  let server = Tcpcore.Stack.create ~local_addr:server_addr () in
  Tcpcore.Stack.listen server ~port:8888 ~on_data:(fun _ _ _ -> ());
  let rng = Numerics.Rng.create ~seed:99 in
  let byte () = Char.chr (Numerics.Rng.int rng ~bound:256) in
  let template i =
    Packet.Segment.to_bytes
      (Packet.Segment.make
         ~src:(client_ep (1024 + (i mod 60000)))
         ~dst:server_ep ~flags:Packet.Tcp_header.flag_syn
         ~seq:(Int32.of_int i) ())
  in
  let misdelivered =
    Packet.Segment.to_bytes
      (Packet.Segment.make ~src:(client_ep 5000)
         ~dst:(Packet.Flow.endpoint (addr 172 16 0 9) 80)
         ~flags:Packet.Tcp_header.flag_syn ~seq:1l ())
  in
  let errors = ref 0 in
  for i = 1 to 10_000 do
    let buf =
      match i mod 4 with
      | 0 -> Bytes.init (Numerics.Rng.int rng ~bound:120) (fun _ -> byte ())
      | 1 ->
        let buf = template i in
        for _ = 1 to 1 + Numerics.Rng.int rng ~bound:4 do
          Bytes.set buf (Numerics.Rng.int rng ~bound:(Bytes.length buf)) (byte ())
        done;
        buf
      | 2 ->
        let buf = template i in
        Bytes.sub buf 0 (Numerics.Rng.int rng ~bound:(Bytes.length buf))
      | _ -> misdelivered
    in
    match Tcpcore.Stack.handle_bytes server buf with
    | Ok () -> ()
    | Error _ -> incr errors
    | exception exn ->
      Alcotest.failf "handle_bytes raised on buffer %d: %s" i
        (Printexc.to_string exn)
  done;
  ignore (Tcpcore.Stack.poll_output server);
  Alcotest.(check bool) "hostile stream mostly shed" true (!errors > 5000);
  Alcotest.(check int) "every error attributed to a named counter" !errors
    (Tcpcore.Stack.drops_total server);
  let counts = Tcpcore.Stack.drop_counts server in
  Alcotest.(check int) "counters sum to the total"
    (Tcpcore.Stack.drops_total server)
    (List.fold_left (fun acc (_, n) -> acc + n) 0 counts);
  Alcotest.(check bool) "parse errors seen" true
    (List.assoc "parse-error" counts > 0);
  Alcotest.(check bool) "misdeliveries seen" true
    (List.assoc "wrong-destination" counts > 0)

let test_stack_ack_cancels_retransmission () =
  (* Normal delivery: the ACK comes back before the RTO, so advancing
     the clock produces no retransmissions at all. *)
  let server, client = make_pair () in
  let conn, _ = establish server client in
  Tcpcore.Stack.send client conn "swift";
  pump server client;
  Alcotest.(check int) "nothing to do" 0
    (Tcpcore.Stack.advance_clock client ~now:50.0);
  Alcotest.(check int) "no retransmissions" 0
    (Tcpcore.Stack.retransmissions client)

let test_stack_syn_retransmission () =
  (* A SYN into the void is retried, and the handshake still completes
     when the peer finally hears one. *)
  let server, client = make_pair () in
  Tcpcore.Stack.listen server ~port:8888 ~on_data:(fun _ _ _ -> ());
  let conn = Tcpcore.Stack.connect client ~local_port:4000 ~remote:server_ep in
  (match Tcpcore.Stack.poll_output client with
  | [ _lost_syn ] -> ()
  | _ -> Alcotest.fail "expected the SYN");
  Alcotest.(check int) "syn retransmitted" 1
    (Tcpcore.Stack.advance_clock client ~now:1.5);
  pump server client;
  Alcotest.(check state) "established anyway" Tcpcore.State.Established
    conn.Tcpcore.Stack.state

(* Move the server side of the client's connection from stack [a] to
   stack [b], as [Parallel.Smp]'s flow migration does. *)
let migrate a b =
  match
    Tcpcore.Stack.extract_connection a
      (Packet.Flow.v ~local:server_ep ~remote:(client_ep 4000))
  with
  | Some conn -> Tcpcore.Stack.adopt_connection b conn
  | None -> Alcotest.fail "the connection was not resident"

let test_stack_adopted_connection_delivers_to_adopter () =
  let a = Tcpcore.Stack.create ~local_addr:server_addr () in
  let b = Tcpcore.Stack.create ~local_addr:server_addr () in
  let client = Tcpcore.Stack.create ~local_addr:client_addr () in
  let got_a = Buffer.create 16 and got_b = Buffer.create 16 in
  Tcpcore.Stack.listen a ~port:8888 ~on_data:(fun _ _ payload ->
      Buffer.add_string got_a payload);
  Tcpcore.Stack.listen b ~port:8888 ~on_data:(fun _ _ payload ->
      Buffer.add_string got_b payload);
  let conn = Tcpcore.Stack.connect client ~local_port:4000 ~remote:server_ep in
  pump a client;
  migrate a b;
  Tcpcore.Stack.send client conn "moved";
  pump b client;
  Alcotest.(check string) "B's listener got the data" "moved"
    (Buffer.contents got_b);
  Alcotest.(check string) "A's listener did not" "" (Buffer.contents got_a)

let test_stack_adopt_rearms_rto () =
  (* A's data segment is lost, then the connection moves to B.  A's
     pending RTO fires as a no-op on the neutralized original; B's
     re-armed first-attempt RTO re-sends the segment, and the client's
     ACK clears B's queue. *)
  let a = Tcpcore.Stack.create ~local_addr:server_addr () in
  let b = Tcpcore.Stack.create ~local_addr:server_addr () in
  let client = Tcpcore.Stack.create ~local_addr:client_addr () in
  Tcpcore.Stack.listen a ~port:8888 ~on_data:(fun _ _ _ -> ());
  Tcpcore.Stack.listen b ~port:8888 ~on_data:(fun _ _ _ -> ());
  let conn = Tcpcore.Stack.connect client ~local_port:4000 ~remote:server_ep in
  pump a client;
  let flow = Packet.Flow.v ~local:server_ep ~remote:(client_ep 4000) in
  (match Tcpcore.Stack.connection_of_flow a flow with
  | Some sconn -> Tcpcore.Stack.send a sconn "lost"
  | None -> Alcotest.fail "A lost the connection");
  ignore (Tcpcore.Stack.poll_output a);
  migrate a b;
  Alcotest.(check int) "A's RTO fires as a no-op" 0
    (Tcpcore.Stack.advance_clock a ~now:1.0);
  Alcotest.(check (list pass)) "A sends nothing" []
    (Tcpcore.Stack.poll_output a);
  Alcotest.(check int) "B re-sends at 1 s" 1
    (Tcpcore.Stack.advance_clock b ~now:1.0);
  pump b client;
  Alcotest.(check int) "the client got it" 4 conn.Tcpcore.Stack.bytes_in;
  match Tcpcore.Stack.connection_of_flow b flow with
  | Some sconn ->
    Alcotest.(check int) "B's queue is clear" 0
      (List.length sconn.Tcpcore.Stack.unacked)
  | None -> Alcotest.fail "B lost the connection"

let test_stack_simultaneous_open () =
  (* Both ends actively connect to each other; the crossing SYNs drive
     both through SYN-RECEIVED to ESTABLISHED (RFC 793 figure 8). *)
  let a = Tcpcore.Stack.create ~local_addr:server_addr () in
  let b = Tcpcore.Stack.create ~local_addr:client_addr () in
  let conn_a =
    Tcpcore.Stack.connect a ~local_port:8888 ~remote:(client_ep 7000)
  in
  let conn_b =
    Tcpcore.Stack.connect b ~local_port:7000 ~remote:server_ep
  in
  (* Exchange the crossing SYNs, then pump to quiescence. *)
  let a_out = Tcpcore.Stack.poll_output a in
  let b_out = Tcpcore.Stack.poll_output b in
  List.iter (Tcpcore.Stack.handle_segment b) a_out;
  List.iter (Tcpcore.Stack.handle_segment a) b_out;
  pump a b;
  Alcotest.(check state) "a established" Tcpcore.State.Established
    conn_a.Tcpcore.Stack.state;
  Alcotest.(check state) "b established" Tcpcore.State.Established
    conn_b.Tcpcore.Stack.state

let test_stack_many_clients () =
  (* 100 concurrent connections through one server stack, then data on
     each in an interleaved order. *)
  let server = Tcpcore.Stack.create ~local_addr:server_addr () in
  let received = ref 0 in
  Tcpcore.Stack.listen server ~port:8888 ~on_data:(fun _ _ _ -> incr received);
  let clients =
    Array.init 100 (fun i ->
        let c =
          Tcpcore.Stack.create ~local_addr:(addr 10 1 (i / 250) (1 + (i mod 250))) ()
        in
        (c, Tcpcore.Stack.connect c ~local_port:(5000 + i) ~remote:server_ep))
  in
  let pump_all () =
    let rec go n =
      if n > 200 then Alcotest.fail "no quiescence";
      let moved = ref false in
      Array.iter
        (fun (c, _) ->
          let out = Tcpcore.Stack.poll_output c in
          if out <> [] then moved := true;
          List.iter (Tcpcore.Stack.handle_segment server) out)
        clients;
      let server_out = Tcpcore.Stack.poll_output server in
      if server_out <> [] then moved := true;
      List.iter
        (fun segment ->
          let dst = segment.Packet.Segment.ip.Packet.Ipv4.dst in
          Array.iter
            (fun (c, _) ->
              if Packet.Ipv4.equal_addr (Tcpcore.Stack.local_addr c) dst then
                Tcpcore.Stack.handle_segment c segment)
            clients)
        server_out;
      if !moved then go (n + 1)
    in
    go 0
  in
  pump_all ();
  Alcotest.(check int) "all connected" 100 (Tcpcore.Stack.connection_count server);
  Array.iteri
    (fun i (_, conn) ->
      Alcotest.(check state)
        (Printf.sprintf "client %d established" i)
        Tcpcore.State.Established conn.Tcpcore.Stack.state)
    clients;
  (* Interleave data across all connections — the OLTP pattern. *)
  Array.iter
    (fun (c, conn) -> Tcpcore.Stack.send c conn "txn")
    clients;
  pump_all ();
  Alcotest.(check int) "all queries delivered" 100 !received

(* ------------------------------------------------------------------ *)

let prop_stack_survives_arbitrary_segments =
  (* Robustness: a listening stack fed any sequence of syntactically
     valid segments (random flags, seqs, acks, ports, payloads) must
     never raise, and its connection count must stay sane. *)
  let arbitrary_segment_spec =
    QCheck.Gen.(
      map3
        (fun (sport, dport) (flag_bits, payload) (seq, ack) ->
          (sport, dport, flag_bits, payload, seq, ack))
        (pair (int_range 1 8) (int_range 8887 8890))
        (pair (int_bound 63) (string_size (int_bound 20)))
        (pair (int_bound 100000) (int_bound 100000)))
  in
  QCheck.Test.make ~count:200 ~name:"stack survives arbitrary segment streams"
    (QCheck.make QCheck.Gen.(list_size (int_range 1 60) arbitrary_segment_spec))
    (fun specs ->
      let stack = Tcpcore.Stack.create ~local_addr:server_addr () in
      Tcpcore.Stack.listen stack ~port:8888 ~on_data:(fun t conn payload ->
          (* An application that answers; exercises send paths too. *)
          if String.length payload > 0 && conn.Tcpcore.Stack.state = Tcpcore.State.Established
          then Tcpcore.Stack.send t conn "r");
      List.iter
        (fun (sport, dport, flag_bits, payload, seq, ack) ->
          let flags =
            { Packet.Tcp_header.fin = flag_bits land 1 <> 0;
              syn = flag_bits land 2 <> 0;
              rst = flag_bits land 4 <> 0;
              psh = flag_bits land 8 <> 0;
              ack = flag_bits land 16 <> 0;
              urg = flag_bits land 32 <> 0 }
          in
          let segment =
            Packet.Segment.make
              ~src:(client_ep (1000 + sport))
              ~dst:(Packet.Flow.endpoint server_addr dport)
              ~flags ~payload
              ~seq:(Int32.of_int seq)
              ~ack_number:(Int32.of_int ack) ()
          in
          Tcpcore.Stack.handle_segment stack segment;
          ignore (Tcpcore.Stack.poll_output stack))
        specs;
      ignore (Tcpcore.Stack.advance_clock stack ~now:100.0);
      ignore (Tcpcore.Stack.poll_output stack);
      Tcpcore.Stack.connection_count stack <= 8)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_transitions_closed_world; prop_wheel_fires_everything;
      prop_wheel_matches_model; prop_wheel_reentrant_model;
      prop_stack_survives_arbitrary_segments ]

(* ------------------------------------------------------------------ *)
(* The in-place receive path against the record path                  *)

(* rxbench's traces at smoke size: oltp (shuffled 64-byte requests),
   bulk (sequential 1,460-byte trains) and synflood (clients merged
   1:1 with spoofed SYNs), plus an oltp whose clients close. *)
let rx_trace ~close_after ~clients ~requests ~payload ~interleave () =
  (Sim.Segment_workload.generate
     (Sim.Segment_workload.config ~clients ~requests_per_client:requests
        ~payload ~interleave ~close_after ~seed:42 ()))
    .Sim.Segment_workload.datagrams

(* Each of the 50 clients sends 22 datagrams, so the 1,100 spoofed
   SYNs interleave with them one for one. *)
let rx_synflood () =
  let legit =
    rx_trace ~close_after:false ~clients:50 ~requests:20 ~payload:64
      ~interleave:Sim.Segment_workload.Shuffled ()
  in
  let rng = Numerics.Rng.create ~seed:42 in
  let syn k =
    let flow = Sim.Topology.flow_of_client (50 + (k * 7919)) in
    Packet.Segment.to_bytes
      (Packet.Segment.make
         ~seq:(Int64.to_int32 (Numerics.Rng.bits64 rng))
         ~flags:Packet.Tcp_header.flag_syn ~src:flow.Packet.Flow.remote
         ~dst:flow.Packet.Flow.local ())
  in
  let syns = Array.init (Array.length legit) syn in
  Array.init (2 * Array.length legit) (fun k ->
      if k land 1 = 0 then legit.(k / 2) else syns.(k / 2))

(* A server as rxbench builds it, whose [on_data] logs every delivery. *)
let rx_server () =
  let st =
    Tcpcore.Stack.create ~iss:Tcpcore.Stack.deterministic_iss
      ~local_addr:Sim.Topology.server.Packet.Flow.addr ()
  in
  let log = Buffer.create 4096 in
  Tcpcore.Stack.listen st ~port:Sim.Topology.server.Packet.Flow.port
    ~on_data:(fun _ conn payload ->
      Buffer.add_string log (Packet.Flow.to_string conn.Tcpcore.Stack.flow);
      Buffer.add_string log payload);
  (st, log)

(* What [handle_bytes] answers, by way of [Segment.parse] and
   [handle_segment]; parse errors and misdelivered datagrams are
   tallied here, since [handle_segment] never sees them. *)
let record_path st ~parse_errors ~misdelivered buf =
  match Packet.Segment.parse buf ~off:0 with
  | Error reason ->
    incr parse_errors;
    Error reason
  | Ok segment ->
    if
      Packet.Ipv4.equal_addr segment.Packet.Segment.ip.Packet.Ipv4.dst
        (Tcpcore.Stack.local_addr st)
    then begin
      Tcpcore.Stack.handle_segment st segment;
      Ok ()
    end
    else begin
      incr misdelivered;
      Error "stack: datagram not addressed to this host"
    end

let connections st =
  let acc = ref [] in
  Tcpcore.Stack.iter_connections st (fun c ->
      acc :=
        Printf.sprintf
          "%s %s snd_nxt=%ld rcv_nxt=%ld snd_una=%ld in=%d out=%d unacked=%d"
          (Packet.Flow.to_string c.Tcpcore.Stack.flow)
          (Tcpcore.State.to_string c.Tcpcore.Stack.state)
          c.Tcpcore.Stack.snd_nxt c.Tcpcore.Stack.rcv_nxt
          c.Tcpcore.Stack.snd_una
          c.Tcpcore.Stack.bytes_in c.Tcpcore.Stack.bytes_out
          (List.length c.Tcpcore.Stack.unacked)
        :: !acc);
  List.sort compare !acc

(* Replay [ds] into two servers, one through [handle_bytes] and one
   through the record path, advancing both clocks as rxbench does.
   Every datagram must get the same answer and the same reply bytes,
   and the servers must end alike. *)
let check_receive_paths name ds =
  let inplace, inplace_log = rx_server ()
  and record, record_log = rx_server () in
  let parse_errors = ref 0 and misdelivered = ref 0 in
  let replies st =
    List.map Packet.Segment.to_bytes (Tcpcore.Stack.poll_output st)
  in
  let same_replies i what =
    if replies inplace <> replies record then
      Alcotest.failf "%s: datagram %d: %s replies differ" name i what
  in
  Array.iteri
    (fun i d ->
      let got = Tcpcore.Stack.handle_bytes inplace d in
      let want = record_path record ~parse_errors ~misdelivered d in
      if got <> want then
        Alcotest.failf "%s: datagram %d: handle_bytes %s, record path %s" name i
          (match got with Ok () -> "Ok" | Error e -> e)
          (match want with Ok () -> "Ok" | Error e -> e);
      same_replies i "segment";
      if (i + 1) land 255 = 0 then begin
        let now = float_of_int i *. 1e-4 in
        Alcotest.(check int)
          (Printf.sprintf "%s: timer actions at %d" name i)
          (Tcpcore.Stack.advance_clock record ~now)
          (Tcpcore.Stack.advance_clock inplace ~now);
        same_replies i "timer"
      end)
    ds;
  Alcotest.(check bool) (name ^ ": connections made") true
    (Tcpcore.Stack.connection_count inplace > 0);
  Alcotest.(check (list string)) (name ^ ": connections")
    (connections record) (connections inplace);
  Alcotest.(check bool) (name ^ ": deliveries") true
    (Buffer.contents record_log = Buffer.contents inplace_log);
  let drops =
    List.map
      (fun (reason, n) ->
        ( reason,
          match reason with
          | "parse-error" -> n + !parse_errors
          | "wrong-destination" -> n + !misdelivered
          | _ -> n ))
      (Tcpcore.Stack.drop_counts record)
  in
  Alcotest.(check (list (pair string int))) (name ^ ": drops") drops
    (Tcpcore.Stack.drop_counts inplace);
  Alcotest.(check bool) (name ^ ": lookup stats") true
    (Demux.Lookup_stats.snapshot (Tcpcore.Stack.demux_stats record)
    = Demux.Lookup_stats.snapshot (Tcpcore.Stack.demux_stats inplace));
  List.iter
    (fun (what, f) ->
      Alcotest.(check int) (name ^ ": " ^ what) (f record) (f inplace))
    [ ("segments sent", Tcpcore.Stack.segments_sent);
      ("RSTs sent", Tcpcore.Stack.rsts_sent);
      ("retransmissions", Tcpcore.Stack.retransmissions) ];
  !parse_errors

(* Every rewrite the injector knows, tuple flips included. *)
let rx_faults =
  Fault.Plan.v ~corrupt:0.05 ~truncate:0.05 ~duplicate:0.05 ~reorder:0.05
    ~drop:0.02 ~tuple_flip:0.05 ()

let receive_path_case (name, trace) =
  Alcotest.test_case name `Quick (fun () ->
      let ds = trace () in
      Alcotest.(check int) (name ^ ": clean trace parses") 0
        (check_receive_paths name ds);
      let faulted =
        Fault.Injector.feed_all
          (Fault.Injector.create ~seed:7 rx_faults)
          (Array.to_list ds)
      in
      Alcotest.(check bool) (name ^ " through faults: some rejected") true
        (check_receive_paths (name ^ " through faults") (Array.of_list faulted)
        > 0))

(* The wheel's counters, read through [register_obs] after a
   synflood-shaped replay whose clock then runs on in rxbench's steps
   through every SYN-ACK's retransmissions: an advance reads about one
   slot head per fired timer, and an insert walks back past few
   entries. *)
let test_stack_timer_obs () =
  let st, _ = rx_server () in
  let obs = Obs.Registry.create () in
  Tcpcore.Stack.register_obs ~prefix:"rx" st obs;
  let advance now =
    ignore (Tcpcore.Stack.advance_clock st ~now);
    ignore (Tcpcore.Stack.poll_output st)
  in
  let ds = rx_synflood () in
  Array.iteri
    (fun i d ->
      ignore (Tcpcore.Stack.handle_bytes st d);
      ignore (Tcpcore.Stack.poll_output st);
      if (i + 1) land 255 = 0 then advance (float_of_int i *. 1e-4))
    ds;
  for step = Array.length ds / 256 to 4_000 do
    advance (float_of_int step *. 0.0256)
  done;
  let metrics = Obs.Registry.snapshot obs in
  let value name =
    match Obs.Registry.find metrics ("rx.timer." ^ name) with
    | Some { Obs.Registry.data = Obs.Registry.Counter n; help; _ } ->
      Alcotest.(check bool) (name ^ " has help") true (help <> "");
      n
    | Some { Obs.Registry.data = Obs.Registry.Gauge g; help; _ } ->
      Alcotest.(check bool) (name ^ " has help") true (help <> "");
      int_of_float g
    | Some _ | None -> Alcotest.failf "no timer.%s" name
  in
  let scheduled = value "scheduled" and fired = value "fired"
  and visited = value "visited" and steps = value "insert_steps"
  and pending = value "pending" in
  Alcotest.(check bool)
    (Printf.sprintf "%d timers fired" fired)
    true (fired > 1_000);
  Alcotest.(check bool)
    (Printf.sprintf "visited %d <= 2 x fired %d" visited fired)
    true
    (visited <= 2 * fired);
  Alcotest.(check bool)
    (Printf.sprintf "insert steps %d <= 4 x scheduled %d" steps scheduled)
    true
    (steps <= 4 * scheduled);
  Alcotest.(check int) "scheduled = fired + pending (nothing cancelled)"
    scheduled (fired + pending)

let receive_path_cases =
  List.map receive_path_case
    [ ( "oltp",
        rx_trace ~close_after:false ~clients:200 ~requests:30 ~payload:64
          ~interleave:Sim.Segment_workload.Shuffled );
      ( "bulk",
        rx_trace ~close_after:false ~clients:8 ~requests:400 ~payload:1460
          ~interleave:Sim.Segment_workload.Sequential );
      ("synflood", rx_synflood);
      ( "oltp with client FINs",
        rx_trace ~close_after:true ~clients:50 ~requests:10 ~payload:64
          ~interleave:Sim.Segment_workload.Shuffled ) ]

(* A warm duplicate pure ACK, from bytes through [handle_bytes] and
   [poll_output], allocates nothing under every registry spec but the
   splay tree, whose rotations rebuild its nodes: the stack's one
   lookup is each table's own, on the words it reads in place.  With
   200 connections established, the list tables walk a long chain to
   the first client's PCB. *)
let test_stack_dup_ack_words_every_spec () =
  List.iter
    (fun name ->
      let spec = Result.get_ok (Demux.Registry.spec_of_string name) in
      let server =
        Tcpcore.Stack.create ~demux:spec ~local_addr:server_addr ()
      in
      Tcpcore.Stack.listen server ~port:8888 ~on_data:(fun _ _ _ -> ());
      let wire port ~flags ~seq ~ack =
        Packet.Segment.to_bytes
          (Packet.Segment.make ~flags ~seq:(Int32.of_int seq)
             ~ack_number:(Int32.of_int ack) ~src:(client_ep port)
             ~dst:server_ep ())
      in
      let handle d =
        (match Tcpcore.Stack.handle_bytes server d with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        Tcpcore.Stack.poll_output server
      in
      let establish port =
        match
          handle (wire port ~flags:Packet.Tcp_header.flag_syn ~seq:100 ~ack:0)
        with
        | [ synack ] ->
          let iss =
            Int32.to_int synack.Packet.Segment.tcp.Packet.Tcp_header.seq
            land 0xFFFFFFFF
          in
          ignore
            (handle
               (wire port ~flags:Packet.Tcp_header.flag_ack ~seq:101
                  ~ack:(iss + 1)));
          iss
        | _ -> Alcotest.failf "%s: expected one SYN-ACK" name
      in
      let isses = List.init 200 (fun k -> establish (5000 + k)) in
      Alcotest.(check int) (name ^ ": established") 200
        (Tcpcore.Stack.connection_count server);
      let dup =
        wire 5000 ~flags:Packet.Tcp_header.flag_ack ~seq:101
          ~ack:(List.hd isses + 1)
      in
      let run () = ignore (Sys.opaque_identity (handle dup)) in
      run ();
      let before = Gc.minor_words () in
      for _ = 1 to 1_000 do
        run ()
      done;
      Alcotest.(check (float 0.0))
        (name ^ ": duplicate pure ACK words")
        0.0
        (Gc.minor_words () -. before))
    [ "linear"; "bsd"; "mtf"; "sr-cache"; "sequent-19"; "hashed-mtf-19";
      "conn-id"; "resizing-hash"; "lru-cache-8"; "cuckoo";
      "guarded-sequent-19" ]

let () =
  Alcotest.run "tcpcore"
    [ ( "state-machine",
        [ Alcotest.test_case "server handshake" `Quick test_three_way_handshake_server;
          Alcotest.test_case "client handshake" `Quick test_three_way_handshake_client;
          Alcotest.test_case "simultaneous open" `Quick test_simultaneous_open;
          Alcotest.test_case "active close" `Quick test_active_close_path;
          Alcotest.test_case "passive close" `Quick test_passive_close_path;
          Alcotest.test_case "simultaneous close" `Quick test_simultaneous_close;
          Alcotest.test_case "RST teardown" `Quick test_rst_tears_down;
          Alcotest.test_case "undefined transitions" `Quick test_undefined_transitions;
          Alcotest.test_case "synchronized states" `Quick test_synchronized_states;
          Alcotest.test_case "valid_events" `Quick test_valid_events_consistency ] );
      ( "conn-table",
        [ Alcotest.test_case "lookup priority" `Quick test_conn_table_lookup_priority;
          Alcotest.test_case "warm lookup words" `Quick
            test_conn_table_warm_lookup_alloc;
          Alcotest.test_case "listen validation" `Quick test_conn_table_listen_validation;
          Alcotest.test_case "a port's listener answers every local address"
            `Quick test_conn_table_port_listener_any_address;
          Alcotest.test_case "remove" `Quick test_conn_table_remove ] );
      ( "stack",
        [ Alcotest.test_case "handshake" `Quick test_stack_handshake;
          Alcotest.test_case "data echo" `Quick test_stack_data_echo;
          Alcotest.test_case "duplicate data" `Quick
            test_stack_duplicate_data_reacked_once;
          Alcotest.test_case "full close" `Quick test_stack_full_close;
          Alcotest.test_case "RST on unknown" `Quick test_stack_rst_on_unknown;
          Alcotest.test_case "RST teardown" `Quick test_stack_rst_teardown;
          Alcotest.test_case "send validation" `Quick test_stack_send_validation;
          Alcotest.test_case "handle_bytes" `Quick test_stack_handle_bytes;
          Alcotest.test_case "demux metering" `Quick test_stack_demux_metering;
          Alcotest.test_case "warm receive words" `Quick
            test_stack_warm_receive_words;
          Alcotest.test_case "duplicate pure ACK words, every spec" `Quick
            test_stack_dup_ack_words_every_spec;
          Alcotest.test_case "rejected datagram words" `Quick
            test_stack_rejected_words;
          Alcotest.test_case "accepted SYN words" `Quick
            test_stack_accepted_syn_words;
          Alcotest.test_case "SYN, SYN-ACK and FIN on the template" `Quick
            test_stack_template_segments;
          Alcotest.test_case "unplaceable timeouts" `Quick
            test_stack_rejects_unplaceable_timeouts;
          Alcotest.test_case "timer counters" `Quick test_stack_timer_obs;
          Alcotest.test_case "TIME-WAIT reaping" `Quick test_stack_time_wait_reaping;
          Alcotest.test_case "retransmission recovers loss" `Quick
            test_stack_retransmission_recovers_loss;
          Alcotest.test_case "RTO exponential backoff" `Quick
            test_stack_rto_backoff;
          Alcotest.test_case "retransmit attempts bounded" `Quick
            test_stack_retransmit_attempts_bounded;
          Alcotest.test_case "RTO jitter bounds" `Quick
            test_stack_rto_jitter_bounds;
          Alcotest.test_case "RTO jitter deterministic" `Quick
            test_stack_rto_jitter_deterministic;
          Alcotest.test_case "overload tiers" `Quick
            test_stack_overload_tiers;
          Alcotest.test_case "drop codes decode to their reason" `Quick
            test_stack_drop_codes;
          Alcotest.test_case "overload probe read once per datagram" `Quick
            test_stack_overload_probe_once;
          Alcotest.test_case "fuzzed bytes never raise" `Quick
            test_stack_fuzz_never_raises;
          Alcotest.test_case "ack cancels retransmission" `Quick
            test_stack_ack_cancels_retransmission;
          Alcotest.test_case "SYN retransmission" `Quick
            test_stack_syn_retransmission;
          Alcotest.test_case "adopted connection delivers to the adopter"
            `Quick test_stack_adopted_connection_delivers_to_adopter;
          Alcotest.test_case "adopt re-arms the RTO" `Quick
            test_stack_adopt_rearms_rto;
          Alcotest.test_case "simultaneous open" `Quick test_stack_simultaneous_open;
          Alcotest.test_case "many clients" `Quick test_stack_many_clients ] );
      ( "timer-wheel",
        [ Alcotest.test_case "fires in order" `Quick test_wheel_fires_in_order;
          Alcotest.test_case "cancel" `Quick test_wheel_cancel;
          Alcotest.test_case "wraparound" `Quick test_wheel_wraparound;
          Alcotest.test_case "small steps" `Quick test_wheel_many_small_steps;
          Alcotest.test_case "full revolution" `Quick
            test_wheel_full_revolution;
          Alcotest.test_case "multi-revolution delay" `Quick
            test_wheel_multi_revolution_delay;
          Alcotest.test_case "boundary landing" `Quick
            test_wheel_boundary_landing;
          Alcotest.test_case "validation" `Quick test_wheel_validation;
          Alcotest.test_case "unplaceable times" `Quick
            test_wheel_unplaceable_times;
          Alcotest.test_case "stale handles" `Quick test_wheel_stale_handles;
          Alcotest.test_case "fire reenters" `Quick test_wheel_fire_reenters;
          Alcotest.test_case "fire raises" `Quick test_wheel_fire_raises;
          Alcotest.test_case "warm words" `Quick test_wheel_warm_words;
          Alcotest.test_case "domain ownership" `Quick test_wheel_ownership;
          Alcotest.test_case "ownership follows first use" `Quick
            test_wheel_owned_by_spawning_domain ] );
      ("receive-path", receive_path_cases);
      ("properties", qcheck_cases) ]
