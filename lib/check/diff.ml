type mismatch = {
  subject : string;
  step : int;
  op : Op.op option;
  what : string;
}

let pp_mismatch ppf m =
  match m.op with
  | Some op ->
    Format.fprintf ppf "%s @@ step %d (%a): %s" m.subject m.step Op.pp_op op
      m.what
  | None -> Format.fprintf ppf "%s @@ quiesce (step %d): %s" m.subject m.step
              m.what

(* The counters the oracle can predict exactly; everything else in a
   snapshot is algorithm-specific and only has to satisfy invariants. *)
type counts = {
  mutable lookups : int;
  mutable found : int;
  mutable not_found : int;
  mutable inserts : int;
  mutable removes : int;
  mutable evictions : int;
  mutable rejections : int;
}

let counts () =
  { lookups = 0; found = 0; not_found = 0; inserts = 0; removes = 0;
    evictions = 0; rejections = 0 }

exception Fail of string
exception Stop of mismatch

let flow_str = Packet.Flow.to_string

let pair_str (flow, v) = Printf.sprintf "%s=%d" (flow_str flow) v

let check_result ~what expected actual =
  match (expected, actual) with
  | None, None -> ()
  | Some _, None ->
    raise (Fail (Printf.sprintf "%s: oracle hit, subject missed" what))
  | None, Some (flow, v) ->
    raise
      (Fail
         (Printf.sprintf "%s: oracle miss, subject returned %s" what
            (pair_str (flow, v))))
  | Some ev, Some (flow, v) ->
    if v <> ev then
      raise
        (Fail
           (Printf.sprintf "%s: stale PCB — oracle payload %d, subject %s"
              what ev
              (pair_str (flow, v))))

let check_pcb_flow ~what queried actual =
  match actual with
  | Some (flow, _) when not (Packet.Flow.equal flow queried) ->
    raise
      (Fail
         (Printf.sprintf "%s: returned PCB for %s, queried %s" what
            (flow_str flow) (flow_str queried)))
  | Some _ | None -> ()

let audit_contents_exn ~contents:got ~length:slen oracle =
  let want = Oracle.contents oracle in
  let rec compare i want got =
    match (want, got) with
    | [], [] -> ()
    | (f, v) :: _, [] ->
      raise
        (Fail
           (Printf.sprintf "contents: missing resident %s" (pair_str (f, v))))
    | [], (f, v) :: _ ->
      raise
        (Fail
           (Printf.sprintf "contents: phantom resident %s" (pair_str (f, v))))
    | (wf, wv) :: wrest, (gf, gv) :: grest ->
      if not (Packet.Flow.equal wf gf) || wv <> gv then
        raise
          (Fail
             (Printf.sprintf "contents: entry %d is %s, oracle has %s" i
                (pair_str (gf, gv))
                (pair_str (wf, wv))))
      else compare (i + 1) wrest grest
  in
  compare 0 want got;
  let olen = Oracle.length oracle in
  if olen <> slen then
    raise
      (Fail (Printf.sprintf "length: subject %d, oracle %d" slen olen))

let audit_contents (subject : Subject.t) oracle =
  audit_contents_exn
    ~contents:(subject.Subject.contents ())
    ~length:(subject.Subject.length ())
    oracle

let audit_snapshot_exn (s : Demux.Lookup_stats.snapshot) exp =
  let exact name got want =
    if got <> want then
      raise
        (Fail (Printf.sprintf "stats.%s: subject %d, oracle %d" name got want))
  in
  exact "lookups" s.Demux.Lookup_stats.lookups exp.lookups;
  exact "found" s.Demux.Lookup_stats.found exp.found;
  exact "not_found" s.Demux.Lookup_stats.not_found exp.not_found;
  exact "inserts" s.Demux.Lookup_stats.inserts exp.inserts;
  exact "removes" s.Demux.Lookup_stats.removes exp.removes;
  exact "evictions" s.Demux.Lookup_stats.evictions exp.evictions;
  exact "rejections" s.Demux.Lookup_stats.rejections exp.rejections;
  let invariant name ok =
    if not ok then raise (Fail (Printf.sprintf "stats invariant: %s" name))
  in
  invariant "cache_hits <= lookups"
    (s.Demux.Lookup_stats.cache_hits <= s.Demux.Lookup_stats.lookups);
  invariant "pcbs_examined >= found (every hit examines >= 1)"
    (s.Demux.Lookup_stats.pcbs_examined >= s.Demux.Lookup_stats.found);
  invariant "max_examined <= pcbs_examined"
    (s.Demux.Lookup_stats.max_examined <= s.Demux.Lookup_stats.pcbs_examined);
  invariant "found > 0 implies max_examined >= 1"
    (s.Demux.Lookup_stats.found = 0 || s.Demux.Lookup_stats.max_examined >= 1)

let audit_stats (subject : Subject.t) exp =
  audit_snapshot_exn (subject.Subject.stats ()) exp

(* Result-typed wrappers over the audit cores, for checkers (the chaos
   auditor) that compare raw pipeline output rather than a live
   Subject.t. *)
let audit_contents_against ~contents ~length oracle =
  match audit_contents_exn ~contents ~length oracle with
  | () -> Ok ()
  | exception Fail what -> Error what

let audit_snapshot snapshot exp =
  match audit_snapshot_exn snapshot exp with
  | () -> Ok ()
  | exception Fail what -> Error what

let run_subject ?(checkpoint_every = 512) (subject : Subject.t) program =
  if checkpoint_every <= 0 then
    invalid_arg "Diff.run_subject: checkpoint_every <= 0";
  let oracle = Oracle.create () in
  let shadow = Option.map Demux.Guarded.create subject.Subject.guard in
  let exp = counts () in
  let apply step (op : Op.op) =
    let flow = op.Op.flow in
    match op.Op.kind with
    | Op.Insert ->
      if not (Oracle.mem oracle flow) then begin
        let evict victim =
          match Oracle.remove oracle victim with
          | Some _ ->
            exp.removes <- exp.removes + 1;
            exp.evictions <- exp.evictions + 1
          | None ->
            raise
              (Fail
                 (Printf.sprintf
                    "shadow guard evicted %s, which the oracle never held"
                    (flow_str victim)))
        in
        Option.iter
          (fun guard -> List.iter evict (Demux.Guarded.admit guard flow))
          shadow;
        subject.Subject.insert flow step;
        Oracle.insert oracle flow step;
        Option.iter (fun guard -> Demux.Guarded.note_inserted guard flow) shadow;
        exp.inserts <- exp.inserts + 1
      end
    | Op.Lookup | Op.Ack_lookup ->
      let kind =
        match op.Op.kind with
        | Op.Ack_lookup -> Demux.Types.Pure_ack
        | _ -> Demux.Types.Data
      in
      let want = Oracle.lookup oracle flow in
      let got = subject.Subject.lookup ~kind flow in
      exp.lookups <- exp.lookups + 1;
      if want = None then exp.not_found <- exp.not_found + 1
      else begin
        exp.found <- exp.found + 1;
        Option.iter
          (fun guard -> Demux.Guarded.note_touched guard flow)
          shadow
      end;
      check_pcb_flow ~what:"lookup" flow got;
      check_result ~what:"lookup" want got
    | Op.Remove ->
      let want = Oracle.remove oracle flow in
      let got = subject.Subject.remove flow in
      if want <> None then begin
        exp.removes <- exp.removes + 1;
        Option.iter
          (fun guard -> Demux.Guarded.note_removed guard flow)
          shadow
      end;
      check_pcb_flow ~what:"remove" flow got;
      check_result ~what:"remove" want got
    | Op.Send -> subject.Subject.note_send flow
  in
  let total = Array.length program.Op.ops in
  let name = subject.Subject.name in
  let fail_of ~step ~op what = { subject = name; step; op; what } in
  try
    for step = 0 to total - 1 do
      let op = program.Op.ops.(step) in
      (try apply step op with
      | Fail what -> raise (Stop (fail_of ~step ~op:(Some op) what))
      | Stop _ as stop -> raise stop
      | exn ->
        raise
          (Stop
             (fail_of ~step ~op:(Some op)
                (Printf.sprintf "raised %s" (Printexc.to_string exn)))));
      if (step + 1) mod checkpoint_every = 0 then
        try
          audit_contents subject oracle;
          audit_stats subject exp
        with Fail what -> raise (Stop (fail_of ~step ~op:(Some op) what))
    done;
    (try
       audit_contents subject oracle;
       audit_stats subject exp
     with Fail what -> raise (Stop (fail_of ~step:total ~op:None what)));
    []
  with Stop mismatch -> [ mismatch ]

type summary = {
  subjects : string list;
  programs : int;
  ops : int;
  mismatches : mismatch list;
}

let run ?obs ?checkpoint_every factories programs =
  let programs_counter, ops_counter, mismatch_counter =
    match obs with
    | None -> (ref 0, ref 0, ref 0)
    | Some obs ->
      ( Obs.Registry.counter obs ~help:"programs run by the differential oracle"
          "check.programs",
        Obs.Registry.counter obs
          ~help:"operation applications (op x subject) executed" "check.ops",
        Obs.Registry.counter obs
          ~help:"differential-oracle disagreements found" "check.mismatches" )
  in
  let subjects = ref [] in
  let mismatches = ref [] in
  let ops = ref 0 in
  List.iter
    (fun program ->
      incr programs_counter;
      List.iter
        (fun factory ->
          let subject = factory () in
          if not (List.mem subject.Subject.name !subjects) then
            subjects := subject.Subject.name :: !subjects;
          let found = run_subject ?checkpoint_every subject program in
          ops := !ops + Op.length program;
          ops_counter := !ops_counter + Op.length program;
          mismatch_counter := !mismatch_counter + List.length found;
          mismatches := List.rev_append found !mismatches)
        factories)
    programs;
  { subjects = List.rev !subjects;
    programs = List.length programs;
    ops = !ops;
    mismatches = List.rev !mismatches }
