(* [rxbench --compare A B]: two sets of run records (the lines
   [--json FILE] appends), judged metric by metric against the bounds
   in BENCHMARK.json. *)

(* Usage and input errors: a message and exit 2. *)
let fail fmt =
  Printf.ksprintf (fun s -> prerr_endline ("rxbench: " ^ s); exit 2) fmt

let read_json path =
  match Obs.Json.of_file path with
  | Ok j -> j
  | Error e -> fail "%s: %s" path e

let records path =
  let ic = try open_in path with Sys_error e -> fail "%s" e in
  let rec go acc =
    match input_line ic with
    | exception End_of_file ->
      close_in ic;
      List.rev acc
    | "" -> go acc
    | line -> (
      match Obs.Json.of_string line with
      | Ok j -> go (j :: acc)
      | Error e -> fail "%s: %s" path e)
  in
  go []

let str key j = Option.bind (Obs.Json.member key j) Obs.Json.to_string_opt

(* The names, units, directions and bounds one section of
   BENCHMARK.json declares. *)
type declared = {
  name : string;
  unit_ : string;
  higher_better : bool;
  bound : float option;
}

let declared benchmark section =
  match Option.bind (Obs.Json.member section benchmark) Obs.Json.to_list_opt with
  | None -> fail "BENCHMARK.json has no %s list" section
  | Some l ->
    List.filter_map
      (fun j ->
        match (str "name" j, str "unit" j, str "better" j) with
        | Some name, Some unit_, Some better ->
          Some
            { name; unit_; higher_better = better = "higher";
              bound =
                Option.bind (Obs.Json.member "bound" j) Obs.Json.to_float_opt }
        | _ -> None)
      l

(* (seed, value) of [metric] in every record of [workload]. *)
let values recs ~workload ~metric =
  List.filter_map
    (fun r ->
      if str "workload" r <> Some workload then None
      else
        match
          ( Option.bind (Obs.Json.member "seed" r) Obs.Json.to_int_opt,
            Option.bind (Obs.Json.member "metrics" r) (Obs.Json.member metric) )
        with
        | Some seed, Some v -> (
          match Option.bind (Obs.Json.member "value" v) Obs.Json.to_float_opt with
          | Some x -> Some (seed, x)
          | None -> None)
        | _ -> None)
    recs

let summary xs =
  let a = Array.of_list (List.map snd xs) in
  let q1, q3 = Stats.quartiles a in
  (Stats.median a, q1, q3)

(* Exact metrics must agree run for run on every seed both sides ran.
   Timings: worse when the median moved the wrong way by more than the
   bound; better when B wins at least nine pairs in ten and its median
   beats A's by more than A's own quartile spread; within bound when
   neither holds and both spreads are inside the bound; unresolved
   otherwise. *)
let verdict (d : declared) ~exact a b =
  let ma, q1a, q3a = summary a and mb, q1b, q3b = summary b in
  if exact then
    let common = List.filter (fun (s, _) -> List.mem_assoc s b) a in
    let agree =
      if common = [] then ma = mb
      else List.for_all (fun (s, x) -> List.assoc s b = x) common
    in
    if agree then "same" else "differs"
  else
    let worse_by =
      if d.higher_better then (ma -. mb) /. Float.abs ma
      else (mb -. ma) /. Float.abs ma
    in
    let spread q1 q3 m = (q3 -. q1) /. Float.abs m in
    (* Runs paired in file order; ties count for neither side. *)
    let k = min (List.length a) (List.length b) in
    let first l = List.map snd (List.filteri (fun i _ -> i < k) l) in
    let pairs = List.combine (first a) (first b) in
    let count p = List.length (List.filter p pairs) in
    let share n = k > 0 && float_of_int n >= 0.9 *. float_of_int k in
    let won =
      share (count (fun (x, y) -> if d.higher_better then y > x else y < x))
    and lost =
      share (count (fun (x, y) -> if d.higher_better then y < x else y > x))
    in
    match d.bound with
    | Some bound when worse_by > bound -> "worse"
    | _ when won && -.worse_by > spread q1a q3a ma -> "better"
    | None when lost && worse_by > spread q1a q3a ma -> "worse"
    | Some bound
      when spread q1a q3a ma <= bound && spread q1b q3b mb <= bound ->
      "within bound"
    | _ -> "unresolved"

let run ~benchmark path_a path_b =
  let benchmark = read_json benchmark in
  let declared =
    declared benchmark "end_to_end" @ declared benchmark "per_layer"
  in
  let ra = records path_a and rb = records path_b in
  let workloads =
    List.sort_uniq compare (List.filter_map (str "workload") (ra @ rb))
  in
  let bad = ref 0 in
  Printf.printf "%-9s %-38s %14s %23s %14s %23s %8s  %s\n" "workload" "metric"
    "A median" "A quartiles" "B median" "B quartiles" "change" "verdict";
  List.iter
    (fun workload ->
      List.iter
        (fun (d : declared) ->
          let a = values ra ~workload ~metric:d.name
          and b = values rb ~workload ~metric:d.name in
          if a <> [] && b <> [] then begin
            let exact =
              match Catalog.find d.name with Some c -> c.exact | None -> false
            in
            let v = verdict d ~exact a b in
            if v = "worse" || v = "differs" then incr bad;
            let ma, q1a, q3a = summary a and mb, q1b, q3b = summary b in
            Printf.printf
              "%-9s %-38s %14.6g [%10.6g %10.6g] %14.6g [%10.6g %10.6g] %+7.2f%%  %s\n"
              workload d.name ma q1a q3a mb q1b q3b
              (100.0 *. (mb -. ma) /. Float.abs ma)
              v
          end)
        declared)
    workloads;
  if !bad > 0 then exit 1
