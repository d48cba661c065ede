type row = {
  algorithm : string;
  predicted : float;
  simulated : float;
  ci95 : float;
  ratio : float;
}

let predicted_cost params (spec : Demux.Registry.spec) =
  match spec with
  | Demux.Registry.Bsd -> Some (Analysis.Bsd_model.cost params)
  | Demux.Registry.Linear ->
    (* No cache: every packet pays the mean scan (N+1)/2. *)
    let n = float_of_int params.Analysis.Tpca_params.users in
    Some ((n +. 1.0) /. 2.0)
  | Demux.Registry.Mtf -> Some (Analysis.Mtf_model.overall_cost params)
  | Demux.Registry.Sr_cache ->
    Some (Analysis.Srcache_model.overall_cost params)
  | Demux.Registry.Sequent { chains; _ } ->
    Some (Analysis.Sequent_model.cost params ~chains)
  | Demux.Registry.Conn_id _ -> Some 1.0
  | Demux.Registry.Lru_cache { entries } ->
    Some (Analysis.Lru_model.cost params ~entries)
  | Demux.Registry.Hashed_mtf _ | Demux.Registry.Resizing_hash
  | Demux.Registry.Splay | Demux.Registry.Cuckoo
  | Demux.Registry.Guarded _ ->
    None

let compare ?obs ?tracer ?config params specs =
  let config =
    match config with
    | Some c -> c
    | None -> Tpca_workload.default_config params
  in
  List.map
    (fun spec ->
      let report = Tpca_workload.run ?obs ?tracer config spec in
      let predicted =
        match predicted_cost params spec with
        | Some v -> v
        | None -> Float.nan
      in
      { algorithm = report.Report.algorithm; predicted;
        simulated = report.Report.overall_mean;
        ci95 = report.Report.overall_ci95;
        ratio = report.Report.overall_mean /. predicted })
    specs

let pp_rows ppf rows =
  let w = Report.name_width (List.map (fun r -> r.algorithm) rows) in
  Format.fprintf ppf "%-*s %12s %12s %10s %8s@." w "algorithm" "predicted"
    "simulated" "+/-95%" "ratio";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-*s %12.2f %12.2f %10.2f %8.3f@." w r.algorithm
        r.predicted r.simulated r.ci95 r.ratio)
    rows
