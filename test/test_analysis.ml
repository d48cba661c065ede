(* Tests for the analytic models: every number the paper quotes, the
   closed-form/quadrature identities, and the qualitative shapes of
   Figures 4, 13 and 14. *)

let check_rel ?(tol = 1e-9) what expected actual =
  let err =
    if expected = 0.0 then Float.abs actual
    else Float.abs ((actual -. expected) /. expected)
  in
  if err > tol then
    Alcotest.failf "%s: expected %.10g, got %.10g (rel err %.3g)" what expected
      actual err

(* Paper tolerance: quoted values are rounded to integers. *)
let check_paper what paper actual =
  if Float.abs (actual -. paper) > 0.5 +. (paper *. 0.002) then
    Alcotest.failf "%s: paper says %.1f, we compute %.3f" what paper actual

let default = Analysis.Tpca_params.default
let params ?(users = 2000) ?(r = 0.2) ?(d = 0.001) () =
  Analysis.Tpca_params.v ~users ~response_time:r ~rtt:d ()

(* ------------------------------------------------------------------ *)
(* Parameters                                                          *)

let test_params_defaults () =
  Alcotest.(check int) "users" 2000 default.Analysis.Tpca_params.users;
  check_rel "think mean" 10.0 (Analysis.Tpca_params.think_time_mean default);
  check_rel "think cutoff" 100.0
    (Analysis.Tpca_params.think_time_cutoff default);
  Alcotest.(check int) "packets/txn at server" 2
    Analysis.Tpca_params.server_packets_per_transaction

let test_params_validation () =
  Alcotest.check_raises "negative users"
    (Invalid_argument "Tpca_params.v: negative users") (fun () ->
      ignore (Analysis.Tpca_params.v ~users:(-1) ()));
  Alcotest.check_raises "zero rate" (Invalid_argument "Tpca_params.v: rate <= 0")
    (fun () -> ignore (Analysis.Tpca_params.v ~users:10 ~rate:0.0 ()))

(* ------------------------------------------------------------------ *)
(* BSD (E2, E3)                                                        *)

let test_bsd_paper_values () =
  check_paper "E2: BSD cost at N=2000" 1001.0 (Analysis.Bsd_model.cost default);
  check_rel "hit rate 1/N" 0.0005 (Analysis.Bsd_model.hit_rate default);
  (* E3: the paper's printed '1.9 x 10-3' is 1.9e-35 (see DESIGN.md). *)
  let train = Analysis.Bsd_model.train_probability default in
  Alcotest.(check bool)
    (Printf.sprintf "E3 train probability %.3g in [1.5e-35, 2.5e-35]" train)
    true
    (train > 1.5e-35 && train < 2.5e-35)

let test_bsd_asymptote () =
  (* Approaches N/2 for large N. *)
  let p = params ~users:100_000 () in
  check_rel ~tol:1e-3 "N/2 asymptote" 50_000.5 (Analysis.Bsd_model.cost p)

let test_bsd_small_n () =
  (* One connection: cache probe always hits after the first packet;
     the formula gives 1 + 0 = 1. *)
  check_rel "N=1" 1.0 (Analysis.Bsd_model.cost (params ~users:1 ()))

(* ------------------------------------------------------------------ *)
(* MTF (E1, E4, E5, E6, E15)                                           *)

let test_expected_preceding_shape () =
  let p = default in
  check_rel "N(0) = 0" 0.0 (Analysis.Mtf_model.expected_preceding p 0.0);
  (* Figure 4 rises to N-1. *)
  let at_50 = Analysis.Mtf_model.expected_preceding p 50.0 in
  Alcotest.(check bool) "N(50) ~ 1985" true (at_50 > 1980.0 && at_50 < 1999.0);
  let at_10 = Analysis.Mtf_model.expected_preceding p 10.0 in
  check_rel ~tol:1e-6 "N(10) = 1999(1-e^-1)" (1999.0 *. (1.0 -. Float.exp (-1.0))) at_10;
  (* Monotone increasing. *)
  let previous = ref (-1.0) in
  for i = 0 to 50 do
    let v = Analysis.Mtf_model.expected_preceding p (float_of_int i) in
    if v < !previous then Alcotest.failf "N(T) not monotone at %d" i;
    previous := v
  done

let test_equation3_sum_equals_closed_form () =
  List.iter
    (fun (users, t) ->
      let p = params ~users () in
      check_rel ~tol:1e-8
        (Printf.sprintf "Eq 3 sum = closed form (N=%d, T=%g)" users t)
        (Analysis.Mtf_model.expected_preceding p t)
        (Analysis.Mtf_model.expected_preceding_sum p t))
    [ (10, 1.0); (100, 5.0); (2000, 10.0); (2000, 0.1); (5000, 30.0) ]

let test_mtf_paper_values () =
  List.iter2
    (fun (paper_entry, paper_ack, paper_overall) r ->
      let p = params ~r () in
      check_paper
        (Printf.sprintf "E4 entry R=%g" r)
        paper_entry (Analysis.Mtf_model.entry_cost p);
      check_paper
        (Printf.sprintf "E5 ack R=%g" r)
        paper_ack (Analysis.Mtf_model.ack_cost p);
      check_paper
        (Printf.sprintf "E6 overall R=%g" r)
        paper_overall
        (Analysis.Mtf_model.overall_cost p))
    [ (1019.0, 78.0, 549.0); (1045.0, 190.0, 618.0); (1086.0, 362.0, 724.0);
      (1150.0, 659.0, 904.0) ]
    [ 0.2; 0.5; 1.0; 2.0 ]

let test_mtf_entry_closed_form_vs_quadrature () =
  List.iter
    (fun (users, r) ->
      let p = params ~users ~r () in
      check_rel ~tol:1e-6
        (Printf.sprintf "Eq 5 quadrature (N=%d R=%g)" users r)
        (Analysis.Mtf_model.entry_cost p)
        (Analysis.Mtf_model.entry_cost_quadrature p))
    [ (2000, 0.2); (2000, 2.0); (100, 0.5); (5000, 1.0) ]

let test_mtf_worse_than_bsd_on_entry () =
  (* The paper: entry performance is somewhat worse than BSD's 1001. *)
  let p = default in
  Alcotest.(check bool) "entry > BSD" true
    (Analysis.Mtf_model.entry_cost p > Analysis.Bsd_model.cost p);
  Alcotest.(check bool) "overall < BSD" true
    (Analysis.Mtf_model.overall_cost p < Analysis.Bsd_model.cost p)

let test_mtf_deterministic_worst_case () =
  check_rel "E15 deterministic think" 2000.0
    (Analysis.Mtf_model.entry_cost_deterministic default)

(* ------------------------------------------------------------------ *)
(* SR cache (E7)                                                       *)

let test_srcache_paper_values () =
  List.iter2
    (fun paper d ->
      check_paper
        (Printf.sprintf "E7 overall D=%gms" (d *. 1000.0))
        paper
        (Analysis.Srcache_model.overall_cost (params ~d ())))
    [ 667.0; 993.0; 1002.0 ]
    [ 0.001; 0.010; 0.100 ]

let test_srcache_closed_forms_vs_quadrature () =
  List.iter
    (fun (users, r, d) ->
      let p = params ~users ~r ~d () in
      check_rel ~tol:1e-6
        (Printf.sprintf "Eq 11 (N=%d R=%g D=%g)" users r d)
        (Analysis.Srcache_model.transaction_cost_long_think p)
        (Analysis.Srcache_model.transaction_cost_long_think_quadrature p);
      check_rel ~tol:1e-5
        (Printf.sprintf "Eq 14 (N=%d R=%g D=%g)" users r d)
        (Analysis.Srcache_model.transaction_cost_short_think p)
        (Analysis.Srcache_model.transaction_cost_short_think_quadrature p))
    [ (2000, 0.2, 0.001); (2000, 0.2, 0.1); (500, 1.0, 0.01); (50, 0.5, 0.002) ]

let test_srcache_single_user () =
  (* N=1: the cache always holds the only PCB; cost 1 per packet. *)
  check_rel ~tol:1e-9 "N=1 costs 1" 1.0
    (Analysis.Srcache_model.overall_cost (params ~users:1 ()))

let test_srcache_approaches_miss_cost () =
  (* As N grows the scheme converges to the uncached-plus-probes cost
     (N+5)/2. *)
  let p = params ~users:50_000 ~d:0.05 () in
  check_rel ~tol:1e-2 "asymptote (N+5)/2" 25_002.5
    (Analysis.Srcache_model.overall_cost p)

let test_srcache_survival_probabilities () =
  let p = default in
  (* Survival decays with think time and is within [0,1]. *)
  let s1 = Analysis.Srcache_model.survival_probability_long_think p 1.0 in
  let s2 = Analysis.Srcache_model.survival_probability_long_think p 10.0 in
  Alcotest.(check bool) "decreasing" true (s2 < s1);
  Alcotest.(check bool) "bounded" true (s1 <= 1.0 && s2 >= 0.0)

(* ------------------------------------------------------------------ *)
(* Sequent (E8-E11)                                                    *)

let test_sequent_paper_values () =
  let p = default in
  (* E8: hit rate just over 0.95% at H=19. *)
  let hit = Analysis.Sequent_model.hit_rate p ~chains:19 in
  Alcotest.(check bool) "E8 hit rate" true (hit > 0.0094 && hit < 0.0096);
  (* E9: quiet probabilities ~1.5% and ~21%. *)
  let quiet19 = Analysis.Sequent_model.quiet_probability p ~chains:19 in
  let quiet51 = Analysis.Sequent_model.quiet_probability p ~chains:51 in
  Alcotest.(check bool)
    (Printf.sprintf "E9 quiet(19)=%.4f ~ 1.5%%" quiet19)
    true
    (quiet19 > 0.014 && quiet19 < 0.016);
  Alcotest.(check bool)
    (Printf.sprintf "E9 quiet(51)=%.4f ~ 21%%" quiet51)
    true
    (quiet51 > 0.20 && quiet51 < 0.23);
  (* E10: 53.0 refined vs 53.6 naive, >10% error at 51 chains. *)
  check_paper "E10 cost H=19" 53.0 (Analysis.Sequent_model.cost p ~chains:19);
  check_paper "E10 naive H=19" 53.6
    (Analysis.Sequent_model.cost_naive p ~chains:19);
  Alcotest.(check bool) "E10 naive error ~1% at 19" true
    (Analysis.Sequent_model.naive_error p ~chains:19 < 0.02);
  Alcotest.(check bool) "E10 naive error >10% at 51" true
    (Analysis.Sequent_model.naive_error p ~chains:51 > 0.10);
  (* E11: under 9 at H=100. *)
  let cost100 = Analysis.Sequent_model.cost p ~chains:100 in
  Alcotest.(check bool)
    (Printf.sprintf "E11 cost(100)=%.2f < 9" cost100)
    true (cost100 < 9.0)

let test_sequent_monotone_in_chains () =
  let p = default in
  let previous = ref Float.infinity in
  List.iter
    (fun chains ->
      let cost = Analysis.Sequent_model.cost p ~chains in
      if cost > !previous +. 1e-9 then
        Alcotest.failf "cost increased at H=%d" chains;
      previous := cost)
    [ 1; 2; 5; 10; 19; 51; 100; 500; 1000 ]

let test_sequent_h1_is_bsd () =
  (* One chain = BSD's structure; Equation 19 must give Equation 1. *)
  let p = default in
  check_rel "H=1 naive = BSD" (Analysis.Bsd_model.cost p)
    (Analysis.Sequent_model.cost_naive p ~chains:1)

let test_sequent_order_of_magnitude () =
  let p = default in
  let bsd = Analysis.Bsd_model.cost p in
  let sequent = Analysis.Sequent_model.cost p ~chains:19 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f / %.0f >= 10x" bsd sequent)
    true
    (bsd /. sequent >= 10.0)

let test_sequent_validation () =
  Alcotest.check_raises "0 chains" (Invalid_argument "Sequent_model: chains <= 0")
    (fun () -> ignore (Analysis.Sequent_model.cost default ~chains:0))

(* ------------------------------------------------------------------ *)
(* Figures (E1, E12, E13)                                              *)

let value_at series x =
  let _, y =
    Array.to_list series.Analysis.Comparison.points
    |> List.find (fun (px, _) -> px = x)
  in
  y

let test_figure4_series () =
  let series = Analysis.Comparison.figure4 () in
  Alcotest.(check int) "201 points" 201 (Array.length series.Analysis.Comparison.points);
  let x0, y0 = series.Analysis.Comparison.points.(0) in
  Alcotest.(check (float 1e-9)) "starts at origin x" 0.0 x0;
  Alcotest.(check (float 1e-9)) "starts at origin y" 0.0 y0;
  let _, y_end = series.Analysis.Comparison.points.(200) in
  Alcotest.(check bool) "approaches 1999" true (y_end > 1980.0 && y_end <= 1999.0)

let test_figure13_series () =
  let series = Analysis.Comparison.figure13 () in
  Alcotest.(check int) "six curves" 6 (List.length series);
  let labels = List.map (fun s -> s.Analysis.Comparison.label) series in
  List.iter
    (fun expected ->
      if not (List.mem expected labels) then
        Alcotest.failf "missing series %s" expected)
    [ "BSD"; "MTF 1.0"; "MTF 0.5"; "MTF 0.2"; "SR 1"; "SEQUENT" ];
  let bsd = List.find (fun s -> s.Analysis.Comparison.label = "BSD") series in
  let sequent =
    List.find (fun s -> s.Analysis.Comparison.label = "SEQUENT") series
  in
  let mtf02 =
    List.find (fun s -> s.Analysis.Comparison.label = "MTF 0.2") series
  in
  (* Paper shape at 10,000 users: BSD ~5000, Sequent ~260, MTF ~2720. *)
  let bsd_10k = value_at bsd 10000.0 in
  Alcotest.(check bool) "BSD ~ N/2" true (bsd_10k > 4990.0 && bsd_10k < 5010.0);
  let seq_10k = value_at sequent 10000.0 in
  Alcotest.(check bool) "Sequent ~ N/2H" true (seq_10k > 200.0 && seq_10k < 300.0);
  let mtf_10k = value_at mtf02 10000.0 in
  Alcotest.(check bool) "MTF in between" true
    (mtf_10k > seq_10k && mtf_10k < bsd_10k);
  (* Ordering holds across the whole sweep. *)
  Array.iteri
    (fun i (x, bsd_y) ->
      if x >= 1000.0 then begin
        let seq_y = snd sequent.Analysis.Comparison.points.(i) in
        if seq_y >= bsd_y then
          Alcotest.failf "sequent not below BSD at %g users" x
      end)
    bsd.Analysis.Comparison.points

let test_figure14_includes_sr10 () =
  let series = Analysis.Comparison.figure14 () in
  Alcotest.(check int) "seven curves" 7 (List.length series);
  Alcotest.(check bool) "has SR 10" true
    (List.exists (fun s -> s.Analysis.Comparison.label = "SR 10") series)

let test_sr_approaches_bsd_for_large_n () =
  (* Figure 13's story: SR asymptotically approaches BSD. *)
  let sr_small = Analysis.Srcache_model.overall_cost (params ~users:100 ()) in
  let bsd_small = Analysis.Bsd_model.cost (params ~users:100 ()) in
  Alcotest.(check bool) "SR wins when small" true (sr_small < bsd_small /. 1.5);
  let sr_big = Analysis.Srcache_model.overall_cost (params ~users:100_000 ()) in
  let bsd_big = Analysis.Bsd_model.cost (params ~users:100_000 ()) in
  Alcotest.(check bool) "SR ~ BSD when big" true
    (sr_big > bsd_big *. 0.95 && sr_big < bsd_big *. 1.05)

let test_mtf_improves_with_smaller_r () =
  (* Figure 13: MTF improves as the response time decreases. *)
  let costs =
    List.map (fun r -> Analysis.Mtf_model.overall_cost (params ~r ())) [ 0.2; 0.5; 1.0 ]
  in
  match costs with
  | [ c02; c05; c10 ] ->
    Alcotest.(check bool) "0.2 < 0.5 < 1.0" true (c02 < c05 && c05 < c10)
  | _ -> assert false

let test_tables () =
  let table = Analysis.Comparison.mtf_response_time_table [ 0.2; 2.0 ] in
  Alcotest.(check int) "rows" 2 (List.length table);
  let sweep = Analysis.Comparison.sequent_chain_sweep [ 19; 100 ] in
  (match sweep with
  | [ (19, cost19, naive19); (100, cost100, _) ] ->
    Alcotest.(check bool) "19 > 100" true (cost19 > cost100);
    Alcotest.(check bool) "naive above refined" true (naive19 > cost19)
  | _ -> Alcotest.fail "sweep shape")

(* ------------------------------------------------------------------ *)
(* Sensitivity and the hashed-MTF estimate                             *)

let test_chains_needed () =
  (* The paper's two sizing examples. *)
  Alcotest.(check int) "53 PCBs -> 19 chains" 19
    (Analysis.Sensitivity.chains_needed default ~target_cost:53.0);
  let for_9 = Analysis.Sensitivity.chains_needed default ~target_cost:9.0 in
  Alcotest.(check bool)
    (Printf.sprintf "9 PCBs -> ~100 chains (%d)" for_9)
    true
    (for_9 >= 90 && for_9 <= 110);
  (* Degenerate and boundary cases. *)
  Alcotest.(check int) "huge target -> 1 chain" 1
    (Analysis.Sensitivity.chains_needed default ~target_cost:10_000.0);
  Alcotest.check_raises "target below floor"
    (Invalid_argument "Sensitivity.chains_needed: target below the 1-PCB floor")
    (fun () ->
      ignore (Analysis.Sensitivity.chains_needed default ~target_cost:0.5));
  (* chains_needed is the tight bound: one fewer chain misses it. *)
  let h = Analysis.Sensitivity.chains_needed default ~target_cost:30.0 in
  Alcotest.(check bool) "tight" true
    (Analysis.Sequent_model.cost default ~chains:h <= 30.0
    && (h = 1 || Analysis.Sequent_model.cost default ~chains:(h - 1) > 30.0))

let test_sr_rejoins_bsd () =
  let n = Analysis.Sensitivity.sr_rejoins_bsd () in
  (* Before the crossover SR is still >5% better; after, within 5%. *)
  let ratio users =
    let p = params ~users () in
    Analysis.Srcache_model.overall_cost p /. Analysis.Bsd_model.cost p
  in
  Alcotest.(check bool) "after: within 5%" true (ratio n > 0.95);
  Alcotest.(check bool) "before: still ahead" true (ratio (n / 2) <= 0.95)

let test_mtf_sr_crossover () =
  match Analysis.Sensitivity.mtf_beats_sr_from () with
  | None -> Alcotest.fail "expected a crossover"
  | Some n ->
    let better users =
      let p = params ~users () in
      Analysis.Mtf_model.overall_cost p < Analysis.Srcache_model.overall_cost p
    in
    Alcotest.(check bool) "at n" true (better n);
    Alcotest.(check bool) "not just before" false (better (n - 1))

let test_gradients () =
  let g = Analysis.Sensitivity.cost_gradient_in_response_time default in
  check_rel ~tol:1e-6 "BSD insensitive to R" 0.0 (g `Bsd);
  Alcotest.(check bool) "MTF strongly sensitive" true (g `Mtf > 100.0);
  Alcotest.(check bool) "Sequent mildly sensitive" true
    (g (`Sequent 19) > 0.0 && g (`Sequent 19) < g `Mtf)

let test_sweep_2d () =
  let grid =
    Analysis.Sensitivity.sweep_2d ~users:[ 1000; 2000 ] ~chains:[ 19; 100 ]
  in
  Alcotest.(check int) "grid size" 4 (List.length grid);
  (* Row-major ordering and monotonicity along each axis. *)
  match grid with
  | [ (1000, 19, a); (1000, 100, b); (2000, 19, c); (2000, 100, d) ] ->
    Alcotest.(check bool) "more chains cheaper" true (b < a && d < c);
    Alcotest.(check bool) "more users dearer" true (c > a && d > b)
  | _ -> Alcotest.fail "unexpected grid layout"

(* ------------------------------------------------------------------ *)
(* LRU-K cache model (E24)                                             *)

let test_lru_model_k1_matches_bsd () =
  (* K = 1: entries pay 1 + (N+1)/2 like a BSD miss; acks almost never
     hit.  The model must land within a PCB of Equation 1. *)
  let model = Analysis.Lru_model.cost default ~entries:1 in
  let bsd = Analysis.Bsd_model.cost default in
  Alcotest.(check bool)
    (Printf.sprintf "K=1 model %.1f ~ BSD %.1f" model bsd)
    true
    (Float.abs (model -. bsd) < 2.0)

let test_lru_model_crossover () =
  (* lambda = 2a(R+D)(N-1) ~ 80 at the default point: the ack-hit
     probability must be ~0 well below lambda and ~1 well above. *)
  let low = Analysis.Lru_model.ack_hit_probability default ~entries:8 in
  let high = Analysis.Lru_model.ack_hit_probability default ~entries:160 in
  Alcotest.(check bool) "tiny below lambda" true (low < 0.01);
  Alcotest.(check bool) "near-certain above" true (high > 0.99);
  (* Monotone in K. *)
  let previous = ref 0.0 in
  List.iter
    (fun entries ->
      let p = Analysis.Lru_model.ack_hit_probability default ~entries in
      Alcotest.(check bool) "monotone" true (p >= !previous);
      previous := p)
    [ 1; 10; 40; 80; 120; 200 ]

let test_lru_model_floor () =
  (* Even the best K keeps the list an order of magnitude above the
     hashed chains. *)
  let _, best = Analysis.Lru_model.best_entries default ~max_entries:1024 in
  let sequent = Analysis.Sequent_model.cost default ~chains:19 in
  Alcotest.(check bool)
    (Printf.sprintf "best LRU %.0f >> sequent %.0f" best sequent)
    true
    (best > 5.0 *. sequent);
  Alcotest.check_raises "entries 0" (Invalid_argument "Lru_model: entries <= 0")
    (fun () -> ignore (Analysis.Lru_model.cost default ~entries:0))

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                   *)

let arbitrary_params =
  QCheck.make
    QCheck.Gen.(
      map
        (fun ((users, r), d) ->
          Analysis.Tpca_params.v ~users ~response_time:r ~rtt:d ())
        (pair (pair (int_range 2 5000) (float_range 0.05 2.0))
           (float_range 0.0005 0.1)))

let prop_costs_positive =
  QCheck.Test.make ~count:300 ~name:"all model costs are >= 1 PCB"
    arbitrary_params (fun p ->
      Analysis.Bsd_model.cost p >= 1.0
      && Analysis.Mtf_model.overall_cost p >= 0.0
      && Analysis.Srcache_model.overall_cost p >= 1.0 -. 1e-9
      && Analysis.Sequent_model.cost p ~chains:19 >= 0.5)

let prop_sequent_below_bsd =
  QCheck.Test.make ~count:300 ~name:"hashing never loses to BSD (H <= N)"
    arbitrary_params (fun p ->
      p.Analysis.Tpca_params.users < 19
      || Analysis.Sequent_model.cost p ~chains:19
         <= Analysis.Bsd_model.cost p +. 1e-9)

let prop_bsd_monotone_in_n =
  QCheck.Test.make ~count:300 ~name:"BSD cost monotone in N"
    QCheck.(pair (int_range 1 5000) (int_range 1 5000))
    (fun (a, b) ->
      let lo = min a b and hi = max a b in
      Analysis.Bsd_model.cost (params ~users:lo ())
      <= Analysis.Bsd_model.cost (params ~users:hi ()) +. 1e-9)

let prop_entry_quadrature_agrees =
  QCheck.Test.make ~count:50 ~name:"Eq 5 closed form = quadrature"
    arbitrary_params (fun p ->
      let closed = Analysis.Mtf_model.entry_cost p in
      let quad = Analysis.Mtf_model.entry_cost_quadrature p in
      Float.abs (closed -. quad) <= 1e-5 *. (1.0 +. Float.abs closed))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_costs_positive; prop_sequent_below_bsd; prop_bsd_monotone_in_n;
      prop_entry_quadrature_agrees ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "analysis"
    [ ( "params",
        [ Alcotest.test_case "defaults" `Quick test_params_defaults;
          Alcotest.test_case "validation" `Quick test_params_validation ] );
      ( "bsd",
        [ Alcotest.test_case "paper values (E2, E3)" `Quick test_bsd_paper_values;
          Alcotest.test_case "N/2 asymptote" `Quick test_bsd_asymptote;
          Alcotest.test_case "N=1" `Quick test_bsd_small_n ] );
      ( "mtf",
        [ Alcotest.test_case "N(T) shape (E1)" `Quick test_expected_preceding_shape;
          Alcotest.test_case "Eq 3 sum = closed form" `Quick
            test_equation3_sum_equals_closed_form;
          Alcotest.test_case "paper values (E4-E6)" `Quick test_mtf_paper_values;
          Alcotest.test_case "Eq 5 vs quadrature" `Quick
            test_mtf_entry_closed_form_vs_quadrature;
          Alcotest.test_case "entry worse, overall better than BSD" `Quick
            test_mtf_worse_than_bsd_on_entry;
          Alcotest.test_case "deterministic worst case (E15)" `Quick
            test_mtf_deterministic_worst_case ] );
      ( "sr-cache",
        [ Alcotest.test_case "paper values (E7)" `Quick test_srcache_paper_values;
          Alcotest.test_case "Eq 11/14 vs quadrature" `Quick
            test_srcache_closed_forms_vs_quadrature;
          Alcotest.test_case "single user" `Quick test_srcache_single_user;
          Alcotest.test_case "asymptote" `Quick test_srcache_approaches_miss_cost;
          Alcotest.test_case "survival probabilities" `Quick
            test_srcache_survival_probabilities ] );
      ( "sequent",
        [ Alcotest.test_case "paper values (E8-E11)" `Quick
            test_sequent_paper_values;
          Alcotest.test_case "monotone in chains" `Quick
            test_sequent_monotone_in_chains;
          Alcotest.test_case "H=1 reduces to BSD" `Quick test_sequent_h1_is_bsd;
          Alcotest.test_case "order of magnitude (headline)" `Quick
            test_sequent_order_of_magnitude;
          Alcotest.test_case "validation" `Quick test_sequent_validation ] );
      ( "figures",
        [ Alcotest.test_case "figure 4 (E1)" `Quick test_figure4_series;
          Alcotest.test_case "figure 13 (E12)" `Quick test_figure13_series;
          Alcotest.test_case "figure 14 (E13)" `Quick test_figure14_includes_sr10;
          Alcotest.test_case "SR -> BSD for large N" `Quick
            test_sr_approaches_bsd_for_large_n;
          Alcotest.test_case "MTF improves with smaller R" `Quick
            test_mtf_improves_with_smaller_r;
          Alcotest.test_case "tables" `Quick test_tables ] );
      ( "sensitivity",
        [ Alcotest.test_case "chains needed" `Quick test_chains_needed;
          Alcotest.test_case "SR rejoins BSD" `Quick test_sr_rejoins_bsd;
          Alcotest.test_case "MTF/SR crossover" `Quick test_mtf_sr_crossover;
          Alcotest.test_case "gradients" `Quick test_gradients;
          Alcotest.test_case "2D sweep" `Quick test_sweep_2d ] );
      ( "lru-model",
        [ Alcotest.test_case "K=1 matches BSD" `Quick test_lru_model_k1_matches_bsd;
          Alcotest.test_case "crossover at lambda" `Quick test_lru_model_crossover;
          Alcotest.test_case "floor vs hashing" `Quick test_lru_model_floor ] );
      ("properties", qcheck_cases) ]
