(* The context the paper came from: Sequent's PARALLEL TCP [Dov90].
   Several processors service inbound packets concurrently, so the PCB
   structure is not just a search problem but a locking problem.  One
   global lock serialises everything; one lock per hash chain lets
   packets for different connections proceed in parallel — the second,
   quieter reason hash chains won.

   This example measures aggregate lookup throughput as OCaml domains
   are added, for the three lock designs Parallel.Throughput offers,
   chosen by name: a globally locked BSD list and Sequent table, the
   lock-striped Sequent table at two chain counts, and the lock-free
   epoch table.

   Run with: dune exec examples/parallel_lookup.exe -- [max_domains] *)

let () =
  let max_domains =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1)
    else min 4 (Domain.recommended_domain_count ())
  in
  let rec domain_counts d = if d > max_domains then [] else d :: domain_counts (d * 2) in
  let domains = domain_counts 1 in
  Printf.printf
    "lookup throughput, 2000 connections, %d cores available, domains = %s\n\n"
    (Domain.recommended_domain_count ())
    (String.concat "," (List.map string_of_int domains));
  let targets =
    List.map
      (fun name -> Result.get_ok (Parallel.Throughput.target_of_name name))
      [ "coarse:bsd"; "coarse:sequent-19"; "striped:sequent-19";
        "striped:sequent-100"; "epoch:table" ]
  in
  let results =
    Parallel.Throughput.scaling_table ~lookups_per_domain:50_000 ~domains
      targets
  in
  Format.printf "%a@." Parallel.Throughput.pp_results results;
  print_endline
    "Striped throughput holds (or grows) with domains; coarse-locked\n\
     throughput collapses under contention no matter how fast the\n\
     underlying structure is; epoch readers take no lock at all."
