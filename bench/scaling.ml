(* Domain-scaling study for the Dd_parallel subsystem: sweeps/sec of
   color-synchronous parallel Gibbs at 1/2/4/8 domains on the Fig-KBC
   (News) factor graph, plus the chain-parallel materialization rate.

   The paper's DimmWitted substrate samples on 48 cores; this experiment
   measures how far our domain-parallel sampler gets on whatever the
   current host offers (Domain.recommended_domain_count is printed with
   the results — domain counts beyond it time-slice a core and cannot
   speed up, so interpret speedups against that bound). *)

open Harness
module Graph = Dd_fgraph.Graph
module Compiled = Dd_inference.Compiled
module Par_gibbs = Dd_parallel.Par_gibbs
module Partition = Dd_parallel.Partition
module Pool = Dd_parallel.Pool
module Prng = Dd_util.Prng
module Stats = Dd_util.Stats

let domain_counts = [ 1; 2; 4; 8 ]

let run ~full =
  section "Scaling: domain-parallel Gibbs on the Fig-KBC graph";
  let g = fig_kbc_graph ~full in
  let partition = Partition.color g in
  let queries = List.length (Graph.query_vars g) in
  note "graph: %d vars (%d query), %d factors; partition: %d colors; host: %d recommended domains"
    (Graph.num_vars g) queries (Graph.num_factors g)
    partition.Partition.num_colors (Pool.recommended ());
  metric "vars" (float_of_int (Graph.num_vars g));
  metric "colors" (float_of_int partition.Partition.num_colors);
  metric "recommended_domains" (float_of_int (Pool.recommended ()));
  let sweeps = if full then 300 else 100 in
  let table =
    Dd_util.Table.create
      [ "domains"; "sweep s/s"; "speedup"; "chain worlds/s"; "c-speedup"; "maxdiff vs seq" ]
  in
  (* Sequential reference marginals for the agreement column. *)
  let reference = Compiled.marginals ~burn_in:20 (Prng.create 53) (Compiled.compile g) ~sweeps in
  let base_sweep = ref 0.0 and base_chain = ref 0.0 in
  List.iter
    (fun d ->
      (* Color-synchronous single chain: throughput of [sweeps] sweeps. *)
      let sampler = Par_gibbs.create ~domains:d (Prng.create 53) g in
      let sweep_rate =
        Fun.protect
          ~finally:(fun () -> Par_gibbs.shutdown sampler)
          (fun () ->
            for _ = 1 to 5 do
              Par_gibbs.sweep sampler
            done;
            let secs =
              time_median ~repeats:1 (fun () ->
                  for _ = 1 to sweeps do
                    Par_gibbs.sweep sampler
                  done)
            in
            float_of_int sweeps /. secs)
      in
      (* Chain-level materialization: worlds/sec across [d] chains. *)
      let n_worlds = 2 * sweeps in
      let chain_secs =
        time_median ~repeats:1 (fun () ->
            ignore (Par_gibbs.sample_worlds ~burn_in:5 ~domains:d (Prng.create 59) g ~n:n_worlds))
      in
      let chain_rate = float_of_int n_worlds /. chain_secs in
      if d = 1 then begin
        base_sweep := sweep_rate;
        base_chain := chain_rate
      end;
      let maxdiff =
        let m = Par_gibbs.marginals ~burn_in:20 ~domains:d (Prng.create 53) g ~sweeps in
        Stats.max_abs_diff m reference
      in
      metric (Printf.sprintf "sweeps_per_sec_%dd" d) sweep_rate;
      metric (Printf.sprintf "speedup_%dd" d) (sweep_rate /. !base_sweep);
      metric (Printf.sprintf "chain_worlds_per_sec_%dd" d) chain_rate;
      metric (Printf.sprintf "maxdiff_vs_seq_%dd" d) maxdiff;
      Dd_util.Table.add_row table
        [
          string_of_int d;
          Printf.sprintf "%.1f" sweep_rate;
          Dd_util.Table.cell_x (sweep_rate /. !base_sweep);
          Printf.sprintf "%.1f" chain_rate;
          Dd_util.Table.cell_x (chain_rate /. !base_chain);
          Printf.sprintf "%.4f" maxdiff;
        ])
    domain_counts;
  Dd_util.Table.print table;
  note
    "(domains=1 is the bit-exact sequential path; maxdiff is cross-chain\n\
     Monte-Carlo noise at %d sweeps, not error.  Speedup saturates at the\n\
     host's recommended domain count.)"
    sweeps

let () = register "scaling" "Dd_parallel: domain-scaling of Gibbs sweeps" run
