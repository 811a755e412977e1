(* Bechamel micro-benchmarks for the hot kernels underneath every
   experiment: factor-energy evaluation and one Gibbs sweep, on the
   compiled kernel and on the naive oracle sampler it replaced. *)

open Harness
module Graph = Dd_fgraph.Graph
module Naive_gibbs = Dd_oracle.Naive_gibbs
module Compiled = Dd_inference.Compiled
module Prng = Dd_util.Prng
open Bechamel
open Toolkit

let naive_sweep_test =
  let rng = Prng.create 51 in
  let g = synthetic_graph rng 200 in
  let assignment = Naive_gibbs.init_assignment rng g in
  Test.make ~name:"naive sweep (200 vars)"
    (Staged.stage (fun () -> Naive_gibbs.sweep rng g assignment))

let compiled_sweep_test =
  let rng = Prng.create 51 in
  let g = synthetic_graph rng 200 in
  let st = Compiled.make_state rng (Compiled.compile g) in
  Test.make ~name:"compiled sweep (200 vars)"
    (Staged.stage (fun () -> Compiled.sweep rng st))

let total_energy_test =
  let rng = Prng.create 52 in
  let g = synthetic_graph rng 200 in
  let assignment = Naive_gibbs.init_assignment rng g in
  Test.make ~name:"total energy (200 vars)"
    (Staged.stage (fun () -> ignore (Graph.total_energy g (fun v -> assignment.(v)))))

let benchmarks () = [ naive_sweep_test; compiled_sweep_test; total_energy_test ]

let run_micro ~full:_ =
  section "Micro-benchmarks (Bechamel)";
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) () in
  let instances = Instance.[ monotonic_clock ] in
  let tests = benchmarks () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed =
        Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ nanos ] -> note "  %-28s %12.1f ns/op" name nanos
          | _ -> note "  %-28s (no estimate)" name)
        analyzed)
    tests

let () = register "micro" "Micro-benchmarks of hot kernels" run_micro
