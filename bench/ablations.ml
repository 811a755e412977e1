(* Ablation benches for design choices DESIGN.md calls out:

   - weight tying (Section 2.3): tied per-feature weights vs one weight per
     rule (the plain-MLN encoding);
   - the compiled Gibbs kernel (DimmWitted-style, the only sampler in
     lib) vs the naive oracle sampler it replaced;
   - the greedy delta-first join order in staged incremental evaluation. *)

open Harness
module Corpus = Dd_kbc.Corpus
module Systems = Dd_kbc.Systems
module Pipeline = Dd_kbc.Pipeline
module Quality = Dd_kbc.Quality
module Program = Dd_core.Program
module Grounding = Dd_core.Grounding
module Database = Dd_relational.Database
module Graph = Dd_fgraph.Graph
module Semantics = Dd_fgraph.Semantics
module Voting = Dd_fgraph.Voting
module Naive_gibbs = Dd_oracle.Naive_gibbs
module Compiled = Dd_inference.Compiled
module Learner = Dd_inference.Learner
module Prng = Dd_util.Prng
module Timer = Dd_util.Timer
module Table = Dd_util.Table

(* --- weight tying --------------------------------------------------------- *)

(* Replace every Tied-with-key weight by Tied [] (a single learnable weight
   per rule) — the encoding a plain MLN forces ("in standard MLNs, this
   would require one rule for each feature"). *)
let untie rule =
  match rule with
  | Program.Infer r -> (
    match r.Program.weight with
    | Program.Tied (_ :: _) -> Program.Infer { r with Program.weight = Program.Tied [] }
    | Program.Tied [] | Program.Fixed _ -> rule)
  | Program.Deterministic _ | Program.Supervise _ -> rule

let f1_of_program corpus program =
  let db = Database.create () in
  Corpus.load corpus db;
  let grounding = Grounding.ground db program in
  let g = Grounding.graph grounding in
  let rng = Prng.create 61 in
  Learner.train_cd ~options:{ Learner.default_cd with Learner.epochs = 40 } rng g;
  let marginals = Compiled.(marginals ~burn_in:30 rng (compile g) ~sweeps:400) in
  ( (Quality.evaluate grounding marginals ~truth:corpus.Corpus.truth).Quality.f1,
    (Grounding.stats grounding).Grounding.weights )

let ablation_tying ~full =
  section "Ablation: weight tying vs one-weight-per-rule (plain MLN encoding)";
  note
    "Tied weights give the classifier one parameter per feature value; the\n\
     untied variant collapses each rule to a single weight, which cannot\n\
     separate indicative from noisy phrases.";
  let table = Table.create [ "system"; "tied F1"; "tied #weights"; "untied F1"; "untied #weights" ] in
  let systems = if full then Systems.all else [ Systems.news; Systems.genomics ] in
  List.iter
    (fun config ->
      let config = { config with Corpus.docs = config.Corpus.docs * 2 } in
      let corpus = Corpus.generate config in
      let tied_program = Pipeline.full_program () in
      let untied_program =
        { tied_program with Program.rules = List.map untie tied_program.Program.rules }
      in
      let tied_f1, tied_weights = f1_of_program corpus tied_program in
      let untied_f1, untied_weights = f1_of_program corpus untied_program in
      Table.add_row table
        [
          config.Corpus.name;
          Table.cell_f tied_f1;
          string_of_int tied_weights;
          Table.cell_f untied_f1;
          string_of_int untied_weights;
        ])
    systems;
  Table.print table

(* --- sampler kernel -------------------------------------------------------- *)

let ablation_sampler ~full =
  section "Ablation: compiled vs naive Gibbs kernel (seconds per 100 sweeps)";
  note
    "The compiled kernel maintains satisfied-body counts so an update costs\n\
     O(bodies mentioning the variable); the naive kernel re-evaluates whole\n\
     factors.  The gap explodes on aggregation factors (the voting program,\n\
     one body per vote) and stays a constant factor on pairwise graphs.";
  let table = Table.create [ "graph"; "naive (s)"; "compiled (s)"; "speedup" ] in
  let measure g =
    let naive =
      time_median ~repeats:1 (fun () ->
          let rng = Prng.create 71 in
          let a = Naive_gibbs.init_assignment rng g in
          for _ = 1 to 100 do
            Naive_gibbs.sweep rng g a
          done)
    in
    let compiled =
      time_median ~repeats:1 (fun () ->
          let rng = Prng.create 71 in
          let st = Compiled.make_state rng (Compiled.compile g) in
          for _ = 1 to 100 do
            Compiled.sweep rng st
          done)
    in
    (naive, compiled)
  in
  let voting n =
    let cfg = { Voting.default with Voting.n_up = n / 2; n_down = n / 2 } in
    let g, _, _, _ = Voting.build cfg in
    g
  in
  let cases =
    [
      ("pairwise n=200", synthetic_graph (Prng.create 72) 200);
      ("voting n=200", voting 200);
      ("voting n=1000", voting 1000);
    ]
    @ (if full then [ ("voting n=5000", voting 5000) ] else [])
  in
  List.iter
    (fun (name, g) ->
      let naive, compiled = measure g in
      Table.add_row table
        [ name; Table.cell_f naive; Table.cell_f compiled; Table.cell_x (naive /. compiled) ])
    cases;
  Table.print table

(* --- sample storage footprint (Section 3.2.2) -------------------------------- *)

let storage ~full =
  section "Storage: 100 bit-packed samples vs the factor graph (Section 3.2.2)";
  note
    "\"A single sample for one random variable only requires 1 bit of\n\
     storage ... 100 samples require less than 5%% of the space of the\n\
     original factor graph.\"  Sizes in bytes of the serialized graph vs\n\
     100 MCDB-style tuple bundles.";
  let table = Table.create [ "system"; "graph bytes"; "100 samples bytes"; "ratio" ] in
  List.iter
    (fun config ->
      let config =
        { config with Corpus.docs = config.Corpus.docs * (if full then 6 else 3) }
      in
      let corpus = Corpus.generate config in
      let db = Database.create () in
      Corpus.load corpus db;
      let grounding = Grounding.ground db (Pipeline.full_program ()) in
      let g = Grounding.graph grounding in
      let graph_bytes = String.length (Dd_fgraph.Serialize.to_string g) in
      let samples_bytes = 100 * ((Graph.num_vars g + 7) / 8) in
      Table.add_row table
        [
          config.Corpus.name;
          string_of_int graph_bytes;
          string_of_int samples_bytes;
          Printf.sprintf "%.1f%%" (100.0 *. float_of_int samples_bytes /. float_of_int graph_bytes);
        ])
    Systems.all;
  Table.print table

let () =
  register "ablation_tying" "Ablation: weight tying" ablation_tying;
  register "ablation_sampler" "Ablation: Gibbs kernels" ablation_sampler;
  register "storage" "Sample-storage footprint" storage
