module Graph = Dd_fgraph.Graph
module Prng = Dd_util.Prng
module Stats = Dd_util.Stats

let init_assignment rng g =
  Array.init (Graph.num_vars g) (fun v ->
      match Graph.evidence_of g v with
      | Graph.Evidence b -> b
      | Graph.Query -> Prng.bool rng)

let conditional_true_prob g assignment v =
  let lookup v' = assignment.(v') in
  let energy_with value =
    let saved = assignment.(v) in
    assignment.(v) <- value;
    let acc =
      List.fold_left
        (fun acc fi -> acc +. Graph.factor_energy g (Graph.factor g fi) lookup)
        0.0 (Graph.factors_of_var g v)
    in
    assignment.(v) <- saved;
    acc
  in
  Stats.sigmoid (energy_with true -. energy_with false)

let resample_var rng g assignment v =
  assignment.(v) <- Prng.bernoulli rng (conditional_true_prob g assignment v)
