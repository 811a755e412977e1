(* The compiled-kernel study: sweeps/sec of the naive pointer-graph
   Gibbs sampler (the [dd_oracle] test oracle) vs the compiled flat CSR
   kernel (Dd_inference.Compiled) on the Fig-KBC (News) factor graph, at
   1/2/4/8 domains.

   The naive path recomputes every adjacent factor's energy from the boxed
   graph structure for each conditional.  The compiled path keeps
   satisfied-body counters and samples over contiguous int/float arrays
   (the DimmWitted-style layout).  Both draw identical sample sequences
   per seed at domains=1, which this experiment re-checks before timing,
   so the speedup is layout and algorithm, not a different chain. *)

open Harness
module Graph = Dd_fgraph.Graph
module Semantics = Dd_fgraph.Semantics
module Naive_gibbs = Dd_oracle.Naive_gibbs
module Compiled = Dd_inference.Compiled
module Par_gibbs = Dd_parallel.Par_gibbs
module Partition = Dd_parallel.Partition
module Pool = Dd_parallel.Pool
module Prng = Dd_util.Prng
module Stats = Dd_util.Stats

let domain_counts = [ 1; 2; 4; 8 ]

(* A faithful replica of the counter-based sampler as it was before the
   compiled kernel existed, kept here as the benchmark's historical
   baseline: per-variable occurrence *lists*, and a fresh [Hashtbl]
   allocated inside every conditional to group them by factor.  Only what
   the sweep loop needs is reproduced. *)
module Pre_pr = struct
  type occurrence = { factor : int; body : int; negated : bool }

  type t = {
    graph : Graph.t;
    assignment : bool array;
    unsat : int array array;
    sat : int array;
    occurrences : occurrence list array;
    head_of : int list array;
  }

  let create ~init g =
    let assignment = Array.copy init in
    let nvars = Graph.num_vars g in
    let nfactors = Graph.num_factors g in
    let unsat = Array.make nfactors [||] in
    let sat = Array.make nfactors 0 in
    let occurrences = Array.make nvars [] in
    let head_of = Array.make nvars [] in
    Graph.iter_factors
      (fun fid f ->
        (match f.Graph.head with
        | Some h -> head_of.(h) <- fid :: head_of.(h)
        | None -> ());
        let counts =
          Array.mapi
            (fun body_idx body ->
              Array.iter
                (fun l ->
                  occurrences.(l.Graph.var) <-
                    { factor = fid; body = body_idx; negated = l.Graph.negated }
                    :: occurrences.(l.Graph.var))
                body;
              Array.fold_left
                (fun acc l ->
                  if assignment.(l.Graph.var) <> l.Graph.negated then acc else acc + 1)
                0 body)
            f.Graph.bodies
        in
        unsat.(fid) <- counts;
        sat.(fid) <- Array.fold_left (fun acc c -> if c = 0 then acc + 1 else acc) 0 counts)
      g;
    { graph = g; assignment; unsat; sat; occurrences; head_of }

  let factor_energy_with t fid ~v ~x ~occ_in_factor =
    let f = Graph.factor t.graph fid in
    let n = ref t.sat.(fid) in
    List.iter
      (fun occ ->
        let currently_sat = t.unsat.(fid).(occ.body) = 0 in
        let lit_sat_now = t.assignment.(v) <> occ.negated in
        let unsat_others = t.unsat.(fid).(occ.body) - (if lit_sat_now then 0 else 1) in
        let sat_under_x = unsat_others = 0 && x <> occ.negated in
        if currently_sat && not sat_under_x then decr n
        else if (not currently_sat) && sat_under_x then incr n)
      occ_in_factor;
    let sign =
      match f.Graph.head with
      | None -> 1.0
      | Some h ->
        if h = v then (if x then 1.0 else -1.0)
        else if t.assignment.(h) then 1.0
        else -1.0
    in
    Graph.weight_value t.graph f.Graph.weight_id *. sign *. Semantics.g f.Graph.semantics !n

  let conditional_true_prob t v =
    let by_factor = Hashtbl.create 8 in
    List.iter
      (fun occ ->
        let existing = try Hashtbl.find by_factor occ.factor with Not_found -> [] in
        Hashtbl.replace by_factor occ.factor (occ :: existing))
      t.occurrences.(v);
    List.iter
      (fun fid -> if not (Hashtbl.mem by_factor fid) then Hashtbl.replace by_factor fid [])
      t.head_of.(v);
    let delta = ref 0.0 in
    Hashtbl.iter
      (fun fid occ_in_factor ->
        delta :=
          !delta
          +. factor_energy_with t fid ~v ~x:true ~occ_in_factor
          -. factor_energy_with t fid ~v ~x:false ~occ_in_factor)
      by_factor;
    Stats.sigmoid !delta

  let set_value t v value =
    if t.assignment.(v) <> value then begin
      t.assignment.(v) <- value;
      List.iter
        (fun occ ->
          let lit_sat = value <> occ.negated in
          let counts = t.unsat.(occ.factor) in
          let before = counts.(occ.body) in
          let after = if lit_sat then before - 1 else before + 1 in
          counts.(occ.body) <- after;
          if before = 0 && after > 0 then t.sat.(occ.factor) <- t.sat.(occ.factor) - 1
          else if before > 0 && after = 0 then t.sat.(occ.factor) <- t.sat.(occ.factor) + 1)
        t.occurrences.(v)
    end

  let resample_var rng t v = set_value t v (Prng.bernoulli rng (conditional_true_prob t v))

  let sweep rng t =
    for v = 0 to Graph.num_vars t.graph - 1 do
      match Graph.evidence_of t.graph v with
      | Graph.Query -> resample_var rng t v
      | Graph.Evidence _ -> ()
    done
end

let pre_pr_sweep_rate ~sweeps g =
  let init = Naive_gibbs.init_assignment (Prng.create 53) g in
  let state = Pre_pr.create ~init g in
  let rng = Prng.create 54 in
  for _ = 1 to 5 do
    Pre_pr.sweep rng state
  done;
  let secs =
    time_median ~repeats:3 (fun () ->
        for _ = 1 to sweeps do
          Pre_pr.sweep rng state
        done)
  in
  float_of_int sweeps /. secs

(* The naive oracle, sequential at d = 1 and color-synchronous above:
   same-color variables share no factor, so concurrent slices read only
   cells no other slice writes. *)
let naive_sweep_rate ~sweeps g d =
  let a = Naive_gibbs.init_assignment (Prng.create 53) g in
  let rng = Prng.create 54 in
  let timed sweep =
    for _ = 1 to 5 do
      sweep ()
    done;
    let secs =
      time_median ~repeats:3 (fun () ->
          for _ = 1 to sweeps do
            sweep ()
          done)
    in
    float_of_int sweeps /. secs
  in
  if d = 1 then timed (fun () -> Naive_gibbs.sweep rng g a)
  else begin
    let plan = Partition.slices (Partition.color g) ~domains:d in
    let rngs = Array.init d (fun _ -> Prng.split rng) in
    let pool = Pool.create d in
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () ->
        timed (fun () ->
            Array.iter
              (fun phase ->
                Pool.run pool (fun dd ->
                    if dd < Array.length phase then
                      Array.iter (Naive_gibbs.resample_var rngs.(dd) g a) phase.(dd)))
              plan))
  end

let compiled_sweep_rate ~sweeps ~kernel g d =
  let sampler = Par_gibbs.create ~kernel ~domains:d (Prng.create 53) g in
  Fun.protect
    ~finally:(fun () -> Par_gibbs.shutdown sampler)
    (fun () ->
      for _ = 1 to 5 do
        Par_gibbs.sweep sampler
      done;
      let secs =
        time_median ~repeats:3 (fun () ->
            for _ = 1 to sweeps do
              Par_gibbs.sweep sampler
            done)
      in
      float_of_int sweeps /. secs)

(* Bit-exactness spot check at domains=1: both samplers from one seed
   must produce identical assignments after every sweep. *)
let check_bit_exact g =
  let init = Naive_gibbs.init_assignment (Prng.create 7) g in
  let compiled = Compiled.make_state ~init (Prng.create 1) (Compiled.compile g) in
  let naive = Array.copy init in
  let rng_c = Prng.create 8 and rng_n = Prng.create 8 in
  let ok = ref true in
  for _ = 1 to 5 do
    Compiled.sweep rng_c compiled;
    Naive_gibbs.sweep rng_n g naive;
    if Compiled.snapshot compiled <> naive then ok := false
  done;
  !ok

let run ~full =
  section "Gibbs kernel: compiled CSR arrays vs naive pointer-graph sampler";
  let g = fig_kbc_graph ~full in
  let kernel = Compiled.compile g in
  let queries = Compiled.num_query kernel in
  note "graph: %d vars (%d query), %d factors, %d bodies; host: %d recommended domains"
    (Graph.num_vars g) queries (Graph.num_factors g) (Compiled.num_bodies kernel)
    (Pool.recommended ());
  metric "vars" (float_of_int (Graph.num_vars g));
  metric "factors" (float_of_int (Graph.num_factors g));
  metric "recommended_domains" (float_of_int (Pool.recommended ()));
  let exact = check_bit_exact g in
  note "bit-exact with the naive oracle at domains=1: %s" (if exact then "yes" else "NO");
  metric "bit_exact_1d" (if exact then 1.0 else 0.0);
  let sweeps = if full then 300 else 100 in
  let pre_pr = pre_pr_sweep_rate ~sweeps g in
  metric "pre_pr_sweeps_per_sec_1d" pre_pr;
  let table =
    Dd_util.Table.create
      [ "domains"; "pre-kernel s/s"; "naive s/s"; "compiled s/s"; "vs pre-kernel"; "vs naive" ]
  in
  List.iter
    (fun d ->
      let naive = naive_sweep_rate ~sweeps g d in
      let compiled = compiled_sweep_rate ~sweeps ~kernel g d in
      metric (Printf.sprintf "naive_sweeps_per_sec_%dd" d) naive;
      metric (Printf.sprintf "compiled_sweeps_per_sec_%dd" d) compiled;
      if d = 1 then metric "speedup_1d" (compiled /. pre_pr);
      metric (Printf.sprintf "speedup_naive_%dd" d) (compiled /. naive);
      Dd_util.Table.add_row table
        [
          string_of_int d;
          (if d = 1 then Printf.sprintf "%.1f" pre_pr else "-");
          Printf.sprintf "%.1f" naive;
          Printf.sprintf "%.1f" compiled;
          (if d = 1 then Dd_util.Table.cell_x (compiled /. pre_pr) else "-");
          Dd_util.Table.cell_x (compiled /. naive);
        ])
    domain_counts;
  Dd_util.Table.print table;
  note
    "(pre-kernel = the historical counter-based sampler with a Hashtbl\n\
     allocated per conditional; naive = the dd_oracle test sampler, whole\n\
     adjacent factors re-evaluated per conditional; compiled = the flat\n\
     CSR kernel.  The domains=1 rows compare one chain with the same\n\
     draws; multi-domain rows add color-synchronous scheduling on both\n\
     sides.  Sweeps timed: %d.)"
    sweeps

let () =
  register "gibbs-kernel" "Dd_inference: compiled flat kernel vs naive oracle sampler" run
