(** The naive pointer-graph Gibbs sampler, kept as a test oracle.

    Every conditional is recomputed from scratch over the variable's
    adjacent factors of the {!Dd_fgraph.Graph.t} pointer structure.  It
    is the reference the compiled kernel ({!Dd_inference.Compiled}) is
    checked against: for a given seed both draw from the PRNG in the same
    order and count (ascending query variables, one Bernoulli draw each),
    and their conditionals agree to floating-point reassociation, so
    trajectories agree per seed.  Not linked into any [lib] library;
    tests and the benches that measure the naive baseline use it. *)

module Graph = Dd_fgraph.Graph

val init_assignment : Dd_util.Prng.t -> Graph.t -> bool array
(** {!Dd_inference.Gibbs.init_assignment}. *)

val conditional_true_prob : Graph.t -> bool array -> Graph.var -> float
(** {!Dd_inference.Gibbs.conditional_true_prob}. *)

val resample_var : Dd_util.Prng.t -> Graph.t -> bool array -> Graph.var -> unit
(** {!Dd_inference.Gibbs.resample_var}. *)

val sweep : Dd_util.Prng.t -> Graph.t -> bool array -> unit
(** One pass resampling every query variable in ascending id order. *)

val run :
  ?burn_in:int ->
  ?init:bool array ->
  Dd_util.Prng.t ->
  Graph.t ->
  sweeps:int ->
  on_sweep:(int -> bool array -> unit) ->
  unit
(** Burn in, then call [on_sweep] after each of [sweeps] sweeps with the
    current world (not copied — copy if retained). *)

val marginals : ?burn_in:int -> Dd_util.Prng.t -> Graph.t -> sweeps:int -> float array
(** Estimated marginal of every variable (evidence variables report their
    clamped value). *)

val sample_worlds :
  ?burn_in:int -> ?spacing:int -> Dd_util.Prng.t -> Graph.t -> n:int -> bool array array
(** Draw [n] worlds, [spacing] sweeps apart (default 1). *)

val sweeps_to_converge :
  ?tolerance:float ->
  ?max_sweeps:int ->
  ?check_every:int ->
  Dd_util.Prng.t ->
  Graph.t ->
  target_var:Graph.var ->
  target_prob:float ->
  int option
(** Number of sweeps until the running-mean estimate of [target_var]'s
    marginal stays within [tolerance] (default 0.01) of [target_prob];
    [None] if [max_sweeps] (default 100_000) is exhausted. *)
