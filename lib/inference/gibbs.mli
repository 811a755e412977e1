(** Per-variable Gibbs primitives over the pointer graph.

    The sampling loops run on the compiled kernel ({!Compiled}); what
    stays here are the three primitives that work on a plain
    [bool array] world: the initial world every chain starts from, and
    one conditional / one resample of a single variable (the restricted
    new-variable sweep of {!Metropolis}).  The naive whole-graph loops
    built on them live in the [dd_oracle] test library. *)

module Graph = Dd_fgraph.Graph

val init_assignment : Dd_util.Prng.t -> Graph.t -> bool array
(** Random initial world: evidence clamped, query variables uniform (one
    PRNG draw per query variable, ascending). *)

val conditional_true_prob : Graph.t -> bool array -> Graph.var -> float
(** [P(v = true | rest)] — computed from the energy difference of the
    factors adjacent to [v] only. *)

val resample_var : Dd_util.Prng.t -> Graph.t -> bool array -> Graph.var -> unit
(** Redraw [v] from {!conditional_true_prob}. *)
