(* dev_loop: the paper's Figure 9 development loop, closed.

   The News x4 corpus of the Figure 9 experiment (483 variables).  Set-up
   is [Corpus.load] + [Engine.create] (ground, learn, materialize), done
   five times per run, engines seeded from --seed; the last four set-ups
   are the run's sessions, and the run visits them in turn.  A pass
   applies the six-snapshot sequence A1 -> FE1 -> FE2 -> I1 -> S1 -> S2
   cumulatively inside one engine transaction, publishing a
   [Snapshot.build] after every update, and ends with a rollback, so every
   pass of a session starts from the same materialized baseline and does
   the same work.  The developer waits for each answer: the next update
   starts only after the previous snapshot is published.  Each session's
   first pass is a discarded warm-up and the reference its later passes
   must replay bit for bit.

   Why a fixed corpus and four sessions: the corpus seed moves the graph
   size by +-12% and pass time by +-20%, and one engine seed alone still
   moves pass time by 5-10% (the materialized approximate graph differs);
   four sessions average the latter.  Five set-ups make [setup_s] a median
   over more than single shots; the first engine is dropped, so every
   session is set up in a process that has already grown its heap. *)

open Measure
module Corpus = Dd_kbc.Corpus
module Systems = Dd_kbc.Systems
module Pipeline = Dd_kbc.Pipeline
module Quality = Dd_kbc.Quality
module Engine = Dd_core.Engine
module Grounding = Dd_core.Grounding
module Snapshot = Dd_serve.Snapshot
module Database = Dd_relational.Database
module Value = Dd_relational.Value

(* The engine options of the Figure 9 experiment ([bench_options] in the
   repository's bench harness) except the acceptance floor.  There it is
   0.05, inside the noise of the 150-proposal acceptance probe (FE1..I1
   probe at 0.01-0.08), so whether an update is answered by sampling or by
   the variational artifact flipped from seed to seed.  At 0.5 the sequence
   is always sampling for A1 (acceptance 1: nothing changed) and
   variational for FE1..S2, as in the paper's Figure 9 discussion. *)
let options =
  {
    Engine.default_options with
    Engine.materialization_samples = 2000;
    inference_chain = 500;
    burn_in = 30;
    lambda = 0.05;
    initial_learning_epochs = 60;
    incremental_learning_epochs = 20;
    incremental_learning_rate = 0.08;
    variational_var_limit = 900;
    acceptance_floor = 0.5;
  }

let corpus_config =
  let c = Systems.news in
  {
    c with
    Corpus.docs = c.Corpus.docs * 4;
    entities = c.Corpus.entities * 2;
    truth_pairs_per_relation = c.Corpus.truth_pairs_per_relation * 2;
  }

let sessions = 4
let setups_per_run = 5

let digest_of (a : float array) =
  let b = Bytes.create (8 * Array.length a) in
  Array.iteri (fun i v -> Bytes.set_int64_le b (8 * i) (Int64.bits_of_float v)) a;
  Digest.to_hex (Digest.bytes b)

let inference_layers = [ "sampling"; "variational"; "full_gibbs" ]

(* A fixed read mix against one published snapshot: point lookups spread
   over the query relation, a top-k, two threshold counts and per-entity
   scans.  Returns the number of reads made. *)
let read_mix snap =
  let facts = Snapshot.relation_facts snap Pipeline.query_relation in
  let n = Array.length facts in
  let k = min n 64 in
  let keys = Array.init k (fun i -> facts.(i * n / k).Snapshot.tuple) in
  let names = Array.map (fun t -> Value.to_string t.(0)) (Array.sub keys 0 (min 8 k)) in
  fun () ->
    for _ = 1 to 4 do
      Array.iter (fun key -> ignore (Snapshot.lookup snap ~relation:Pipeline.query_relation key)) keys;
      ignore (Snapshot.top_k snap 10);
      ignore (Snapshot.count_above snap 0.5);
      ignore (Snapshot.count_above snap 0.9);
      Array.iter (fun s -> ignore (Snapshot.entity_facts snap s)) names
    done;
    4 * (k + 3 + Array.length names)

(* One pass's replay evidence, compared against the warm-up pass. *)
type evidence = { strategies : string list; digests : string list; f1 : float }

let run ~seed ~seconds ~trace ~out:_ ledger =
  let corpus = Corpus.generate corpus_config in
  let truth = corpus.Corpus.truth in
  let updates = List.map (fun r -> (r, Pipeline.update_of r)) Pipeline.all_rule_ids in
  let setups =
    List.init setups_per_run (fun i ->
        let options = { options with Engine.seed = (setups_per_run * seed) + i } in
        Gc.full_major ();
        let t0 = now () in
        let db = Database.create () in
        let (), load_s = time (fun () -> Corpus.load corpus db) in
        let engine, create_s =
          time (fun () -> Engine.create ~options db (Pipeline.base_program ()))
        in
        (now () -. t0, load_s, create_s,
         if i >= setups_per_run - sessions then Some engine else None))
  in
  let engines = Array.of_list (List.filter_map (fun (_, _, _, e) -> e) setups) in
  Printf.printf "  set-ups (s): %s\n%!"
    (String.concat " " (List.map (fun (s, _, _, _) -> Printf.sprintf "%.3f" s) setups));
  let extra = ref [] in
  if trace then begin
    (* Set-up's phases through public calls: a fresh ground of the same
       inputs and a re-materialization (before its warm-up pass, so the
       session still replays itself). *)
    let db = Database.create () in
    Corpus.load corpus db;
    let _, ground_s = time (fun () -> Grounding.ground db (Pipeline.base_program ())) in
    let materialize_s = Engine.rematerialize engines.(0) in
    extra :=
      [
        ("corpus.load_s", median (List.map (fun (_, l, _, _) -> l) setups));
        ("engine.create_s", median (List.map (fun (_, _, c, _) -> c) setups));
        ("grounding.ground_s", ground_s);
        ("materialize.s", materialize_s);
      ]
  end;
  let epoch = ref 1 in
  let reads = ref 0 and read_s = ref 0.0 in
  let acceptance = ref [] in
  (* One update + publish; under tracing, its layer values go to [acc]. *)
  let apply_one engine acc (rule, update) =
    let rname = "rule." ^ Pipeline.rule_id_to_string rule in
    let step () =
      let report =
        span rname (fun () ->
            let r = Engine.apply_update engine update in
            charge "grounding.extend" r.Engine.grounding_seconds;
            charge "learner" r.Engine.learning_seconds;
            charge ("inference." ^ strategy_name r.Engine.strategy) r.Engine.inference_seconds;
            r)
      in
      incr epoch;
      let snap =
        span "snapshot.build" (fun () -> Snapshot.build ~truth ~epoch:!epoch ~txn_seq:!epoch engine)
      in
      (report, snap)
    in
    match acc with
    | None -> time step
    | Some values ->
      let compiles = Engine.kernel_compiles engine in
      let ((report, _) as r), p = traced_step step in
      let ms name v = add values name (1000.0 *. v) in
      ms "grounding.extend_ms" (get p.self "grounding.extend");
      ms "learner.ms" (get p.self "learner");
      List.iter
        (fun s -> ms ("inference." ^ s ^ "_ms") (get p.self ("inference." ^ s)))
        inference_layers;
      ms "snapshot.build_ms" (get p.self "snapshot.build");
      ms (rname ^ "_ms") (get p.total rname);
      let other = get p.self rname +. get p.self "step" in
      ms "engine.other_ms" other;
      let g = report.Engine.grounding in
      add values "grounding.flips" (float_of_int g.Grounding.flips);
      add values "grounding.new_factors" (float_of_int g.Grounding.new_factors);
      add values ("optimizer." ^ strategy_name report.Engine.strategy) 1.0;
      add values "engine.kernel_compiles" (float_of_int (Engine.kernel_compiles engine - compiles));
      Option.iter (fun a -> acceptance := a :: !acceptance) report.Engine.acceptance_rate;
      let service = get p.total "step" in
      check ledger
        (other >= -.(0.001 +. (0.01 *. service)))
        (Printf.sprintf "%s: engine-reported phases exceed the timed update by %.3f ms" rname
           (-1000.0 *. other));
      (r, service)
  in
  let pass engine ~traced =
    let values = if traced then Some (step_values ()) else None in
    let txn = Engine.txn_begin engine in
    let service = ref 0.0 and strategies = ref [] and digests = ref [] and f1s = ref [] in
    let last = ref None in
    (try
       List.iter
         (fun u ->
           let (report, snap), dt = apply_one engine values u in
           service := !service +. dt;
           (* Untimed: what the developer reads, and the replay evidence. *)
           strategies := strategy_name report.Engine.strategy :: !strategies;
           digests := digest_of report.Engine.marginals :: !digests;
           f1s :=
             (Quality.evaluate (Engine.grounding engine) report.Engine.marginals ~truth).Quality.f1
             :: !f1s;
           last := Some snap)
         updates
     with e ->
       problem ledger ("dev_loop pass raised " ^ Printexc.to_string e);
       last := None);
    Option.iter
      (fun snap ->
        match Snapshot.verify snap with
        | Ok () ->
          let n, dt = time (read_mix snap) in
          reads := !reads + n;
          read_s := !read_s +. dt
        | Error e -> problem ledger ("published snapshot failed verify: " ^ e))
      !last;
    let (), rollback_s = time (fun () -> Engine.txn_rollback engine txn) in
    Option.iter (fun v -> add v "txn.rollback_ms" (1000.0 *. rollback_s)) values;
    let ok = !last <> None in
    ( ok,
      !service,
      values,
      { strategies = List.rev !strategies; digests = List.rev !digests; f1 = sum !f1s /. 6.0 } )
  in
  let stats = Grounding.stats (Engine.grounding engines.(0)) in
  Printf.printf "  baseline %d vars, %d factors\n" stats.Grounding.variables stats.Grounding.factors;
  let references =
    Array.mapi
      (fun i engine ->
        let _, warm_s, _, ev = pass engine ~traced:false in
        Printf.printf "  session %d warm-up pass %.3fs, strategies %s, F1 %.3f\n%!" i warm_s
          (String.concat "," ev.strategies) ev.f1;
        ev)
      engines
  in
  reads := 0;
  read_s := 0.0;
  let per_session = Array.make sessions [] in
  let steps = ref [] and traced_steps = ref [] and traced = ref [] and latencies = ref [] in
  let t_end = now () +. seconds in
  let round = ref 0 in
  (* Whole rounds only, one pass per session, so every session contributes
     equally.  A round is the like step: its passes replay bit for bit from
     round to round, and its mean pass time is the latency sample. *)
  while now () < t_end do
    let is_traced = trace && !round mod 2 = 0 in
    incr round;
    let round_s = ref 0.0 and round_ok = ref true in
    Array.iteri
      (fun s engine ->
        ledger.attempted <- ledger.attempted + 1;
        let ok, service, values, ev = pass engine ~traced:is_traced in
        let replayed = ev = references.(s) in
        check ledger replayed
          (Printf.sprintf "session %d, round %d did not replay its warm-up pass (strategies %s)" s
             !round (String.concat "," ev.strategies));
        if not (ok && replayed) then begin
          ledger.failed <- ledger.failed + 1;
          round_ok := false
        end;
        round_s := !round_s +. service;
        match values with
        | Some v ->
          traced := v :: !traced;
          traced_steps := service :: !traced_steps
        | None ->
          if ok && replayed then begin
            steps := service :: !steps;
            per_session.(s) <- service :: per_session.(s)
          end)
      engines;
    if not is_traced then
      latencies :=
        (if !round_ok then 1000.0 *. !round_s /. float_of_int sessions else infinity) :: !latencies
  done;
  Printf.printf "  rounds (mean pass ms): %s\n%!"
    (String.concat " " (List.rev_map (Printf.sprintf "%.1f") !latencies));
  Printf.printf "  session median pass (ms): %s\n%!"
    (String.concat " "
       (Array.to_list (Array.map (fun l -> Printf.sprintf "%.1f" (1000.0 *. median l)) per_session)));
  let f1 = sum (Array.to_list (Array.map (fun r -> r.f1) references)) /. float_of_int sessions in
  check ledger (f1 > 0.0) "dev_loop F1 is zero";
  extra :=
    ("quality.f1", f1)
    :: ("serve.reads_per_s", float_of_int !reads /. !read_s)
    :: ( "metropolis.acceptance",
         if !acceptance = [] then 0.0
         else sum !acceptance /. float_of_int (List.length !acceptance) )
    :: !extra;
  {
    setup_s = median (List.map (fun (s, _, _, _) -> s) setups);
    latencies_ms = !latencies;
    steps = !steps;
    traced = !traced;
    traced_steps = !traced_steps;
    extra = !extra;
  }
