(* doc_stream / doc_stream_big: the streaming ingest -> serve -> persist loop,
   open on the stream's virtual clock.

   A seeded [Source.synthetic] stream is micro-batched ([Batcher], 8 docs or
   50 ms of stream time) and each batch goes through [Feed.ingest]: tokenize,
   mention finding, canonicalization, one [Txn.apply] (DRed grounding,
   learning, optimizer, inference) and, on commit, the [Server]'s snapshot
   publish.  Every [ckpt_every] batches the engine is checkpointed and the
   feed state saved as a sidecar blob, fsynced.

   Set-up ingests a warm-up prefix of the stream as one backlog batch and
   re-materializes, so the measured batches run against a materialized
   baseline of realistic size.
   [small] keeps that baseline under the default variational cap (600
   variables); [big] lands above it, so there is no variational artifact and
   every batch runs Metropolis-Hastings over the samples stored at set-up.
   Nothing re-materializes during the stream, as in [Feed.run], so MH
   acceptance drifts down along the stream as the program's own behaviour.

   Documents arrive at the stream's own timestamps (a fixed nominal rate);
   batch service time is measured and queued on a virtual clock as in
   [Feed.run], without sleeping through idle gaps.  A batch's latency runs
   from its close ([Batcher] ready time) to served: its queue wait plus its
   service.  The batching wait before the close is left out, because at a
   low rate it is the batcher's constant 50 ms deadline, not work. *)

open Measure
module Source = Dd_ingest.Source
module Batcher = Dd_ingest.Batcher
module Feed = Dd_ingest.Feed
module Pipeline = Dd_kbc.Pipeline
module Checkpoint = Dd_kbc.Checkpoint
module Engine = Dd_core.Engine
module Grounding = Dd_core.Grounding
module Program = Dd_core.Program
module Txn = Dd_core.Txn
module Server = Dd_serve.Server
module Snapshot = Dd_serve.Snapshot
module Database = Dd_relational.Database

type config = {
  label : string;
  entities : int;
  warmup_docs : int;
  timed_docs : int;
  rate : float;  (** nominal arrival rate, docs per stream second *)
  replays : int;  (** streams per run, each from a fresh set-up *)
  setups : int;  (** set-ups per run: one per stream, the rest timed and dropped *)
}

(* Odd, so checkpoints fall on traced and untraced batches alike. *)
let ckpt_every = 5

(* The rates keep the server well under fully busy on a 2-core host, so
   queueing does not amplify service noise into latency.  Every batch is
   answered against the baseline materialized at set-up, so batch service
   grows along the stream. *)
let small =
  {
    label = "doc_stream";
    entities = 60;
    warmup_docs = 200;
    timed_docs = 200;
    rate = 60.0;
    replays = 15;
    setups = 15;
  }

let big =
  {
    label = "doc_stream_big";
    entities = 120;
    warmup_docs = 400;
    timed_docs = 25;
    rate = 1.5;
    replays = 4;
    setups = 12;
  }

(* The engine options and program of the repository's ingestion bench:
   feature and supervision rules ride along; the quadratic same-pair rule
   (I1) and the deeper feature template (FE2) stay out. *)
let options =
  {
    Engine.default_options with
    Engine.materialization_samples = 300;
    inference_chain = 120;
    initial_learning_epochs = 25;
    incremental_learning_epochs = 6;
  }

let program () =
  Program.add_rules (Pipeline.base_program ())
    (Pipeline.rules_of Pipeline.FE1 @ Pipeline.rules_of Pipeline.S1 @ Pipeline.rules_of Pipeline.S2)

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

type live = {
  source : Source.t;
  mutable delivered : Source.doc list;  (** every document given to the feed *)
  txn : Txn.t;
  feed : Feed.t;
  server : Server.t;
  store : Checkpoint.t;
  batcher : Batcher.t;
}

(* The canonical entity count the feed must reach on what it was given:
   mentioned names, joined by case normalization and by every alias
   declaration delivered so far.  When no declaration is still deferred at
   the end of the stream this is [Source.true_entities]; a declaration the
   stream never delivered leaves its variant a separate entity. *)
let expected_entities docs =
  let parent = Hashtbl.create 256 in
  let rec find k =
    match Hashtbl.find_opt parent k with Some p when p <> k -> find p | _ -> k
  in
  let key name =
    let k = Dd_text.Mention_finder.normalize_name name in
    if not (Hashtbl.mem parent k) then Hashtbl.replace parent k k;
    k
  in
  let mentioned = ref [] in
  List.iter
    (fun (doc : Source.doc) ->
      match doc.Source.payload with
      | Source.Text { names; aliases; _ } ->
        List.iter (fun n -> mentioned := key n :: !mentioned) names;
        List.iter
          (fun (a, b) ->
            let ra = find (key a) and rb = find (key b) in
            if ra <> rb then Hashtbl.replace parent ra rb)
          aliases
      | Source.Rows _ -> ())
    docs;
  List.length (List.sort_uniq compare (List.map find !mentioned))

let save_checkpoint live =
  Checkpoint.save live.store (Txn.engine live.txn);
  Checkpoint.save_blob live.store ~name:"feed" (Feed.encode_state live.feed)

(* A fixed read mix through the server after each batch: point lookups of
   facts the snapshot holds, a top-k, two threshold counts, entity scans. *)
let read_mix server =
  let snap = Server.current server in
  let facts = Snapshot.relation_facts snap Pipeline.query_relation in
  let n = Array.length facts in
  let k = min n 32 in
  let keys = Array.init k (fun i -> facts.(i * n / k).Snapshot.tuple) in
  let names =
    Array.map (fun t -> Dd_relational.Value.to_string t.(0)) (Array.sub keys 0 (min 4 k))
  in
  fun () ->
    Array.iter (fun key -> ignore (Server.lookup server ~relation:Pipeline.query_relation key)) keys;
    ignore (Server.top_k server 10);
    ignore (Server.count_above server 0.5);
    ignore (Server.count_above server 0.9);
    Array.iter (fun s -> ignore (Server.entity_facts server s)) names;
    k + 3 + Array.length names

(* Set-up: everything from an empty database to a served, checkpointed
   state over the warm-up prefix. *)
let setup cfg source_config ~store_dir ledger =
  (* Inputs first: the stream is generated before the clock starts. *)
  let source = Source.synthetic source_config in
  Gc.full_major ();
  let t0 = now () in
  let db = Database.create () in
  Feed.prepare_database db source;
  let engine, create_s = time (fun () -> Engine.create ~options db (program ())) in
  let txn = Txn.create engine in
  let feed = Feed.create txn in
  let batcher = Batcher.create ~max_docs:8 ~max_delay_s:0.05 () in
  let warm = ref [] in
  (* The warm-up prefix is a backlog that is already there when the feed
     starts, so it is ingested as one batch, not on the live deadline. *)
  let backlog = Batcher.create ~max_docs:cfg.warmup_docs ~max_delay_s:infinity () in
  let ingest (b : Batcher.batch) =
    warm := List.rev_append b.Batcher.docs !warm;
    match (Feed.ingest feed b).Feed.outcome with
    | Ok _ -> ()
    | Error e -> problem ledger ("warm-up batch failed: " ^ Txn.error_message e)
  in
  let (), warmup_s =
    time (fun () ->
        for _ = 1 to cfg.warmup_docs do
          match Source.next source with
          | Some doc -> Option.iter ingest (Batcher.push backlog doc)
          | None -> ()
        done;
        Option.iter ingest (Batcher.drain backlog))
  in
  let materialize_s = Engine.rematerialize (Txn.engine txn) in
  let server = Server.create txn in
  let live =
    {
      source;
      delivered = !warm;
      txn;
      feed;
      server;
      store = Checkpoint.open_store store_dir;
      batcher;
    }
  in
  save_checkpoint live;
  ( now () -. t0,
    [ ("engine.create_s", create_s); ("feed.warmup_s", warmup_s); ("materialize.s", materialize_s) ],
    live )

(* Untimed closing checks of one replay of the stream. *)
let closing_checks cfg live ledger =
  let stats = Feed.stats live.feed in
  check ledger
    (stats.Feed.quarantined = 0 && Txn.dead_letters live.txn = [])
    (Printf.sprintf "%s: %d batches quarantined" cfg.label stats.Feed.quarantined);
  let bound = Feed.entities_bound live.feed and truth = Source.true_entities live.source in
  let expected = expected_entities live.delivered in
  check ledger (bound = expected && expected >= truth)
    (Printf.sprintf "%s: canonicalized entities %d, expected %d from the delivered aliases (%d true)"
       cfg.label bound expected truth);
  (match Snapshot.verify (Server.current live.server) with
  | Ok () -> ()
  | Error e -> problem ledger ("final snapshot failed verify: " ^ e));
  let before = Feed.encode_state live.feed in
  save_checkpoint live;
  match Checkpoint.recover live.store with
  | Error e -> problem ledger ("checkpoint recovery failed: " ^ Checkpoint.error_to_string e)
  | Ok (engine, _) -> (
    match Checkpoint.load_blob live.store ~name:"feed" with
    | Ok (Some blob) -> (
      match Feed.decode_state blob with
      | Ok state ->
        let recovered = Feed.create ~state (Txn.create engine) in
        check ledger (Feed.encode_state recovered = before)
          "recovered feed state is not byte-identical"
      | Error e -> problem ledger ("feed blob did not decode: " ^ e))
    | Ok None -> problem ledger "feed blob missing after save"
    | Error e -> problem ledger ("feed blob failed to load: " ^ Checkpoint.error_to_string e))

(* A run replays [cfg.replays] streams drawn from --seed, each from a fresh
   set-up.  Their batches are like steps of one another; several streams
   per run average out how much one stream's content moves the cost (MH
   acceptance, graph growth).  The run then sets up the warm-up prefixes of
   further streams, timed and dropped, so that [setup_s] is a median over
   [cfg.setups] set-ups. *)
let run cfg ~seed ~seconds:_ ~trace ~out ledger =
  let source_config k =
    {
      Source.default with
      Source.docs = cfg.warmup_docs + cfg.timed_docs;
      entities = cfg.entities;
      rate = cfg.rate;
      seed = (seed * 1000) + k;
    }
  in
  let store_root = Filename.concat out (Printf.sprintf "store-%s-%d" cfg.label (Unix.getpid ())) in
  remove_tree store_root;
  Sys.mkdir store_root 0o755;
  let setups = ref [] and batches = ref 0 in
  let steps = ref [] and traced_steps = ref [] and traced = ref [] in
  let latencies = ref [] and docs = ref 0 in
  let acceptance = ref [] in
  let reads = ref 0 and read_s = ref 0.0 in
  let busy = ref 0.0 and stream_s = ref 0.0 in
  let replay rep =
    let setup_s, phases, live =
      setup cfg (source_config rep) ~store_dir:(Filename.concat store_root (string_of_int rep)) ledger
    in
    setups := (setup_s, phases) :: !setups;
    if rep = 0 then
      Printf.printf "  baseline: %d vars after %d warm-up docs; variational artifact: %b\n%!"
        (Dd_fgraph.Graph.num_vars (Engine.graph (Txn.engine live.txn)))
        cfg.warmup_docs
        ((Engine.materialization (Txn.engine live.txn)).Dd_core.Materialize.variational <> None);
    let now_v = ref neg_infinity and first_arrival = ref nan and in_rep = ref 0 in
    let merges_before = ref (Feed.stats live.feed).Feed.merges in
    let rep_service = ref [] and rep_acc = ref [] in
    let process (batch : Batcher.batch) =
      incr batches;
      incr in_rep;
      live.delivered <- List.rev_append batch.Batcher.docs live.delivered;
      let is_traced = trace && !batches mod 2 = 1 in
      let checkpoint = !in_rep mod ckpt_every = 0 in
      let swaps = (Server.health live.server).Server.swaps in
      let step () =
        let report =
          span "feed.ingest" (fun () ->
              let r = Feed.ingest live.feed batch in
              (match r.Feed.outcome with
              | Ok o ->
                let e = o.Txn.report in
                charge "grounding.extend" e.Engine.grounding_seconds;
                charge "learner" e.Engine.learning_seconds;
                charge ("inference." ^ strategy_name e.Engine.strategy) e.Engine.inference_seconds
              | Error _ -> ());
              let h = Server.health live.server in
              if h.Server.swaps > swaps then charge "snapshot.build" (h.Server.last_swap_ms /. 1000.0);
              r)
        in
        if checkpoint then span "checkpoint.save" (fun () -> save_checkpoint live);
        report
      in
      let compiles = Engine.kernel_compiles (Txn.engine live.txn) in
      let result, service, profile =
        match
          if is_traced then begin
            let r, p = traced_step step in
            (r, get p.total "step", Some p)
          end
          else
            let r, dt = time step in
            (r, dt, None)
        with
        | r, s, p -> (Ok r, s, p)
        | exception e -> (Error (Printexc.to_string e), 0.0, None)
      in
      (* The virtual clock: a batch starts when it has closed and the
         previous one is served. *)
      if Float.is_nan !first_arrival then
        first_arrival := (List.hd batch.Batcher.docs).Source.arrival_s;
      let start_v = Float.max !now_v batch.Batcher.ready_s in
      now_v := start_v +. service;
      busy := !busy +. service;
      ledger.attempted <- ledger.attempted + 1;
      let failed =
        match result with
        | Ok r -> ( match r.Feed.outcome with Ok _ -> None | Error e -> Some (Txn.error_message e))
        | Error e -> Some ("raised " ^ e)
      in
      Option.iter
        (fun msg ->
          ledger.failed <- ledger.failed + 1;
          problem ledger (Printf.sprintf "%s batch %d failed: %s" cfg.label !in_rep msg))
        failed;
      docs := !docs + List.length batch.Batcher.docs;
      rep_service := (1000.0 *. service) :: !rep_service;
      (match result with
      | Ok { Feed.outcome = Ok o; _ } ->
        Option.iter (fun a -> rep_acc := a :: !rep_acc) o.Txn.report.Engine.acceptance_rate
      | _ -> ());
      latencies :=
        (if failed = None then 1000.0 *. (!now_v -. batch.Batcher.ready_s) else infinity)
        :: !latencies;
      (match (result, profile) with
      | Ok r, Some p ->
        let v = step_values () in
        let ms name x = add v name (1000.0 *. x) in
        List.iter
          (fun layer -> ms (layer ^ "_ms") (get p.self layer))
          [
            "grounding.extend"; "inference.sampling"; "inference.variational";
            "inference.full_gibbs"; "snapshot.build"; "checkpoint.save";
          ];
        ms "learner.ms" (get p.self "learner");
        let translate = get p.self "feed.ingest" +. get p.self "step" in
        ms "feed.translate_ms" translate;
        check ledger
          (translate >= -.(0.001 +. (0.01 *. service)))
          (Printf.sprintf "batch %d: engine-reported phases exceed the timed ingest by %.3f ms"
             !in_rep (-1000.0 *. translate));
        let merges = (Feed.stats live.feed).Feed.merges in
        add v "canonicalizer.merges" (float_of_int (merges - !merges_before));
        (match r.Feed.outcome with
        | Ok o ->
          let e = o.Txn.report in
          add v "grounding.flips" (float_of_int e.Engine.grounding.Grounding.flips);
          add v "grounding.new_factors" (float_of_int e.Engine.grounding.Grounding.new_factors);
          add v ("optimizer." ^ strategy_name e.Engine.strategy) 1.0;
          add v "txn.nondirect" (if o.Txn.rung = Txn.Direct then 0.0 else 1.0);
          Option.iter (fun a -> acceptance := a :: !acceptance) e.Engine.acceptance_rate
        | Error _ -> ());
        add v "engine.kernel_compiles"
          (float_of_int (Engine.kernel_compiles (Txn.engine live.txn) - compiles));
        traced := v :: !traced;
        traced_steps := service :: !traced_steps
      | Ok _, None -> steps := service :: !steps
      | Error _, _ -> ());
      merges_before := (Feed.stats live.feed).Feed.merges;
      (* Untimed: the read mix against what was just served. *)
      let n, dt = time (read_mix live.server) in
      reads := !reads + n;
      read_s := !read_s +. dt
    in
    let rec pump () =
      match Source.next live.source with
      | None -> Option.iter process (Batcher.drain live.batcher)
      | Some doc ->
        Option.iter process (Batcher.push live.batcher doc);
        pump ()
    in
    pump ();
    let drift =
      match Array.of_list (List.rev !rep_acc) with
      | [||] -> "no MH"
      | a ->
        let q = max 1 (Array.length a / 4) in
        let mean lo = sum (Array.to_list (Array.sub a lo q)) /. float_of_int q in
        Printf.sprintf "MH acceptance %.2f -> %.2f" (mean 0) (mean (Array.length a - q))
    in
    Printf.printf "  stream %d: set-up %.3f s, %d batches, median service %.1f ms, %s\n%!" rep
      setup_s (List.length !rep_service) (median !rep_service) drift;
    stream_s := !stream_s +. (!now_v -. !first_arrival);
    closing_checks cfg live ledger
  in
  for rep = 0 to cfg.replays - 1 do
    replay rep
  done;
  for k = cfg.replays to cfg.setups - 1 do
    let dir = Filename.concat store_root (string_of_int k) in
    let setup_s, phases, _ = setup cfg (source_config k) ~store_dir:dir ledger in
    setups := (setup_s, phases) :: !setups;
    remove_tree dir
  done;
  remove_tree store_root;
  Printf.printf "  %d replays, %d batches, %.2f docs/batch, server utilization %.2f\n%!"
    cfg.replays !batches
    (float_of_int !docs /. float_of_int !batches)
    (!busy /. !stream_s);
  Printf.printf "  batch latency deciles (ms): %s\n"
    (String.concat " "
       (List.init 9 (fun i ->
            Printf.sprintf "%.1f" (percentile !latencies (float_of_int (i + 1) /. 10.0)))));
  Printf.printf "  set-ups (s): %s\n%!"
    (String.concat " " (List.rev_map (fun (s, _) -> Printf.sprintf "%.3f" s) !setups));
  let setup_phase name = median (List.map (fun (_, ph) -> List.assoc name ph) !setups) in
  let extra =
    ("serve.reads_per_s", float_of_int !reads /. !read_s)
    :: ( "metropolis.acceptance",
         if !acceptance = [] then 0.0
         else sum !acceptance /. float_of_int (List.length !acceptance) )
    :: List.map (fun n -> (n, setup_phase n)) [ "engine.create_s"; "feed.warmup_s"; "materialize.s" ]
  in
  {
    setup_s = median (List.map fst !setups);
    latencies_ms = !latencies;
    steps = !steps;
    traced = !traced;
    traced_steps = !traced_steps;
    extra;
  }
