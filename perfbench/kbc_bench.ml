(* Entry point: one workload per process.

     kbc_bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]

   Prints a human-readable summary and, as the last line, one JSON object
   {correct, attempted, failed, metrics}.  With --trace 0 the metrics are
   the end-to-end ones; with --trace 1 they are the per-layer ones, taken
   from a run that alternates traced and untraced steps, and the spans are
   written to DIR at exit. *)

open Measure

let workloads =
  [
    ("dev_loop", Dev_loop.run);
    ("doc_stream", Doc_stream.run Doc_stream.small);
    ("doc_stream_big", Doc_stream.run Doc_stream.big);
  ]

(* Every per-layer metric, printed by every traced run; a layer a
   workload's steps never enter reads 0 there. *)
let per_layer =
  [
    ("corpus.load_s", "s");
    ("engine.create_s", "s");
    ("materialize.s", "s");
    ("grounding.ground_s", "s");
    ("feed.warmup_s", "s");
    ("grounding.extend_ms", "ms");
    ("grounding.flips", "count");
    ("grounding.new_factors", "count");
    ("learner.ms", "ms");
    ("inference.sampling_ms", "ms");
    ("inference.variational_ms", "ms");
    ("inference.full_gibbs_ms", "ms");
    ("metropolis.acceptance", "ratio");
    ("optimizer.sampling", "count");
    ("optimizer.variational", "count");
    ("optimizer.full_gibbs", "count");
    ("engine.kernel_compiles", "count");
    ("snapshot.build_ms", "ms");
    ("checkpoint.save_ms", "ms");
    ("feed.translate_ms", "ms");
    ("canonicalizer.merges", "count");
    ("engine.other_ms", "ms");
    ("txn.nondirect", "count");
    ("txn.rollback_ms", "ms");
    ("rule.A1_ms", "ms");
    ("rule.FE1_ms", "ms");
    ("rule.FE2_ms", "ms");
    ("rule.I1_ms", "ms");
    ("rule.S1_ms", "ms");
    ("rule.S2_ms", "ms");
    ("serve.reads_per_s", "1/s");
    ("quality.f1", "ratio");
    ("trace.steps", "count");
    ("trace.overhead_ratio", "ratio");
  ]

let usage () =
  prerr_endline
    "usage: kbc_bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]";
  prerr_endline ("workloads: " ^ String.concat ", " (List.map fst workloads));
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 40.0 and trace = ref 0 in
  let out = ref ".bench_out" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--out" :: v :: rest -> out := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let run = match List.assoc_opt !workload workloads with Some r -> r | None -> usage () in
  if !trace <> 0 && !trace <> 1 then usage ();
  let trace = !trace = 1 in
  tracing := trace;
  if not (Sys.file_exists !out) then Sys.mkdir !out 0o755;
  Printf.printf "%s seed=%d seconds=%g trace=%b\n%!" !workload !seed !seconds trace;
  let ledger = ledger () in
  let o = run ~seed:!seed ~seconds:!seconds ~trace ~out:!out ledger in
  let metrics =
    if not trace then
      [
        m "setup_s" "s" o.setup_s;
        m "latency_p50_ms" "ms" (median o.latencies_ms);
        m "heap_peak_mb" "MiB" (heap_peak_mb ());
      ]
    else begin
      let n = List.length o.traced in
      let mean name =
        if n = 0 then 0.0 else sum (List.map (fun v -> get v name) o.traced) /. float_of_int n
      in
      let overhead =
        if o.steps = [] || o.traced_steps = [] then 0.0
        else median o.traced_steps /. median o.steps
      in
      let extra = ("trace.steps", float_of_int n) :: ("trace.overhead_ratio", overhead) :: o.extra in
      List.map
        (fun (name, unit_) ->
          m name unit_
            (match List.assoc_opt name extra with Some v -> v | None -> mean name))
        per_layer
    end
  in
  if trace then
    write_spans (Filename.concat !out (Printf.sprintf "spans-%s-seed%d.tsv" !workload !seed));
  emit ledger metrics
