(* Clock, span recording, step accounting and the result line shared by
   every workload.

   All timings come from the monotonic clock, which never steps.  Layer
   times the engine reports itself (grounding / learning / inference
   seconds, the server's swap latency) are taken as reported. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* --- order statistics ---------------------------------------------------- *)

(* Linear interpolation between order statistics.  Failed operations enter
   as [infinity] and so count as missing any latency limit; an
   interpolation that touches one yields [infinity], never NaN. *)
let percentile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = p *. float_of_int (n - 1) in
    let lo = int_of_float (floor pos) in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    if frac = 0.0 || a.(lo) = a.(hi) then a.(lo)
    else if a.(hi) = infinity then infinity
    else a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 0.5

let sum xs = List.fold_left ( +. ) 0.0 xs

(* --- spans ----------------------------------------------------------------- *)

(* A span is (name, start, stop, parent).  Durations the engine reports
   about work inside a span the bench timed ("charged" spans) have no
   timestamps of their own; they are stored with [start = nan] and their
   duration in [stop].  Spans stay in memory and are written at exit. *)
type span = { id : int; name : string; parent : int; start : float; stop : float }

let duration s = if Float.is_nan s.start then s.stop else s.stop -. s.start

let tracing = ref false
let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let open_span name =
  let id = !next_id in
  incr next_id;
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  stack := id :: !stack;
  (id, parent, name, now ())

let close_span (id, parent, name, start) =
  let stop = now () in
  stack := List.tl !stack;
  spans := { id; name; parent; start; stop } :: !spans

(* [span name f] times [f] as a child of the innermost open span.  With
   tracing off it is a plain call. *)
let span name f =
  if not !tracing then f ()
  else begin
    let s = open_span name in
    match f () with
    | r ->
      close_span s;
      r
    | exception e ->
      close_span s;
      raise e
  end

(* Attribute [seconds] of engine-reported work to a child of the innermost
   open span. *)
let charge name seconds =
  if !tracing && seconds > 0.0 then begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    spans := { id; name; parent; start = nan; stop = seconds } :: !spans
  end

(* Per-name total and self time (span minus its children) over the spans of
   one traced step, as returned by [traced_step]. *)
type profile = { total : (string, float) Hashtbl.t; self : (string, float) Hashtbl.t }

let get tbl name = Option.value ~default:0.0 (Hashtbl.find_opt tbl name)

let add tbl name v = Hashtbl.replace tbl name (get tbl name +. v)

let profile_of step_spans =
  let children = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt children s.parent) in
      Hashtbl.replace children s.parent (prev +. duration s))
    step_spans;
  let total = Hashtbl.create 16 and self = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let below = Option.value ~default:0.0 (Hashtbl.find_opt children s.id) in
      add total s.name (duration s);
      add self s.name (duration s -. below))
    step_spans;
  { total; self }

(* Run one step under a root span named [step] and return its profile
   alongside the result.  Raises what [f] raises. *)
let traced_step f =
  let mark = !next_id in
  let r = span "step" f in
  let rec take acc = function
    | s :: rest when s.id >= mark -> take (s :: acc) rest
    | _ -> acc
  in
  (r, profile_of (take [] !spans))

let write_spans path =
  let oc = open_out path in
  output_string oc "id\tparent\tname\tstart_s\tstop_s\n";
  List.iter
    (fun s -> Printf.fprintf oc "%d\t%d\t%s\t%.9f\t%.9f\n" s.id s.parent s.name s.start s.stop)
    (List.rev !spans);
  close_out oc

(* The per-layer name of the strategy an update was answered with. *)
let strategy_name = function
  | Dd_core.Engine.Used_sampling -> "sampling"
  | Dd_core.Engine.Used_variational -> "variational"
  | Dd_core.Engine.Used_full_gibbs -> "full_gibbs"

(* --- what a workload hands back ------------------------------------------ *)

(* The traced run alternates traced and untraced steps of the same kind;
   [trace.overhead_ratio] compares their median service times. *)
type outcome = {
  setup_s : float;  (** median over the set-up repetitions *)
  latencies_ms : float list;  (** one per step: ready -> served *)
  steps : float list;  (** service seconds of untraced steps *)
  traced : (string, float) Hashtbl.t list;
      (** per traced step: per-layer metric values in the metric's unit *)
  traced_steps : float list;  (** service seconds of traced steps *)
  extra : (string * float) list;  (** per-layer metrics that are not per step *)
}

let step_values () : (string, float) Hashtbl.t = Hashtbl.create 32

(* --- checks and operation accounting ----------------------------------- *)

type ledger = { mutable attempted : int; mutable failed : int; mutable problems : string list }

let ledger () = { attempted = 0; failed = 0; problems = [] }

let problem ledger msg = ledger.problems <- msg :: ledger.problems

(* A correctness check outside the timed regions. *)
let check ledger cond msg = if not cond then problem ledger msg

(* --- result line ----------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let emit ledger metrics =
  List.iter
    (fun mt -> Printf.printf "  %-28s %16.6f %s\n" mt.name mt.value mt.unit_)
    metrics;
  Printf.printf "  attempted %d, failed %d\n" ledger.attempted ledger.failed;
  List.iter (fun p -> Printf.printf "  CHECK FAILED: %s\n" p) (List.rev ledger.problems);
  let body =
    String.concat ", "
      (List.map
         (fun mt ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" mt.name (json_number mt.value)
             mt.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (ledger.problems = [])
    ledger.attempted ledger.failed body
