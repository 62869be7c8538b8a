(* The eco_chain workload: a cold decompose and snapshot of a synthetic
   layout, then a chain of ECO edits, each loading the previous session,
   parsing an edit script, re-decomposing incrementally and saving the
   next session. *)

open Common
module Eco = Mpl.Eco

let features = 20_000
let edits_per_op = features / 100
(* Edits chained in a run: at least [ops], or [--seconds] worth at the
   seed's [edit_s] per edit. *)
let ops = 100
let edit_s = 0.17
let limit_s = 2.0
let session_file = "eco.session"

let params = params ~jobs:1

(* Set-ups per run: three, not the usual five — each is a cold
   decompose and snapshot, a hundred times the others' cost. *)
let setups = 3

type base = {
  text : string;
  layout : Layout.t;
  report : D.report;
  graph : Mpl.Decomp_graph.t;
  session : Eco.session;  (** set by [setup] *)
}

(* Set-up: generate the layout, decompose it cold, snapshot and save the
   session the chain starts from. [decompose] builds the base. *)
let setup ~seed ~decompose =
  let text = Inputs.synth_text ~seed ~features in
  let base = decompose text in
  let session, snapshot_s =
    timed (fun () ->
        D.snapshot ~params ~min_s D.Linear base.graph base.layout base.report)
  in
  Eco.save session session_file;
  ({ base with session }, snapshot_s)

let no_session =
  {
    Eco.layout_text = "";
    layout_hash = "";
    min_s;
    salt = "";
    seg_counts = [||];
    comps = [||];
  }

let cold_decompose text =
  let layout = Layout_io.of_string text in
  let graph, report = D.decompose ~params ~min_s D.Linear layout in
  { text; layout; report; graph; session = no_session }

(* The edit script of operation [i] against the current layout: made
   outside the timed region, handed over as text. *)
let script ~seed i layout =
  Eco.edits_to_string
    (Eco.generate ~seed:(Inputs.derive seed 2 i) ~count:edits_per_op layout)

type step = {
  layout' : Layout.t;
  report' : D.report;
  wall : float;
  load_s : float;
  redecompose_s : float;
  save_s : float;
}

let step text =
  let t0 = now () in
  let prev, load_s = timed (fun () -> Eco.load session_file) in
  let t1 = now () in
  let result =
    match Eco.parse_edits text with
    | Error e -> Error e
    | Ok edits -> D.redecompose ~params ~prev ~edits D.Linear
  in
  let redecompose_s = now () -. t1 in
  match result with
  | Error e -> Error e
  | Ok (layout', report', next) ->
    let (), save_s = timed (fun () -> Eco.save next session_file) in
    Ok { layout'; report'; wall = now () -. t0; load_s; redecompose_s; save_s }

(* One finished edit, kept for the check after the chain. *)
type result = { script : string; cost : Coloring.cost; colors : Bytes.t }

(* Run the chain from the saved base session. [on_step] sees every
   successful step. Returns the step latencies, the features per second
   of each step, a digest of the edit scripts and every step's result. *)
let chain ~seed ~log base ?(ops = ops) ?(on_step = fun _ -> ()) () =
  Eco.save base.session session_file;
  let cur = ref base.layout and lats = ref [] and digests = ref [] in
  let rates = ref [] and results = ref [] in
  for i = 1 to ops do
    let script = script ~seed i !cur in
    digests := Inputs.digest script :: !digests;
    match step script with
    | Error e -> fail log "edit %d: %s" i e
    | Ok s ->
      on_step s;
      lats := s.wall :: !lats;
      rates := (float_of_int (Layout.feature_count s.layout') /. s.wall) :: !rates;
      let colors = Bytes.init (Array.length s.report'.D.colors) (fun v ->
          Char.chr s.report'.D.colors.(v)) in
      results := { script; cost = s.report'.D.cost; colors } :: !results;
      cur := s.layout'
  done;
  ( List.rev !lats,
    !rates,
    Inputs.digest (String.concat "" (List.rev !digests)),
    List.rev !results )

(* Check every edit's result after the chain: replay the scripts from
   the base layout with [Eco.apply] and recount each edited layout. *)
let verify ~seed ~log base results =
  let cur = ref base.layout in
  List.iteri
    (fun i r ->
      let what = Printf.sprintf "edit %d" (i + 1) in
      match Result.bind (Eco.parse_edits r.script) (Eco.apply !cur) with
      | Error e -> fail log "%s: %s" what e
      | Ok (layout, _) ->
        let colors = Array.init (Bytes.length r.colors) (fun v -> Char.code (Bytes.get r.colors v)) in
        ignore (check_result log ~what ?expect:(Expected.eco ~seed (i + 1)) layout r.cost colors);
        cur := layout)
    results

let base_metrics log ~seed base =
  let what = Printf.sprintf "eco base seed %d" seed in
  check_result log ~what ?expect:(Expected.eco ~seed 0) base.layout
    base.report.D.cost base.report.D.colors

let run ~seed ~seconds =
  let log = new_log () in
  let ops = max ops (int_of_float (float_of_int seconds /. edit_s)) in
  let runs =
    List.init setups (fun _ -> timed (fun () -> setup ~seed ~decompose:cold_decompose))
  in
  let (base, _), _ = List.nth runs (setups - 1) in
  let setup_s = Stat.median (List.map snd runs) in
  Gc.full_major ();
  let lats, rates, edits_digest, results = chain ~seed ~log base ~ops () in
  let peak = peak_rss_mb () in
  let cn, st = Option.value (base_metrics log ~seed base) ~default:(0, 0) in
  verify ~seed ~log base results;
  let p50, p90 = latency_ms lats in
  let within = List.length (List.filter (fun l -> l <= limit_s) lats) in
  let attempted = ops + 1 in
  {
    attempted;
    failed = log.n_failed;
    errors = log.reasons;
    inputs = [ ("layout", Inputs.digest base.text); ("edits", edits_digest) ];
    metrics =
      [
        m "setup_s" "s" setup_s;
        m "features_per_s" "1/s" (Stat.median rates);
        m "peak_rss_mb" "MiB" peak;
        m "conflicts" "count" (float_of_int cn);
        m "stitches" "count" (float_of_int st);
        m "eco_edit_ms_p50" "ms" p50;
        m "eco_edit_ms_p90" "ms" p90;
        m "serve_latency_ms_p50" "ms" p50;
        m "serve_latency_ms_p90" "ms" p90;
        m "serve_goodput_rps" "1/s" (float_of_int within /. Stat.sum lats);
        m "failed_ratio" "ratio" (failed_ratio ~attempted ~failed:log.n_failed);
      ];
  }

(* Traced: the base is built from timed layer calls and probed like a
   batch layout; the chain runs once untraced and once with each step's
   calls timed, both from the same base session. *)
let run_traced ~seed =
  let log = new_log () in
  let layers = Layers.create () in
  let spec =
    {
      Batch.algo = D.Linear;
      jobs = 1;
        min_passes = 1;
      pass_s = 1.;
      limit_s;
      inputs = (fun () -> []);
      expect = (fun _ -> None);
    }
  in
  let decompose text =
    let t = Batch.traced_op layers spec text in
    ignore (Batch.division_probe layers D.Linear t.Batch.graph);
    {
      text;
      layout = t.Batch.op.Batch.layout;
      report = t.Batch.op.Batch.report;
      graph = t.Batch.graph;
      session = no_session;
    }
  in
  let base, snapshot_s = setup ~seed ~decompose in
  Layers.set layers "eco.snapshot_s" snapshot_s;
  Batch.set_hit_ratio layers;
  ignore (base_metrics log ~seed base);
  let c0 = cpu_s () in
  let (untraced, _, _, first), elapsed = timed (chain ~seed ~log base) in
  let untraced_wall = Stat.sum untraced in
  Layers.set layers "process.cpu_util" ((cpu_s () -. c0) /. elapsed);
  verify ~seed ~log base first;
  let accounted = ref 0. and dirty = ref 0 and reused = ref 0 and comps = ref 0 in
  let on_step s =
    let add name v = Layers.add layers name v in
    add "eco.load_s" s.load_s;
    add "eco.redecompose_s" s.redecompose_s;
    add "eco.save_s" s.save_s;
    accounted := !accounted +. s.load_s +. s.redecompose_s +. s.save_s;
    Option.iter
      (fun (e : D.eco_stats) ->
        dirty := !dirty + e.D.dirty_features;
        reused := !reused + e.D.reused_components;
        comps := !comps + e.D.reused_components + e.D.dirty_components)
      s.report'.D.eco
  in
  (* Eco.apply is timed on its own, outside the steps: redecompose
     applies the edits itself. *)
  let cur = ref base.layout in
  for i = 1 to ops do
    match Eco.parse_edits (script ~seed i !cur) with
    | Ok edits -> (
      match timed (fun () -> Eco.apply !cur edits) with
      | Ok (l, _), dt ->
        Layers.add layers "eco.apply_s" dt;
        cur := l
      | Error _, _ -> ())
    | Error _ -> ()
  done;
  let traced, _, edits_digest, again = chain ~seed ~log base ~on_step () in
  if again <> first then fail log "traced chain: results differ from the untraced run";
  let wall = Stat.sum traced in
  Layers.set layers "eco.dirty_features" (float_of_int !dirty /. float_of_int ops);
  if !comps > 0 then
    Layers.set layers "eco.reused_ratio" (float_of_int !reused /. float_of_int !comps);
  Layers.set layers "trace.unaccounted_s" (wall -. !accounted);
  Layers.set layers "trace.overhead_ratio" (wall /. untraced_wall);
  {
    attempted = (2 * ops) + 1;
    failed = log.n_failed;
    errors = log.reasons;
    inputs = [ ("layout", Inputs.digest base.text); ("edits", edits_digest) ];
    metrics = Layers.metrics layers;
  }
