(* The batch workloads, synth_linear and iscas_sdp: layout text in,
   serialized coloring out, one [Decomposer.decompose] per layout. *)

open Common
module Decomp_graph = Mpl.Decomp_graph
module Division = Mpl.Division

type spec = {
  algo : D.algorithm;
  jobs : int;
  min_passes : int;
  pass_s : float;
      (** a pass's wall time at the seed: a run of [--seconds S] makes
          [max min_passes (S / pass_s)] passes over [inputs] *)
  limit_s : float;  (** frozen per-layout latency limit for goodput *)
  inputs : unit -> (string * string) list;  (** (name, layout text) *)
  expect : string -> (int * int) option;  (** recorded (cn#, st#) *)
}

(* One finished operation: its layout, report, serialized coloring and
   wall time. *)
type op = { layout : Layout.t; report : D.report; out : string; wall : float }

(* One operation, untraced: parse, decompose, serialize. *)
let decompose_op spec text =
  let t0 = now () in
  let layout = Layout_io.of_string text in
  let _g, report =
    D.decompose ~params:(params ~jobs:spec.jobs) ~min_s spec.algo layout
  in
  let out = serialize report.D.colors in
  { layout; report; out; wall = now () -. t0 }

let colors_of_text out =
  String.split_on_char '\n' out
  |> List.filter (fun l -> l <> "")
  |> List.map int_of_string |> Array.of_list

(* Check one operation's serialized output; (cn#, st#) when it holds. *)
let check log spec name op =
  check_result log ~what:name ?expect:(spec.expect name) op.layout
    op.report.D.cost (colors_of_text op.out)

(* Set-up [n] times; the inputs of the last one are used. Generating
   the input text takes 0.1-0.2 s, so eleven set-ups, not the usual
   five, steady their median at little cost. *)
let setup spec =
  let n = 11 in
  let times = List.init (n - 1) (fun _ -> snd (timed spec.inputs)) in
  let inputs, t = timed spec.inputs in
  (inputs, Stat.median (t :: times))

let features text = Layout.feature_count (Layout_io.of_string text)

let run spec ~seconds =
  let log = new_log () in
  let passes =
    max spec.min_passes (int_of_float (float_of_int seconds /. spec.pass_s))
  in
  let inputs, setup_s = setup spec in
  Gc.full_major ();
  let total_features =
    List.fold_left (fun a (_, t) -> a + features t) 0 inputs
  in
  let walls = Hashtbl.create 8 and done_ = ref [] in
  for _ = 1 to passes do
    List.iter
      (fun (name, text) ->
        let op = decompose_op spec text in
        Hashtbl.add walls name op.wall;
        (* Keep only what the check needs, not the layout or report. *)
        done_ := (name, text, op.report.D.cost, op.out) :: !done_)
      inputs
  done;
  (* Each layout's latency is the median of its passes, so one disturbed
     pass does not move it. *)
  let lats =
    List.map (fun (name, _) -> Stat.median (Hashtbl.find_all walls name)) inputs
  in
  let peak = peak_rss_mb () in
  (* Checked after the measured passes, so the check's own memory stays
     out of the peak. cn#/st# are those of one pass. *)
  let counts = Hashtbl.create 8 in
  List.iter
    (fun (name, text, cost, out) ->
      Option.iter (Hashtbl.replace counts name)
        (check_result log ~what:name ?expect:(spec.expect name)
           (Layout_io.of_string text) cost (colors_of_text out)))
    !done_;
  let cn = Hashtbl.fold (fun _ (c, _) a -> a + c) counts 0 in
  let st = Hashtbl.fold (fun _ (_, s) a -> a + s) counts 0 in
  let attempted = passes * List.length inputs in
  let within = List.length (List.filter (fun l -> l <= spec.limit_s) lats) in
  let p50, p90 = latency_ms lats in
  {
    attempted;
    failed = log.n_failed;
    errors = log.reasons;
    inputs = List.map (fun (n, t) -> (n, Inputs.digest t)) inputs;
    metrics =
      [
        m "setup_s" "s" setup_s;
        m "features_per_s" "1/s" (float_of_int total_features /. Stat.sum lats);
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

(* ---- traced run ---- *)

(* The leaf solver [Decomposer] runs for [algo], wrapped in timers. *)
type probe = {
  mutable solve_s : float;
  mutable relax_s : float;
  mutable backtrack_s : float;
  mutable calls : int;
  mutable solver_words : float;
}

let leaf_solver algo probe =
  let p = D.default_params in
  let alpha = p.D.alpha in
  fun (piece : Decomp_graph.t) ->
    probe.calls <- probe.calls + 1;
    let a0 = alloc_words () in
    let t0 = now () in
    let colors =
      match algo with
      | D.Linear -> Mpl.Linear_color.solve ~k ~alpha piece
      | D.Sdp_backtrack when piece.Decomp_graph.n <= 1 ->
        Array.make piece.Decomp_graph.n 0
      | D.Sdp_backtrack ->
        let sol = Mpl.Sdp_color.relax ~options:p.D.sdp_options ~k ~alpha piece in
        let t1 = now () in
        probe.relax_s <- probe.relax_s +. (t1 -. t0);
        let c =
          Mpl.Sdp_color.backtrack ~tth:p.D.tth ~node_cap:p.D.node_cap ~k ~alpha
            sol piece
        in
        probe.backtrack_s <- probe.backtrack_s +. (now () -. t1);
        c
      | _ -> invalid_arg "leaf_solver"
    in
    probe.solve_s <- probe.solve_s +. (now () -. t0);
    probe.solver_words <- probe.solver_words +. (alloc_words () -. a0);
    colors

(* Plain [Division.assign] on [g] with the wrapped leaf solver: division
   self time and allocation are its totals minus the solver's. Returns
   the plain assignment's whole time too. *)
let division_probe layers algo g =
  let probe =
    { solve_s = 0.; relax_s = 0.; backtrack_s = 0.; calls = 0; solver_words = 0. }
  in
  let stats = Division.fresh_stats () in
  let p = D.default_params in
  let a0 = alloc_words () in
  let _, total_s =
    timed (fun () ->
        Division.assign ~stages:p.D.stages ~stats ~k ~alpha:p.D.alpha
          ~solver:(leaf_solver algo probe) g)
  in
  let words = alloc_words () -. a0 -. probe.solver_words in
  let self_s = total_s -. probe.solve_s in
  Layers.add layers "division.self_s" self_s;
  Layers.add layers "division.pieces" (float_of_int stats.Division.pieces);
  Layers.set layers "division.largest_piece"
    (max (Layers.get layers "division.largest_piece")
       (float_of_int stats.Division.largest_piece));
  Layers.add layers "division.cuts" (float_of_int stats.Division.cuts);
  Layers.add layers "division.alloc_mwords" (words /. 1e6);
  (match algo with
  | D.Linear -> Layers.add layers "linear_color.solve_s" probe.solve_s
  | _ ->
    Layers.add layers "sdp_color.relax_s" probe.relax_s;
    Layers.add layers "sdp_color.backtrack_s" probe.backtrack_s);
  Layers.add layers "solve.calls" (float_of_int probe.calls);
  (total_s, self_s)

(* The untraced operation again, split into timed calls of the layers it
   is made of. The layer times add up to the returned wall time but for
   the time between the calls. *)
type traced = {
  op : op;
  graph : Decomp_graph.t;
  accounted : float;
  assign_s : float;
  split_s : float;
  nodes_s : float;
}

let traced_op layers spec text =
  let params = params ~jobs:spec.jobs in
  let t0 = now () in
  let layout, parse_s = timed (fun () -> Layout_io.of_string text) in
  let split, split_s = timed (fun () -> Stitch.split layout ~min_s) in
  let a0 = alloc_words () in
  let g, nodes_s = timed (fun () -> Decomp_graph.of_nodes split ~hp ~min_s) in
  let graph_words = alloc_words () -. a0 in
  let report, assign_s = timed (fun () -> D.assign ~params spec.algo g) in
  let out, ser_s = timed (fun () -> serialize report.D.colors) in
  let wall = now () -. t0 in
  let add name v = Layers.add layers name v in
  let count name n = add name (float_of_int n) in
  add "layout_io.parse_s" parse_s;
  add "stitch.split_s" split_s;
  count "stitch.nodes" (Array.length split.Stitch.nodes);
  add "decomp_graph.of_nodes_s" nodes_s;
  add "decomp_graph.alloc_mwords" (graph_words /. 1e6);
  let edges (a : Decomp_graph.adj) = Array.length a.Decomp_graph.nbr / 2 in
  count "decomp_graph.conflict_edges" (edges g.Decomp_graph.conflict);
  count "decomp_graph.friendly_edges" (edges g.Decomp_graph.friendly);
  add "decomposer.assign_s" assign_s;
  Option.iter
    (fun (e : Mpl_engine.Engine.stats) ->
      count "engine.pieces" e.Mpl_engine.Engine.pieces;
      count "engine.solved" e.Mpl_engine.Engine.solved;
      count "engine.hits" e.Mpl_engine.Engine.hits;
      count "engine.reused" e.Mpl_engine.Engine.reused)
    report.D.engine;
  {
    op = { layout; report; out; wall };
    graph = g;
    accounted = parse_s +. split_s +. nodes_s +. assign_s +. ser_s;
    assign_s;
    split_s;
    nodes_s;
  }

(* Pieces answered without a fresh solve (a cache hit or a reuse of an
   earlier identical piece of the same stream) over pieces routed. *)
let set_hit_ratio layers =
  let pieces = Layers.get layers "engine.pieces" in
  if pieces > 0. then
    Layers.set layers "cache.hit_ratio"
      ((Layers.get layers "engine.hits" +. Layers.get layers "engine.reused")
      /. pieces)

(* The traced run: the untraced operations once (wall time and CPU use),
   then the same operations as timed layer calls, then a plain
   [Division.assign] probe per graph. [scaling] is a smaller layout of
   the same seed; when given, the graph-build and division layers are
   also measured on it and their log-log exponents reported. *)
let run_traced spec ?scaling () =
  let log = new_log () in
  let layers = Layers.create () in
  let inputs = spec.inputs () in
  let untraced = ref 0. in
  let c0 = cpu_s () and t0 = now () in
  List.iter
    (fun (name, text) ->
      let op = decompose_op spec text in
      ignore (check log spec name op);
      untraced := !untraced +. op.wall)
    inputs;
  Layers.set layers "process.cpu_util"
    ((cpu_s () -. c0) /. ((now () -. t0) *. float_of_int spec.jobs));
  let untraced = !untraced in
  let wall = ref 0. and accounted = ref 0. in
  let last = ref None in
  List.iter
    (fun (name, text) ->
      let t = traced_op layers spec text in
      ignore (check log spec name t.op);
      let plain_s, self_s = division_probe layers spec.algo t.graph in
      Layers.add layers "engine.overhead_s" (t.assign_s -. plain_s);
      Option.iter
        (fun (c : Mpl_engine.Cache.stats) ->
          Layers.add layers "cache.bytes"
            (float_of_int c.Mpl_engine.Cache.resident_bytes))
        t.op.report.D.cache;
      wall := !wall +. t.op.wall;
      accounted := !accounted +. t.accounted;
      last := Some (t, self_s))
    inputs;
  set_hit_ratio layers;
  Layers.set layers "trace.unaccounted_s" (!wall -. !accounted);
  Layers.set layers "trace.overhead_ratio" (!wall /. untraced);
  (match (scaling, !last) with
  | Some small, Some (big, big_self) ->
    let small_layers = Layers.create () in
    let t = traced_op small_layers spec small in
    let _, self_s = division_probe small_layers spec.algo t.graph in
    let n0 = Layout.feature_count t.op.layout
    and n1 = Layout.feature_count big.op.layout in
    let exp name t0 t1 = Layers.set layers name (Stat.exponent ~n0 ~t0 ~n1 ~t1) in
    exp "stitch.split_exp" t.split_s big.split_s;
    exp "decomp_graph.of_nodes_exp" t.nodes_s big.nodes_s;
    exp "division.self_exp" self_s big_self
  | _ -> ());
  {
    attempted = 2 * List.length inputs;
    failed = log.n_failed;
    errors = log.reasons;
    inputs = List.map (fun (n, t) -> (n, Inputs.digest t)) inputs;
    metrics = Layers.metrics layers;
  }
