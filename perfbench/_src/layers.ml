(* The per-layer metrics of a traced run. Every traced run reports every
   name below; a layer the workload does not exercise reads 0. *)

let all =
  [
    ("layout_io.parse_s", "s");
    ("stitch.split_s", "s");
    ("stitch.nodes", "count");
    ("stitch.split_exp", "exp");
    ("decomp_graph.of_nodes_s", "s");
    ("decomp_graph.conflict_edges", "count");
    ("decomp_graph.friendly_edges", "count");
    ("decomp_graph.alloc_mwords", "Mwords");
    ("decomp_graph.of_nodes_exp", "exp");
    ("division.self_s", "s");
    ("division.pieces", "count");
    ("division.largest_piece", "count");
    ("division.cuts", "count");
    ("division.alloc_mwords", "Mwords");
    ("division.self_exp", "exp");
    ("linear_color.solve_s", "s");
    ("sdp_color.relax_s", "s");
    ("sdp_color.backtrack_s", "s");
    ("solve.calls", "count");
    ("decomposer.assign_s", "s");
    ("engine.overhead_s", "s");
    ("engine.pieces", "count");
    ("engine.solved", "count");
    ("engine.hits", "count");
    ("engine.reused", "count");
    ("cache.hit_ratio", "ratio");
    ("cache.bytes", "bytes");
    ("process.cpu_util", "ratio");
    ("eco.load_s", "s");
    ("eco.apply_s", "s");
    ("eco.redecompose_s", "s");
    ("eco.save_s", "s");
    ("eco.snapshot_s", "s");
    ("eco.dirty_features", "count");
    ("eco.reused_ratio", "ratio");
    ("client.decompose_ms_p50", "ms");
    ("client.redecompose_ms_p50", "ms");
    ("server.overhead_ms", "ms");
    ("server.queue_wait_ms_p90", "ms");
    ("serve.generator_late_ms_p90", "ms");
    ("trace.unaccounted_s", "s");
    ("trace.overhead_ratio", "ratio");
  ]

(* Values recorded by a traced run, by name. *)
type t = (string, float) Hashtbl.t

let create () : t = Hashtbl.create 64

let set (t : t) name v =
  if not (List.mem_assoc name all) then invalid_arg ("Layers.set: " ^ name);
  Hashtbl.replace t name v

let add (t : t) name v =
  set t name (v +. Option.value (Hashtbl.find_opt t name) ~default:0.)

let get (t : t) name = Option.value (Hashtbl.find_opt t name) ~default:0.

let metrics (t : t) =
  List.map (fun (name, unit_) -> Common.m name unit_ (get t name)) all
