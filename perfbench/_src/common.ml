(* Shared plumbing: timing, memory readings, metrics, the output check
   and the parameters every workload decomposes with. *)

module D = Mpl.Decomposer
module Coloring = Mpl.Coloring
module Layout = Mpl_layout.Layout
module Layout_io = Mpl_layout.Layout_io
module Stitch = Mpl_layout.Stitch

let k = 4
let min_s = Layout.quadruple_min_s Layout.default_tech
let hp = Layout.default_tech.Layout.half_pitch

let now = Mpl_util.Timer.now_s

(* Set-ups per run; [setup_s] is their median. A full major collection
   follows them, so their garbage does not decide when the measured
   operations' collections fall. *)
let setups = 5

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Words allocated by the calling domain so far (minor + direct major,
   promotions not double-counted). *)
let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* Process CPU seconds, every domain and thread included. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* VmHWM of this process, in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float_of_int kb /. 1024.

(* One reported metric. *)
type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* What a run hands back to the parent process. *)
type outcome = {
  attempted : int;
  failed : int;
  errors : string list;  (** first few failure reasons, for stderr *)
  metrics : metric list;
  inputs : (string * string) list;  (** input name -> MD5 digest *)
}

(* Failures are counted against attempts with the rule of succession,
   (failed + 1) / (attempted + 2): never 0, so a ratio against the
   parent's median exists, and a single failure at least doubles it. *)
let failed_ratio ~attempted ~failed =
  float_of_int (failed + 1) /. float_of_int (attempted + 2)

(* A failure log: counts every failed operation, keeps a few reasons. *)
type log = { mutable n_failed : int; mutable reasons : string list }

let new_log () = { n_failed = 0; reasons = [] }

let fail log fmt =
  Printf.ksprintf
    (fun msg ->
      log.n_failed <- log.n_failed + 1;
      if List.length log.reasons < 8 then log.reasons <- msg :: log.reasons)
    fmt

(* The decomposition parameters of [mpld decompose] at its defaults
   (cache on), with the given solver domains. *)
let params ~jobs = { D.default_params with D.k; jobs; cache = true }

(* Serialized coloring, one color per line, as [mpld decompose --colors]
   writes it. *)
let serialize colors =
  let b = Buffer.create (2 * Array.length colors) in
  Array.iter
    (fun c ->
      Buffer.add_string b (string_of_int c);
      Buffer.add_char b '\n')
    colors;
  Buffer.contents b

(* Check one result: the colors are in range and the reported cn#/st#
   match an independent recount from the layout's geometry and, when
   known, the values recorded for this input. Returns the recounted
   (cn#, st#) on success. *)
let check_result log ~what ?expect ?split layout (cost : Coloring.cost) colors =
  let split =
    match split with Some s -> s | None -> Stitch.split layout ~min_s
  in
  match
    Recount.check ~k ~min_s split colors ~conflicts:cost.Coloring.conflicts
      ~stitches:cost.Coloring.stitches
  with
  | Error e ->
    fail log "%s: %s" what e;
    None
  | Ok r -> (
    match expect with
    | Some (cn, st) when cn <> r.Recount.conflicts || st <> r.Recount.stitches
      ->
      fail log "%s: cn#=%d st#=%d, recorded cn#=%d st#=%d" what
        r.Recount.conflicts r.Recount.stitches cn st;
      None
    | _ -> Some (r.Recount.conflicts, r.Recount.stitches))

(* Median and 90th percentile, in ms, of latencies given in seconds. *)
let latency_ms lats =
  let ms = List.map (fun s -> s *. 1e3) lats in
  (Stat.median ms, Stat.quantile 0.9 ms)
