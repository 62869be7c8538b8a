(* Independent output check: recount conflicts and stitches from the
   segment rectangles of [Stitch.split] and a coloring, without going
   through [Decomp_graph] or [Grid_index].

   The distance rule is the one [Decomp_graph] documents: two segments
   of distinct features conflict when their closed regions lie within
   [min_s] (squared distance <= min_s^2); a segment's distance to
   another is the minimum over their rectangle pairs. A stitch edge of
   the split counts when its two segments take different colors.

   Candidate pairs come from a plain sort-and-sweep. The plane is cut
   into horizontal bands; each rectangle joins every band its y-range,
   dilated by [min_s / 2] on both sides, touches, so two rectangles
   within [min_s] of each other always share a band. Inside a band the
   rectangles are sorted by their left edge and swept left to right. *)

module Rect = Mpl_geometry.Rect
module Polygon = Mpl_geometry.Polygon
module Stitch = Mpl_layout.Stitch

let band_h = 512

type result = { conflicts : int; stitches : int }

(* Unique (u, v) segment pairs, u < v, encoded as [u * n + v] and
   sorted, whose segments belong to distinct features and lie within
   [min_s]. *)
let conflict_pairs (split : Stitch.t) ~min_s =
  let nodes = split.Stitch.nodes in
  let n = Array.length nodes in
  let rects = ref [] in
  Array.iteri
    (fun i node ->
      List.iter (fun r -> rects := (i, r) :: !rects)
        (Polygon.rects node.Stitch.shape))
    nodes;
  let half = (min_s + 1) / 2 in
  let bands = Hashtbl.create 1024 in
  List.iter
    (fun ((_, (r : Rect.t)) as e) ->
      let band y = if y >= 0 then y / band_h else ((y + 1) / band_h) - 1 in
      for b = band (r.Rect.y0 - half) to band (r.Rect.y1 + half) do
        let l = try Hashtbl.find bands b with Not_found -> [] in
        Hashtbl.replace bands b (e :: l)
      done)
    !rects;
  let min_s2 = min_s * min_s in
  let out = ref [] in
  Hashtbl.iter
    (fun _ l ->
      let a = Array.of_list l in
      Array.sort
        (fun (_, (p : Rect.t)) (_, (q : Rect.t)) -> compare p.Rect.x0 q.Rect.x0)
        a;
      let m = Array.length a in
      for i = 0 to m - 1 do
        let ni, ri = a.(i) in
        let reach = ri.Rect.x1 + min_s in
        let j = ref (i + 1) in
        while !j < m && (snd a.(!j)).Rect.x0 <= reach do
          let nj, rj = a.(!j) in
          if nodes.(ni).Stitch.feature <> nodes.(nj).Stitch.feature then begin
            let gap lo0 hi0 lo1 hi1 = max 0 (max (lo1 - hi0) (lo0 - hi1)) in
            let dx = gap ri.Rect.x0 ri.Rect.x1 rj.Rect.x0 rj.Rect.x1
            and dy = gap ri.Rect.y0 ri.Rect.y1 rj.Rect.y0 rj.Rect.y1 in
            if (dx * dx) + (dy * dy) <= min_s2 then
              out := (min ni nj * n) + max ni nj :: !out
          end;
          incr j
        done
      done)
    bands;
  let pairs = Array.of_list !out in
  Array.sort compare pairs;
  let len = Array.length pairs in
  let w = ref 0 in
  for i = 0 to len - 1 do
    if i = 0 || pairs.(i) <> pairs.(i - 1) then begin
      pairs.(!w) <- pairs.(i);
      incr w
    end
  done;
  Array.sub pairs 0 !w

(* [count ~k ~min_s split colors] recounts cn# and st#, or explains why
   the coloring is not a valid one for the split. *)
let count ~k ~min_s (split : Stitch.t) (colors : int array) =
  let n = Array.length split.Stitch.nodes in
  if Array.length colors <> n then
    Error
      (Printf.sprintf "coloring has %d entries for %d segments"
         (Array.length colors) n)
  else
    match Array.find_opt (fun c -> c < 0 || c >= k) colors with
    | Some c -> Error (Printf.sprintf "color %d outside 0..%d" c (k - 1))
    | None ->
      let conflicts =
        Array.fold_left
          (fun acc p -> if colors.(p / n) = colors.(p mod n) then acc + 1 else acc)
          0
          (conflict_pairs split ~min_s)
      in
      let stitches =
        List.fold_left
          (fun acc (a, b) -> if colors.(a) <> colors.(b) then acc + 1 else acc)
          0 split.Stitch.stitch_edges
      in
      Ok { conflicts; stitches }

(* Check a reported (conflicts, stitches) pair against the recount. *)
let check ~k ~min_s split colors ~conflicts ~stitches =
  match count ~k ~min_s split colors with
  | Error e -> Error e
  | Ok r when r.conflicts = conflicts && r.stitches = stitches -> Ok r
  | Ok r ->
    Error
      (Printf.sprintf "reported cn#=%d st#=%d, recount cn#=%d st#=%d"
         conflicts stitches r.conflicts r.stitches)
