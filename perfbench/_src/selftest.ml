(* The benchmark's own tests of its output check:
   - the independent recount agrees with [Coloring.evaluate] on every
     Table-1 circuit, for the decomposer's coloring and for a seeded
     random one;
   - a coloring with one vertex flipped to a conflict neighbour's color,
     or with a color out of range, fails the check.
   Exits 1 on the first failed expectation. *)

open Common
module Benchgen = Mpl_layout.Benchgen
module Decomp_graph = Mpl.Decomp_graph

let failures = ref 0

let expect what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end

let agree name (g : Decomp_graph.t) split colors =
  let c = Coloring.evaluate g colors in
  match Recount.count ~k ~min_s split colors with
  | Error e -> expect (name ^ ": " ^ e) false
  | Ok r ->
    expect
      (Printf.sprintf "%s: recount cn#=%d st#=%d, evaluate cn#=%d st#=%d" name
         r.Recount.conflicts r.Recount.stitches c.Coloring.conflicts
         c.Coloring.stitches)
      (r.Recount.conflicts = c.Coloring.conflicts
      && r.Recount.stitches = c.Coloring.stitches)

(* A vertex whose color differs from one of its conflict neighbours'. *)
let flippable (g : Decomp_graph.t) colors =
  let found = ref None in
  for v = 0 to g.Decomp_graph.n - 1 do
    if !found = None then
      Decomp_graph.iter g.Decomp_graph.conflict v (fun u ->
          if !found = None && colors.(u) <> colors.(v) then found := Some (v, u))
  done;
  !found

let () =
  let rng = Random.State.make [| 11 |] in
  List.iter
    (fun name ->
      let layout = Benchgen.circuit name in
      let g, r = D.decompose ~min_s D.Linear layout in
      let split = Stitch.split layout ~min_s in
      let colors = r.D.colors in
      agree (name ^ " decomposed") g split colors;
      agree (name ^ " random") g split
        (Array.init (Array.length colors) (fun _ -> Random.State.int rng k));
      let cost = r.D.cost in
      let check cs =
        Recount.check ~k ~min_s split cs ~conflicts:cost.Coloring.conflicts
          ~stitches:cost.Coloring.stitches
      in
      expect (name ^ ": reported coloring passes") (Result.is_ok (check colors));
      (match flippable g colors with
      | None -> expect (name ^ ": no conflict edge to flip") false
      | Some (v, u) ->
        let flipped = Array.copy colors in
        flipped.(v) <- colors.(u);
        expect (name ^ ": one flipped vertex fails") (Result.is_error (check flipped)));
      let out = Array.copy colors in
      out.(0) <- k;
      expect (name ^ ": out-of-range color fails") (Result.is_error (check out)))
    Benchgen.table1_circuits;
  if !failures > 0 then exit 1;
  Printf.printf "selftest: %d circuits ok\n" (List.length Benchgen.table1_circuits)
