(* The serve_mixed workload: an in-process [Server] on a Unix socket,
   driven by one client connection from one open-loop schedule at three
   fixed offered rates. Every request is timed from its due time, so a
   stall is charged to every request it delays.

   Everything runs in one OCaml domain: the server on a thread, its pool
   with one solver domain (the coordinating thread, no worker domain),
   the client on the main thread. Every minor collection stops every
   domain, and a domain blocked in a read must be woken to join it. With
   the server on a domain of its own and the client on another, on a
   two-vCPU host the served features_per_s spread 27% and the mid p50
   46% (IQR over median, five seeds); on one domain 13% and 26%. One
   connection, not two: a second added no capacity (the handler threads
   share one runtime lock for parsing and graph build) and widened the
   latency spread several times.

   The workload is not in BENCHMARK.json: even so, its latencies spread
   past their bounds in the host's noisy hours (see README.md). *)

open Common
module Server = Mpl_server.Server
module Client = Mpl_server.Client
module Proto = Mpl_server.Proto
module Eco = Mpl.Eco

(* Offered rates (requests/s) and the goodput latency limit, frozen at
   about 30%, 60% and 90% of the capacity measured with [main.exe
   --capacity] when the server ran on a domain of its own with a pool
   of two (about 37 requests/s). On one domain the server's capacity is
   about 50 requests/s, so these are now about 22%, 44% and 66% of it.
   They were kept: at 30 requests/s (60%) queueing amplified the host's
   drift, and a 14% slower service time raised the mid p50 by 46%. *)
let low_rps = 11. and mid_rps = 22. and high_rps = 33.
let limit_s = 0.5

(* The phases of a run, in order: (rate name, rate, requests). The mid
   rate runs as five windows, each with its own schedule; its latency
   is the median over the windows, so one disturbed window does not
   move it. *)
let rates =
  [ ("low", low_rps, 100) ]
  @ List.init 5 (fun _ -> ("mid", mid_rps, 90))
  @ [ ("high", high_rps, 200) ]

(* Solver domains of the server's pool. *)
let jobs = 1
let socket = "serve.sock"

(* The Table-1 circuits of up to about 1.6k features. *)
let circuits =
  [ "C432"; "C499"; "C880"; "C1355"; "C1908"; "C2670"; "C3540"; "S1488" ]

(* REDECOMPOSE targets: Linear sessions of these circuits, each with a
   few seeded edit scripts touching about 1% of its features. A server
   keeps one session per layout, whatever the algorithm, so these are
   never decomposed with SDP. *)
let eco_bases = [ "C2670"; "C3540"; "S1488" ]

(* Scripts differ in cost; with 6 per base the edits' p90 moved by a
   quarter with the seed, so each base gets 20. *)
let scripts_per_base = 20
let eco_share = 0.2

(* The DECOMPOSE inputs: (key, algorithm, layout text). *)
let decompose_inputs () =
  List.map (fun c -> ("linear/" ^ c, D.Linear, Inputs.circuit_text c)) circuits
  @ List.filter_map
      (fun c ->
        if List.mem c eco_bases then None
        else Some ("sdp/" ^ c, D.Sdp_backtrack, Inputs.circuit_text c))
      circuits

type request =
  | Decompose of { key : string; algo : D.algorithm; text : string }
  | Redecompose of { base : string; hash : string; script : string }

(* What a checked reply is compared with. The split is made on first use,
   outside the timed set-up. *)
type target = { layout : Layout.t; split : Stitch.t Lazy.t; features : int }

type inputs = {
  decomposes : (string * D.algorithm * string) array;
  scripts : (string * string * string) array;  (** base, base hash, edits *)
  targets : (string, target) Hashtbl.t;  (** by key or edit script *)
}

let target layout =
  {
    layout;
    split = lazy (Stitch.split layout ~min_s);
    features = Layout.feature_count layout;
  }

let make_inputs ~seed =
  let decomposes = Array.of_list (decompose_inputs ()) in
  let targets = Hashtbl.create 64 in
  Array.iter
    (fun (key, _, text) -> Hashtbl.replace targets key (target (Layout_io.of_string text)))
    decomposes;
  let scripts =
    List.concat_map
      (fun c ->
        let base = Mpl_layout.Benchgen.circuit c in
        let count = max 1 (Layout.feature_count base / 100) in
        List.init scripts_per_base (fun i ->
            let edits =
              Eco.generate ~seed:(Inputs.derive seed 3 ((i * 100) + String.length c))
                ~count base
            in
            let script = Eco.edits_to_string edits in
            (match Eco.apply base edits with
            | Ok (edited, _) -> Hashtbl.replace targets script (target edited)
            | Error e -> failwith e);
            (c, Eco.hash_layout base, script)))
      eco_bases
  in
  { decomposes; scripts = Array.of_list scripts; targets }

(* The schedule of one rate: due offsets (s) and requests. Arrivals are
   a Poisson process conditioned on [count] arrivals in [count / rate]
   seconds (sorted uniform offsets), so every run offers exactly the
   nominal rate. DECOMPOSE kinds come in shuffled blocks holding each
   kind once, so every phase serves every kind.

   The arrival times and the order of the request kinds are one fixed
   draw, the same for every seed; the seed drives the edit scripts the
   REDECOMPOSE slots carry. With arrivals drawn from the seed, the draw
   alone moved the mid-rate p50 by 10-15% between seeds (a simulated
   queue with fixed service times), more than the program's own changes
   the benchmark must see. *)
let schedule_draw = 20_240_611

let schedule ~phase inputs (rate, count) =
  let rng = Random.State.make [| schedule_draw; phase |] in
  let shuffle a =
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done
  in
  let span = float_of_int count /. rate in
  let offsets = Array.init count (fun _ -> Random.State.float rng span) in
  Array.sort compare offsets;
  let block = ref [] in
  let next_decompose () =
    if !block = [] then begin
      let a = Array.copy inputs.decomposes in
      shuffle a;
      block := Array.to_list a
    end;
    let key, algo, text = List.hd !block in
    block := List.tl !block;
    Decompose { key; algo; text }
  in
  Array.map
    (fun off ->
      if Random.State.float rng 1. < eco_share then begin
        let base, hash, script =
          inputs.scripts.(Random.State.int rng (Array.length inputs.scripts))
        in
        (off, Redecompose { base; hash; script })
      end
      else (off, next_decompose ()))
    offsets

(* ---- server lifecycle ---- *)

type live = { server : Server.t; thread : Thread.t }

let start () =
  (try Sys.remove socket with Sys_error _ -> ());
  let server =
    Server.create
      { Server.default_config with Server.unix_socket = Some socket; jobs; sessions = 256 }
  in
  let thread = Thread.create Server.run server in
  let rec wait n =
    if n = 0 then failwith "server did not come up"
    else
      match Client.connect_unix socket with
      | c -> c
      | exception Unix.Unix_error _ ->
        Unix.sleepf 0.01;
        wait (n - 1)
  in
  let probe = wait 500 in
  Client.close probe;
  { server; thread }

let stop live =
  Server.request_stop live.server;
  Thread.join live.thread

let request_of_algo algo = { Proto.default_request with Proto.algo }

let send conn = function
  | Decompose { algo; text; _ } ->
    Client.decompose conn ~request:(request_of_algo algo) text
  | Redecompose { hash; script; _ } ->
    Client.redecompose conn ~request:(request_of_algo D.Linear) ~hash script

(* Set-up: make the inputs, start the server and open a session for
   every REDECOMPOSE base with one DECOMPOSE each. *)
let setup ~seed =
  let inputs = make_inputs ~seed in
  let live = start () in
  let conn = Client.connect_unix socket in
  List.iter
    (fun c ->
      match
        Client.decompose conn ~request:(request_of_algo D.Linear) (Inputs.circuit_text c)
      with
      | Ok _ -> ()
      | Error e -> failwith ("warm-up: " ^ Client.error_to_string e))
    eco_bases;
  Client.close conn;
  (inputs, live)

(* ---- open-loop load generator ---- *)

type sample = {
  req : request;
  due : float;  (** absolute *)
  sent : float;
  done_ : float;
  reply : (Client.outcome, Client.error) result;
}

(* Replay one schedule over one connection from the calling thread:
   take the next request in due order, wait for its due time, send it
   and read the whole reply. *)
let drive sched =
  let conn = Client.connect_unix socket in
  let start = now () +. 0.05 in
  let out =
    Array.map
      (fun (off, req) ->
        let due = start +. off in
        let wait = due -. now () in
        if wait > 0. then Unix.sleepf wait;
        let sent = now () in
        let reply = send conn req in
        { req; due; sent; done_ = now (); reply })
      sched
  in
  Client.close conn;
  (Array.to_list out, now () -. start)

(* Check one reply; (cn#, st#) of a DECOMPOSE that holds. *)
let check log inputs s =
  let what, key =
    match s.req with
    | Decompose { key; _ } -> ("DECOMPOSE " ^ key, key)
    | Redecompose { base; script; _ } -> ("REDECOMPOSE " ^ base, script)
  in
  match s.reply with
  | Error e ->
    fail log "%s: %s" what (Client.error_to_string e);
    None
  | Ok o -> (
    let t = Hashtbl.find inputs.targets key in
    let cost =
      {
        Coloring.conflicts = o.Client.cost.Proto.conflicts;
        stitches = o.Client.cost.Proto.stitches;
        scaled = o.Client.cost.Proto.scaled;
      }
    in
    let expect =
      match s.req with
      | Decompose { key; _ } -> List.assoc_opt key Expected.serve
      | Redecompose _ -> None
    in
    match check_result log ~what ?expect ~split:(Lazy.force t.split) t.layout cost o.Client.colors with
    | Some r -> (
      match s.req with Decompose { key; _ } -> Some (key, r) | Redecompose _ -> None)
    | None -> None)

let is_redecompose s = match s.req with Redecompose _ -> true | Decompose _ -> false

(* Run every rate in order on one server. A full major collection
   before each phase bounds the garbage a phase starts with, so the
   run's peak memory does not hinge on when collections happened to
   fall in earlier phases. *)
let phases inputs =
  List.mapi
    (fun i (name, rate, count) ->
      let sched = schedule ~phase:i inputs (rate, count) in
      Gc.full_major ();
      let samples, wall = drive sched in
      (name, samples, wall))
    rates

let from_due s = s.done_ -. s.due

(* Digests of the circuit texts, the edit scripts and the schedule. *)
let digests inputs =
  let name = function
    | Decompose { key; _ } -> key
    | Redecompose { script; _ } -> Inputs.digest script
  in
  let sched =
    List.mapi
      (fun i (_, rate, count) ->
        Array.to_list (schedule ~phase:i inputs (rate, count))
        |> List.map (fun (t, r) -> Printf.sprintf "%.9f %s" t (name r))
        |> String.concat "\n")
      rates
  in
  [
    ( "circuits",
      Inputs.digest
        (String.concat "" (Array.to_list (Array.map (fun (_, _, t) -> t) inputs.decomposes))) );
    ( "edits",
      Inputs.digest
        (String.concat "" (Array.to_list (Array.map (fun (_, _, s) -> s) inputs.scripts))) );
    ("schedule", Inputs.digest (String.concat "\n" sched));
  ]

let run ~seed =
  let log = new_log () in
  let runs =
    List.init setups (fun i ->
        let (inputs, live), dt = timed (fun () -> setup ~seed) in
        if i < setups - 1 then stop live;
        ((inputs, live), dt))
  in
  let (inputs, live), _ = List.nth runs (setups - 1) in
  let setup_s = Stat.median (List.map snd runs) in
  let results = phases inputs in
  stop live;
  let peak = peak_rss_mb () in
  let all = List.concat_map (fun (_, s, _) -> s) results in
  let counts = Hashtbl.create 32 in
  List.iter
    (fun s ->
      match check log inputs s with
      | Some (key, r) -> Hashtbl.replace counts key r
      | None -> ())
    all;
  let cn = Hashtbl.fold (fun _ (c, _) a -> a + c) counts 0 in
  let st = Hashtbl.fold (fun _ (_, s) a -> a + s) counts 0 in
  let windows name =
    List.filter_map
      (fun (n, samples, _) -> if n = name then Some samples else None)
      results
  in
  let ok s = Result.is_ok s.reply in
  let mids = windows "mid" in
  let per_window f = Stat.median (List.map f mids) in
  let p50 = per_window (fun w -> fst (latency_ms (List.map from_due w))) in
  let p90 = per_window (fun w -> snd (latency_ms (List.map from_due w))) in
  (* An edit's latency as the server answers it, send to reply, over
     every phase: from due time, its p90 counts mostly which DECOMPOSE
     it queued behind, and moved by a quarter from seed to seed. *)
  let e50, e90 =
    latency_ms
      (List.filter_map
         (fun s -> if is_redecompose s then Some (s.done_ -. s.sent) else None)
         all)
  in
  let high = List.concat (windows "high") in
  (* From the phase's start to its last completion. *)
  let high_s =
    Stat.sum
      (List.filter_map (fun (n, _, wall) -> if n = "high" then Some wall else None) results)
  in
  let within =
    List.length (List.filter (fun s -> ok s && from_due s <= limit_s) high)
  in
  (* Features over request time (send to reply) of the DECOMPOSEs at
     mid, each kind's time the median of its requests, so neither the
     mix of a window nor one disturbed request moves it. *)
  let features_per_s =
    let times = Hashtbl.create 16 in
    List.iter
      (fun s ->
        match s.req with
        | Decompose { key; _ } when ok s -> Hashtbl.add times key (s.done_ -. s.sent)
        | _ -> ())
      (List.concat mids);
    let f, t =
      Array.fold_left
        (fun (f, t) (key, _, _) ->
          match Hashtbl.find_all times key with
          | [] -> (f, t)
          | ts -> (f + (Hashtbl.find inputs.targets key).features, t +. Stat.median ts))
        (0, 0.) inputs.decomposes
    in
    float_of_int f /. t
  in
  let attempted = List.length all in
  {
    attempted;
    failed = log.n_failed;
    errors = log.reasons;
    inputs = digests inputs;
    metrics =
      [
        m "setup_s" "s" setup_s;
        m "features_per_s" "1/s" features_per_s;
        m "peak_rss_mb" "MiB" peak;
        m "conflicts" "count" (float_of_int cn);
        m "stitches" "count" (float_of_int st);
        m "eco_edit_ms_p50" "ms" e50;
        m "eco_edit_ms_p90" "ms" e90;
        m "serve_latency_ms_p50" "ms" p50;
        m "serve_latency_ms_p90" "ms" p90;
        m "serve_goodput_rps" "1/s"
          (float_of_int within /. high_s);
        m "failed_ratio" "ratio" (failed_ratio ~attempted ~failed:log.n_failed);
      ];
  }

(* Capacity sweep, used to set the rates: the mix at rising offered
   rates, open loop, 200 requests each; prints each rate's latency from
   due time and how late the generator ran. Capacity is the highest rate
   whose p90 stays within [limit_s] with the generator keeping up. *)
let capacity ~seed =
  let inputs, live = setup ~seed in
  List.iteri
    (fun i rate ->
      let samples, wall = drive (schedule ~phase:(100 + i) inputs (rate, 200)) in
      let l = List.map from_due samples in
      let late = List.map (fun s -> s.sent -. s.due) samples in
      Printf.printf "rate %4.0f/s: done %.1f/s p50 %.1f ms p90 %.1f ms late p90 %.1f ms\n%!"
        rate
        (float_of_int (List.length samples) /. wall)
        (Stat.median l *. 1e3) (Stat.quantile 0.9 l *. 1e3)
        (Stat.quantile 0.9 late *. 1e3))
    [ 10.; 20.; 30.; 40.; 45.; 50.; 55.; 60.; 65.; 70. ];
  stop live

(* ---- traced run ---- *)

(* The low-rate DECOMPOSE requests replayed in-process, in order, as
   timed layer calls on a fresh cache and pool of the server's size:
   the served latency minus this is the server's own overhead. *)
let replay layers samples =
  let pool = Mpl_engine.Pool.create ~jobs () in
  let shared_cache = Mpl_engine.Cache.create () in
  let assign algo layout =
    let g = Mpl.Decomp_graph.of_layout layout ~min_s in
    D.assign ~params:(params ~jobs) ~pool ~shared_cache
      ~on_component:(fun _ _ _ -> ()) algo g
  in
  List.iter (fun c -> ignore (assign D.Linear (Mpl_layout.Benchgen.circuit c))) eco_bases;
  let walls =
    List.filter_map
      (fun s ->
        match s.req with
        | Decompose { algo; text; _ } ->
          let t0 = now () in
          let layout, parse_s = timed (fun () -> Layout_io.of_string text) in
          let split, split_s = timed (fun () -> Stitch.split layout ~min_s) in
          let g, nodes_s =
            timed (fun () -> Mpl.Decomp_graph.of_nodes split ~hp ~min_s)
          in
          let r, assign_s =
            timed (fun () ->
                D.assign ~params:(params ~jobs) ~pool ~shared_cache
                  ~on_component:(fun _ _ _ -> ()) algo g)
          in
          ignore (serialize r.D.colors);
          let wall = now () -. t0 in
          Layers.add layers "layout_io.parse_s" parse_s;
          Layers.add layers "stitch.split_s" split_s;
          Layers.add layers "decomp_graph.of_nodes_s" nodes_s;
          Layers.add layers "decomposer.assign_s" assign_s;
          Some ((s.done_ -. s.sent) -. wall)
        | Redecompose _ -> None)
      samples
  in
  Mpl_engine.Pool.shutdown pool;
  walls

let json_num path json =
  let rec go j = function
    | [] -> Mpl_obs.Json.to_float j
    | k :: rest -> Option.bind (Mpl_obs.Json.member k j) (fun j -> go j rest)
  in
  Option.value (go json path) ~default:0.

let run_traced ~seed =
  let log = new_log () in
  let layers = Layers.create () in
  let inputs, live = setup ~seed in
  let c0 = cpu_s () and t0 = now () in
  let results = phases inputs in
  Layers.set layers "process.cpu_util" ((cpu_s () -. c0) /. ((now () -. t0) *. float_of_int jobs));
  let stats =
    match Mpl_obs.Json.parse (Server.stats_json live.server) with
    | Ok j -> j
    | Error e -> failwith e
  in
  stop live;
  let all = List.concat_map (fun (_, s, _) -> s) results in
  List.iter (fun s -> ignore (check log inputs s)) all;
  let _, low, _ = List.hd results in
  let client verb pick =
    let ms = List.filter_map pick low in
    Layers.set layers ("client." ^ verb ^ "_ms_p50") (Stat.median ms *. 1e3)
  in
  client "decompose" (fun s ->
      match s.req with Decompose _ -> Some (s.done_ -. s.sent) | _ -> None);
  client "redecompose" (fun s ->
      match s.req with Redecompose _ -> Some (s.done_ -. s.sent) | _ -> None);
  Layers.set layers "serve.generator_late_ms_p90"
    (Stat.quantile 0.9 (List.map (fun s -> s.sent -. s.due) all) *. 1e3);
  Layers.set layers "server.queue_wait_ms_p90"
    (json_num [ "latency"; "queue_wait"; "p90_ms" ] stats);
  Layers.set layers "cache.bytes" (json_num [ "cache"; "bytes" ] stats);
  List.iter
    (fun s ->
      match s.reply with
      | Ok { Client.engine = Some e; _ } ->
        let module E = Mpl_engine.Engine in
        let count name n = Layers.add layers name (float_of_int n) in
        count "engine.pieces" e.E.pieces;
        count "engine.solved" e.E.solved;
        count "engine.hits" e.E.hits;
        count "engine.reused" e.E.reused
      | _ -> ())
    all;
  Batch.set_hit_ratio layers;
  let overheads = replay layers low in
  Layers.set layers "server.overhead_ms" (Stat.median overheads *. 1e3);
  Layers.set layers "trace.unaccounted_s" (Stat.sum overheads);
  (* The served phases run with no probes inside them: the traced and
     untraced phases are the same run. *)
  Layers.set layers "trace.overhead_ratio" 1.;
  {
    attempted = List.length all;
    failed = log.n_failed;
    errors = log.reasons;
    inputs = digests inputs;
    metrics = Layers.metrics layers;
  }
