(* The traced run's recorder. Spans are taken in the benchmark's own code,
   around each call into a layer's entry point; nothing inside the program
   is instrumented. Spans stay in memory and are written out when the run
   ends. At the same boundaries the program's public counters are read
   (Counters.snapshot, Db.cache_stats, Engine_cache.stats), and their
   deltas become the per-layer counts. *)

module C = Proteus_engine.Counters
module M = Proteus_cache.Manager

type span = {
  id : int;
  name : string;
  parent : int;   (* -1 at top level *)
  query : int;    (* -1 outside a query *)
  t0 : float;
  mutable t1 : float;
  mutable covered : float;
      (* engine.run spans: seconds the Counters phases account for *)
}

type t = {
  mutable spans : span list;
  mutable next : int;
  mutable stack : span list;
  mutable query : int;
}

let create () = { spans = []; next = 0; stack = []; query = -1 }

let dur s = s.t1 -. s.t0

(* [span t name f] runs [f] inside a span whose parent is the innermost
   open span. *)
let span t name f =
  let parent = match t.stack with p :: _ -> p.id | [] -> -1 in
  let s =
    { id = t.next; name; parent; query = t.query; t0 = Common.now (); t1 = 0.; covered = 0. }
  in
  t.next <- t.next + 1;
  t.stack <- s :: t.stack;
  Fun.protect
    ~finally:(fun () ->
      s.t1 <- Common.now ();
      t.stack <- List.tl t.stack;
      t.spans <- s :: t.spans)
    (fun () -> f s)

(* One query: a top-level span named "query" tagged with a fresh id. *)
let query t f =
  t.query <- t.query + 1;
  Fun.protect ~finally:(fun () -> t.query <- -1) (fun () -> span t "query" f)

let total_s t name =
  List.fold_left (fun acc s -> if s.name = name then acc +. dur s else acc) 0. t.spans

(* Time inside query spans that no layer span (nor, inside engine.run, a
   Counters phase) accounts for. *)
let unattributed_s t =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let part = if s.name = "engine.run" then s.covered else dur s in
      Hashtbl.replace children s.parent
        (part +. Option.value ~default:0. (Hashtbl.find_opt children s.parent)))
    t.spans;
  List.fold_left
    (fun acc s ->
      if s.name = "query" then
        acc +. dur s -. Option.value ~default:0. (Hashtbl.find_opt children s.id)
      else acc)
    0. t.spans

let phase_s (a : C.snapshot) (b : C.snapshot) =
  float_of_int
    (b.C.scan_ns - a.C.scan_ns + b.C.build_ns - a.C.build_ns + b.C.probe_ns
   - a.C.probe_ns + b.C.merge_ns - a.C.merge_ns + b.C.fill_ns - a.C.fill_ns)
  /. 1e9

(* [engine_run t f] times one engine run and records how much of it the
   Counters phases cover (capped at the span: on several domains the phase
   clocks add up across domains). *)
let engine_run t f =
  span t "engine.run" (fun s ->
      let a = C.snapshot () in
      let r = f () in
      let b = C.snapshot () in
      s.covered <- Float.min (Common.now () -. s.t0) (phase_s a b);
      r)

let write t path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"name\": %S, \"parent\": %d, \"query\": %d, \"start\": %.6f, \"end\": %.6f}\n"
        s.id s.name s.parent s.query s.t0 s.t1)
    (List.rev t.spans);
  close_out oc

(* --- per-layer metrics ------------------------------------------------- *)

(* Server-layer readings; zero for workloads that run no server. *)
type server = {
  queue_wait_s : float;
  run_s : float;
  compile_s : float;
  hit_ratio : float;
  invalidations : int;
  protocol_s : float;
}

let no_server =
  { queue_wait_s = 0.; run_s = 0.; compile_s = 0.; hit_ratio = 0.; invalidations = 0;
    protocol_s = 0. }

type pass = {
  tr : t;
  c0 : C.snapshot;
  c1 : C.snapshot;
  m0 : M.stats;
  m1 : M.stats;
  gc0 : Gc.stat;
  gc1 : Gc.stat;
  queries : int;
  wall_s : float;        (* the traced script *)
  untraced_wall_s : float;  (* the same script with no spans *)
  arena_bytes : int;
  optimize_s : float;    (* optimizer.optimize, where not a span of its own *)
  stage_s : float;       (* engine.stage, likewise *)
}

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let metrics p srv =
  let open Common in
  let c a b = float_of_int (b - a) in
  let ms_ns a b = float_of_int (b - a) /. 1e6 in
  let c0 = p.c0 and c1 = p.c1 and m0 = p.m0 and m1 = p.m1 in
  let hits = m1.M.field_hits - m0.M.field_hits in
  let lookups = hits + m1.M.field_misses - m0.M.field_misses in
  let skipped =
    c1.C.morsels_skipped - c0.C.morsels_skipped + c1.C.probe_morsels_skipped
    - c0.C.probe_morsels_skipped
  in
  let considered =
    skipped + (c1.C.morsels - c0.C.morsels) + (c1.C.batches - c0.C.batches)
  in
  let layouts (m : M.stats) =
    m.M.zone_maps + m.M.dict_columns + m.M.sorted_projections + m.M.slot_columns
  in
  [
    metric "format.index_build_ms" "ms" (ms (total_s p.tr "format.index_build"));
    metric "cache.fill_ms" "ms" (ms_ns c0.C.fill_ns c1.C.fill_ns);
    metric "cache.fill_rows" "count" (c m0.M.fill_rows m1.M.fill_rows);
    metric "cache.hit_ratio" "ratio" (ratio hits lookups);
    metric "cache.layouts_built" "count" (c (layouts m0) (layouts m1));
    metric "cache.promotions" "count" (c m0.M.promotions m1.M.promotions);
    metric "prune.zone_checks" "count" (c c0.C.zone_checks c1.C.zone_checks);
    metric "prune.sorted_seeks" "count" (c c0.C.sorted_seeks c1.C.sorted_seeks);
    metric "prune.skipped" "count" (float_of_int skipped);
    metric "prune.skip_ratio" "ratio" (ratio skipped considered);
    metric "lang.parse_ms" "ms" (ms (total_s p.tr "lang.parse"));
    metric "optimizer.optimize_ms" "ms" (ms (total_s p.tr "optimizer.optimize" +. p.optimize_s));
    metric "engine.stage_ms" "ms" (ms (total_s p.tr "engine.stage" +. p.stage_s));
    metric "engine.run_ms" "ms" (ms (total_s p.tr "engine.run"));
    metric "engine.scan_ms" "ms" (ms_ns c0.C.scan_ns c1.C.scan_ns);
    metric "engine.build_ms" "ms" (ms_ns c0.C.build_ns c1.C.build_ns);
    metric "engine.probe_ms" "ms" (ms_ns c0.C.probe_ns c1.C.probe_ns);
    metric "engine.merge_ms" "ms" (ms_ns c0.C.merge_ns c1.C.merge_ns);
    metric "engine.tuples" "count" (c c0.C.tuples c1.C.tuples);
    metric "engine.batch_rows" "count" (c c0.C.batch_rows c1.C.batch_rows);
    metric "pool.morsels" "count" (c c0.C.morsels c1.C.morsels);
    metric "server.queue_wait_ms" "ms" (ms srv.queue_wait_s);
    metric "server.run_ms" "ms" (ms srv.run_s);
    metric "server.compile_ms" "ms" (ms srv.compile_s);
    metric "server.engine_hit_ratio" "ratio" srv.hit_ratio;
    metric "server.invalidations" "count" (float_of_int srv.invalidations);
    metric "server.protocol_ms" "ms" (ms srv.protocol_s);
    metric "storage.arena_mb" "MB" (mb p.arena_bytes);
    metric "gc.minor_mb_per_query" "MB"
      ((p.gc1.Gc.minor_words -. p.gc0.Gc.minor_words)
      *. float_of_int (Sys.word_size / 8)
      /. 1048576. /. float_of_int (max 1 p.queries));
    metric "gc.heap_peak_mb" "MB" (heap_peak_mb ());
    metric "gc.major_collections" "count"
      (float_of_int (p.gc1.Gc.major_collections - p.gc0.Gc.major_collections));
    metric "unattributed_ms" "ms" (ms (unattributed_s p.tr));
    metric "trace.wall_ms" "ms" (ms p.wall_s);
    metric "trace.overhead_ms" "ms" (ms (p.wall_s -. p.untraced_wall_s));
  ]
