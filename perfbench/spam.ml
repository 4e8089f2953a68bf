(* spam_session: one analyst runs the paper's Fig. 14 sequence (the 50
   Symantec queries over JSON, CSV and binary data) on fresh sessions with
   caching and promotion on and one domain per core. Each session runs the
   sequence three times: cold (raw files), warm (field caches filled) and
   promoted (promotion has built its layouts by then). No server runs. *)

open Common
module Db = Proteus.Db
module Symantec = Proteus_symantec.Symantec
module Plan = Proteus_algebra.Plan
module Manager = Proteus_cache.Manager
module Registry = Proteus_plugin.Registry

let params seed =
  { Symantec.json_objects = 2000; csv_rows = 15_000; bin_rows = 25_000; days = 100; seed }

(* Caching on with promotion, as the CLI's --promote sets it. *)
let caching = { Manager.default_config with Manager.promote = true }

let passes = 3

(* Set-up: generate the inputs and register them; nothing is loaded. *)
let setup seed =
  let s = Symantec.generate ~params:(params seed) () in
  let db = Db.create ~caching () in
  Db.register_json db ~name:Symantec.json_name ~element:Symantec.json_type
    ~contents:s.Symantec.json_text;
  Db.register_csv db ~name:Symantec.csv_name ~element:Symantec.csv_type
    ~contents:s.Symantec.csv_text ();
  Db.register_rows db ~name:Symantec.bin_name ~element:Symantec.bin_type
    s.Symantec.bin_records;
  (s, db)

(* --- references ------------------------------------------------------------ *)

(* Every answer, from the Volcano interpreter on a session with caching off. *)
let volcano_reference seed =
  let s, db = setup seed in
  Db.set_caching db false;
  List.map
    (fun (name, plan) -> (name, sort_bag (Db.run_plan ~engine:Db.Engine_volcano db plan)))
    (Symantec.queries s)

(* The queries over the binary table alone (Q1-Q8), as plain folds over
   the generator's records. *)
let bin_folds (s : Symantec.t) =
  let days = s.Symantec.params.Symantec.days in
  let cut frac = max 1 (int_of_float (frac *. float_of_int days)) in
  let rows =
    List.map
      (fun r ->
        let int n = match Value.field r n with Value.Int i -> i | _ -> assert false in
        let flt n = match Value.field r n with Value.Float f -> f | _ -> assert false in
        (int "day", int "src", flt "weight"))
      s.Symantec.bin_records
  in
  let where p = List.filter p rows in
  let day_lt frac (d, _, _) = d < cut frac in
  let count l = Value.Int (List.length l) in
  let sum l = List.fold_left (fun a (_, _, w) -> a +. w) 0. l in
  let by_src l agg =
    let groups = Hashtbl.create 8 in
    List.iter
      (fun ((_, src, _) as r) ->
        Hashtbl.replace groups src
          (r :: Option.value ~default:[] (Hashtbl.find_opt groups src)))
      l;
    sort_bag
      (Value.Coll
         ( Ptype.Bag,
           Hashtbl.fold
             (fun src rs acc -> Value.record [ ("src", Value.Int src); agg rs ] :: acc)
             groups [] ))
  in
  let q4 = where (day_lt 0.05) and q7 = where (day_lt 0.10) in
  [
    ("Q1", count (where (day_lt 0.10)));
    ("Q2", Value.Float (sum (where (day_lt 0.25))));
    ("Q3", count (where (fun (_, src, _) -> src = 3)));
    ( "Q4",
      Value.record
        [ ("w", Value.Float (List.fold_left (fun a (_, _, w) -> Float.max a w) neg_infinity q4));
          ("cnt", count q4) ] );
    ("Q5", by_src rows (fun rs -> ("cnt", count rs)));
    ("Q6", by_src (where (day_lt 0.25)) (fun rs -> ("w", Value.Float (sum rs))));
    ("Q7", Value.Float (sum q7 /. float_of_int (List.length q7)));
    ("Q8", count (where (day_lt 0.01)));
  ]

type refs = { volcano : (string * Value.t) list; folds : (string * Value.t) list }

let references seed =
  let s = Symantec.generate ~params:(params seed) () in
  { volcano = volcano_reference seed; folds = bin_folds s }

(* [check refs tally ~first name v] counts one query: its answer must match
   the Volcano reference, the fold where there is one, and — on passes
   after the first — the first pass's answer exactly. *)
let check refs tally ~first name v =
  let ok_ref = approx_equal (List.assoc name refs.volcano) v in
  let ok_fold =
    match List.assoc_opt name refs.folds with Some f -> approx_equal f v | None -> true
  in
  let ok_same = match first with Some f -> Value.equal f v | None -> true in
  record tally (ok_ref && ok_fold && ok_same) (fun () ->
      Fmt.str "%s: %s" name
        (if not ok_ref then "differs from the Volcano reference"
         else if not ok_fold then "differs from the fold over bin_records"
         else "differs from its cold-pass answer"))

(* --- untraced run ---------------------------------------------------------- *)

type session = {
  setup_s : float;
  first_s : float;
  cold_s : float;
  warm_s : float list;   (* one per warm pass *)
  warm_lat : float list; (* per-query seconds over the warm passes *)
  heap : float;
  stats : Manager.stats;
  arena : int;
}

let run_query o db plan =
  match time (fun () -> Db.run_plan ~domains:o.nproc db plan) with
  | v, dt -> (Some (sort_bag v), dt)
  | exception _ -> (None, 0.)

let session o refs tally =
  let t0 = now () in
  let s, db = setup o.seed in
  let setup_s = now () -. t0 in
  let qs = Symantec.queries s in
  let first_answers = Hashtbl.create 64 in
  let pass k =
    let t = now () in
    let lat =
      List.map
        (fun (name, plan) ->
          let v, dt = run_query o db plan in
          (match v with
          | None -> record tally false (fun () -> name ^ ": raised")
          | Some v ->
            if k = 0 then Hashtbl.replace first_answers name v;
            check refs tally ~first:(if k = 0 then None else Hashtbl.find_opt first_answers name)
              name v);
          dt)
        qs
    in
    (now () -. t, lat)
  in
  let runs = List.init passes pass in
  let cold_s, cold_lat = List.hd runs in
  let warm = List.tl runs in
  let heap = heap_live_mb () in
  {
    setup_s;
    first_s = List.hd cold_lat;
    cold_s;
    warm_s = List.map fst warm;
    warm_lat = List.concat_map snd warm;
    heap;
    stats = Db.cache_stats db;
    arena = arena_used db;
  }

let inputs_line seed =
  let s = Symantec.generate ~params:(params seed) () in
  Printf.printf "  inputs: JSON %d bytes, CSV %d bytes, binary %d rows\n"
    (String.length s.Symantec.json_text) (String.length s.Symantec.csv_text)
    (List.length s.Symantec.bin_records)

let run o =
  let tally = tally () in
  inputs_line o.seed;
  let refs = references o.seed in
  let t0 = now () in
  let deadline = t0 +. o.seconds in
  let rec loop acc =
    if acc <> [] && now () >= deadline then List.rev acc
    else loop (session o refs tally :: acc)
  in
  let sessions = loop [] in
  let elapsed = now () -. t0 in
  let last = List.nth sessions (List.length sessions - 1) in
  let st = last.stats in
  Printf.printf
    "  %d sessions x %d passes x 50 queries; last session: promotions=%d zone-maps=%d \
     dict-columns=%d sorted-projections=%d slot-columns=%d\n"
    (List.length sessions) passes st.Manager.promotions st.Manager.zone_maps
    st.Manager.dict_columns st.Manager.sorted_projections st.Manager.slot_columns;
  let e : e2e =
    {
      setup_s = median (List.map (fun s -> s.setup_s) sessions);
      first_answer_ms = ms (median (List.map (fun s -> s.first_s) sessions));
      cold_pass_s = median (List.map (fun s -> s.cold_s) sessions);
      warm_pass_s = median (List.concat_map (fun s -> s.warm_s) sessions);
      latencies = List.concat_map (fun s -> s.warm_lat) sessions;
      throughput_qps = float_of_int tally.attempted /. elapsed;
      heap_live_mb = median (List.map (fun s -> s.heap) sessions);
      cache_bytes = last.arena;
    }
  in
  (tally, e2e_metrics e)

(* --- traced run -------------------------------------------------------------- *)

(* The same three passes on a fresh session, driven through the layer entry
   points one call at a time — what [Db.run_plan] does, unrolled:
   Optimizer.optimize, Compiled.prepare(_par) (which also makes a dataset's
   first touch), then the staged engine. The plans arrive as algebra, so no SQL is
   parsed. Fresh sessions before and after run the passes through
   [Db.run_plan] untraced, for the tracing overhead. *)
let traced o =
  let tally = tally () in
  let refs = references o.seed in
  let untraced () =
    let s, db = setup o.seed in
    snd
      (time (fun () ->
           for _ = 1 to passes do
             List.iter (fun (_, plan) -> ignore (run_query o db plan)) (Symantec.queries s)
           done))
  in
  let before = untraced () in
  let tr = Trace.create () in
  (* first touches, timed on a session of their own: touching the datasets
     ahead of the traced passes would hand the optimizer statistics that
     the untraced path does not have yet *)
  let _, probe = setup o.seed in
  List.iter
    (fun name ->
      Trace.span tr "format.index_build" (fun _ -> ignore (Registry.source (Db.registry probe) name)))
    [ Symantec.json_name; Symantec.csv_name; Symantec.bin_name ];
  let s, db = setup o.seed in
  let reg = Db.registry db and catalog = Db.catalog db in
  let c0 = Trace.C.snapshot () and m0 = Db.cache_stats db and gc0 = Gc.quick_stat () in
  let t0 = now () in
  let first_answers = Hashtbl.create 64 in
  for k = 0 to passes - 1 do
    List.iter
      (fun (name, plan) ->
        match
          Trace.query tr (fun _ ->
              let plan =
                Trace.span tr "optimizer.optimize" (fun _ ->
                    Proteus_optimizer.Optimizer.optimize catalog plan)
              in
              let engine =
                Trace.span tr "engine.stage" (fun _ ->
                    Plan.validate plan;
                    if o.nproc > 1 then
                      Proteus_engine.Compiled.prepare_par reg ~domains:o.nproc plan
                    else Proteus_engine.Compiled.prepare reg plan)
              in
              Trace.engine_run tr engine)
        with
        | v ->
          let v = sort_bag v in
          if k = 0 then Hashtbl.replace first_answers name v;
          check refs tally
            ~first:(if k = 0 then None else Hashtbl.find_opt first_answers name)
            name v
        | exception _ -> record tally false (fun () -> name ^ ": raised"))
      (Symantec.queries s)
  done;
  let wall_s = now () -. t0 in
  let pass =
    {
      Trace.tr;
      c0;
      c1 = Trace.C.snapshot ();
      m0;
      m1 = Db.cache_stats db;
      gc0;
      gc1 = Gc.quick_stat ();
      queries = passes * 50;
      wall_s;
      untraced_wall_s = 0.;
      arena_bytes = arena_used db;
      optimize_s = 0.;
      stage_s = 0.;
    }
  in
  (* untraced before and after, so warm-up does not land on one side *)
  let pass = { pass with Trace.untraced_wall_s = (before +. untraced ()) /. 2. } in
  (tally, tr, Trace.metrics pass Trace.no_server)
