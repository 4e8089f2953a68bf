(* served_reads and served_appends: `proteus serve` (Server.serve, default
   configuration, ephemeral loopback port) started on freshly registered raw
   TPC-H lineitem/orders in CSV, JSON and binary-column form. Clients are
   closed loops over TCP, one connection each. served_appends adds a writer
   that appends fixed batches of lineitem rows to the CSV and JSON datasets
   through Db.append at a sparse fixed cadence, and after each append reads
   the dataset back; the readers hold off while it does (see README.md). *)

open Common
module Db = Proteus.Db
module Tpch = Proteus_tpch.Tpch
module Server = Proteus_server.Server
module Scheduler = Proteus_server.Scheduler
module Engine_cache = Proteus_server.Engine_cache
module Registry = Proteus_plugin.Registry
module Fault = Proteus_model.Fault

let sf = 0.01
let rounds = 5          (* cold start-ups per run, each followed by a timed segment *)
let warm_passes = 3     (* per round *)
let append_batches = 1  (* per round (and in the traced script), mid-segment *)
let append_rows = 100
let trace_rounds = 8    (* stream queries in the traced script: 8 x 12 *)

(* --- queries ------------------------------------------------------------------- *)

type shape = Count | Sum | Group | Join

let shapes = [ Count; Sum; Group; Join ]
let formats = [ "csv"; "json"; "bin" ]

type query = { shape : shape; fmt : string; const : int }

let sql { shape; fmt; _ } =
  match shape with
  | Count -> Fmt.str "SELECT COUNT(*) FROM li_%s WHERE l_orderkey < ?" fmt
  | Sum -> Fmt.str "SELECT SUM(l_extendedprice) FROM li_%s WHERE l_quantity < ?" fmt
  | Group ->
    Fmt.str
      "SELECT l_linenumber, COUNT(*), SUM(l_quantity) FROM li_%s WHERE l_orderkey < ? \
       GROUP BY l_linenumber ORDER BY l_linenumber"
      fmt
  | Join ->
    Fmt.str
      "SELECT COUNT(*) FROM ord_%s o, li_%s l WHERE o.o_orderkey = l.l_orderkey AND \
       o.o_custkey < ?"
      fmt fmt

(* --- inputs and reference answers -------------------------------------------------- *)

(* Answers are prefix sums: for a set of lineitem rows, each table holds
   the cumulative count (or sum) below every constant, so any constant's
   answer is one lookup and a plain fold builds the tables. *)
type table = {
  by_key : float array;          (* rows with l_orderkey < c *)
  by_ln_cnt : float array array; (* per l_linenumber: rows with l_orderkey < c *)
  by_ln_qty : float array array; (* per l_linenumber: l_quantity summed likewise *)
  by_qty : float array;          (* l_extendedprice summed over l_quantity < c *)
  by_cust : float array;         (* rows whose order has o_custkey < c *)
}

(* Only what the run needs once the inputs are registered: the generator's
   records are dropped, so they do not sit in the heap the collector scans
   during the timed phase. *)
type inputs = {
  order_count : int;
  appends : Tpch.t array;  (* the writer's batches, as lineitem-only instances *)
  custkeys : int;          (* o_custkey ranges over 1..custkeys *)
  base : table;
  extra : table array;     (* per batch *)
}

let cumulative hist =
  let n = Array.length hist in
  let c = Array.make (n + 1) 0. in
  for i = 0 to n - 1 do c.(i + 1) <- c.(i) +. hist.(i) done;
  c

let table ~order_count ~custkey ~custkeys rows =
  let key = Array.make (order_count + 1) 0. and cust = Array.make (custkeys + 1) 0. in
  let ln_cnt = Array.init 7 (fun _ -> Array.make (order_count + 1) 0.) in
  let ln_qty = Array.init 7 (fun _ -> Array.make (order_count + 1) 0.) in
  let qty = Array.make 51 0. in
  List.iter
    (fun r ->
      let int n = match Value.field r n with Value.Int i -> i | _ -> assert false in
      let ok = int "l_orderkey" and ln = int "l_linenumber" - 1 and q = int "l_quantity" in
      key.(ok) <- key.(ok) +. 1.;
      ln_cnt.(ln).(ok) <- ln_cnt.(ln).(ok) +. 1.;
      ln_qty.(ln).(ok) <- ln_qty.(ln).(ok) +. float_of_int q;
      (match Value.field r "l_extendedprice" with
      | Value.Float p -> qty.(q) <- qty.(q) +. p
      | _ -> assert false);
      cust.(custkey.(ok)) <- cust.(custkey.(ok)) +. 1.)
    rows;
  { by_key = cumulative key; by_ln_cnt = Array.map cumulative ln_cnt;
    by_ln_qty = Array.map cumulative ln_qty; by_qty = cumulative qty; by_cust = cumulative cust }

let lookup t shape c =
  let at a = a.(max 0 (min c (Array.length a - 1))) in
  match shape with
  | Count -> [| at t.by_key |]
  | Sum -> [| at t.by_qty |]
  | Join -> [| at t.by_cust |]
  | Group -> Array.init 14 (fun i -> if i < 7 then at t.by_ln_cnt.(i) else at t.by_ln_qty.(i - 7))

(* Constants: the cold and warm passes use fixed ones (about half the
   rows qualify); streams draw them uniformly, from the query seed. *)
let half inputs = function
  | Count | Group -> inputs.order_count / 2
  | Sum -> 26
  | Join -> (inputs.custkeys / 2) + 1

let draw inputs rng = function
  | Count | Group ->
    let n = inputs.order_count in
    (n / 20) + Random.State.int rng (n - (n / 20) + 1)
  | Sum -> 2 + Random.State.int rng 49
  | Join -> 2 + Random.State.int rng inputs.custkeys

(* New lineitem rows for the writer, from the seed; orderkeys fall on
   existing orders so the join sees them too. *)
let append_batch ~seed ~order_count k =
  let rng = Random.State.make [| seed; 101; k |] in
  List.init append_rows (fun _ ->
      Value.record
        [
          ("l_orderkey", Value.Int (1 + Random.State.int rng order_count));
          ("l_linenumber", Value.Int (1 + Random.State.int rng 7));
          ("l_quantity", Value.Int (1 + Random.State.int rng 50));
          ("l_extendedprice", Value.Float (float_of_int (90_000 + Random.State.int rng 10_400_000) /. 100.));
          ("l_discount", Value.Float (float_of_int (Random.State.int rng 11) /. 100.));
          ("l_tax", Value.Float (float_of_int (Random.State.int rng 9) /. 100.));
        ])

(* The count that every fresh read asks for: all rows. *)
let everything inputs = { shape = Count; fmt = "csv"; const = inputs.order_count + 1 }

let cold_queries inputs =
  List.concat_map (fun shape -> List.map (fun fmt -> { shape; fmt; const = half inputs shape }) formats) shapes

let inputs_of ~seed data =
  let order_count = data.Tpch.order_count in
  let custkey = Array.make (order_count + 1) 0 in
  List.iter
    (fun o ->
      match Value.field o "o_orderkey", Value.field o "o_custkey" with
      | Value.Int k, Value.Int c -> custkey.(k) <- c
      | _ -> assert false)
    data.Tpch.orders;
  let custkeys = Array.fold_left max 0 custkey in
  let table = table ~order_count ~custkey ~custkeys in
  let appends =
    Array.init append_batches (fun k ->
        { data with Tpch.lineitems = append_batch ~seed ~order_count k; orders = [] })
  in
  { order_count; appends; custkeys; base = table data.Tpch.lineitems;
    extra = Array.map (fun t -> table t.Tpch.lineitems) appends }

(* Expected answer of [q] once [epoch] batches were appended to its dataset
   (the binary form takes no appends), as the numbers the result lines
   carry, in order. *)
let expected inputs ~epoch q =
  let a = lookup inputs.base q.shape q.const in
  if q.fmt <> "bin" then
    for k = 0 to epoch - 1 do
      Array.iteri (fun i x -> a.(i) <- a.(i) +. x) (lookup inputs.extra.(k) q.shape q.const)
    done;
  match q.shape with
  | Group ->
    List.concat
      (List.filter_map
         (fun ln ->
           if a.(ln - 1) > 0. then Some [ float_of_int ln; a.(ln - 1); a.(ln + 6) ] else None)
         [ 1; 2; 3; 4; 5; 6; 7 ])
  | _ -> [ a.(0) ]

(* Numbers in a result line: a bare value, or a JSON object's field values. *)
let numbers line =
  let vals =
    if String.length line > 0 && line.[0] = '{' then
      List.map
        (fun kv ->
          match String.rindex_opt kv ':' with
          | Some i -> String.sub kv (i + 1) (String.length kv - i - 1)
          | None -> kv)
        (String.split_on_char ',' (String.sub line 1 (String.length line - 2)))
    else [ line ]
  in
  List.map (fun v -> match float_of_string_opt (String.trim v) with Some f -> f | None -> nan) vals

let matches inputs ~epoch q lines =
  let got = List.concat_map numbers lines in
  let want = expected inputs ~epoch q in
  List.length got = List.length want && List.for_all2 float_close got want

let lines_of_value v =
  match v with
  | Value.Coll (_, rows) -> List.map Proteus.Output.to_json rows
  | v -> [ Proteus.Output.to_json v ]

(* --- instances --------------------------------------------------------------------- *)

type instance = {
  db : Db.t;
  inputs : inputs;
  mutable server : (bool Atomic.t * Thread.t * int) option;
}

let register t =
  let db = Db.create () in
  Db.register_csv db ~name:"li_csv" ~element:Tpch.lineitem_type ~contents:(Tpch.lineitem_csv t) ();
  Db.register_json db ~name:"li_json" ~element:Tpch.lineitem_type ~contents:(Tpch.lineitem_json t);
  Db.register_columns db ~name:"li_bin" ~element:Tpch.lineitem_type (Tpch.lineitem_columns t);
  Db.register_csv db ~name:"ord_csv" ~element:Tpch.order_type ~contents:(Tpch.orders_csv t) ();
  Db.register_json db ~name:"ord_json" ~element:Tpch.order_type ~contents:(Tpch.orders_json t);
  Db.register_columns db ~name:"ord_bin" ~element:Tpch.order_type (Tpch.orders_columns t);
  db

let start_server db =
  let stop = Atomic.make false and port = Atomic.make 0 in
  let th =
    Thread.create
      (fun () ->
        Server.serve ~ready:(Atomic.set port) ~stop db
          { Server.default_config with Server.port = 0 })
      ()
  in
  let t0 = now () in
  while Atomic.get port = 0 do
    if now () -. t0 > 30. then failwith "server did not start";
    Thread.delay 0.0005
  done;
  (stop, th, Atomic.get port)

let stop_server inst =
  Option.iter
    (fun (stop, th, _) ->
      Atomic.set stop true;
      Thread.join th)
    inst.server;
  inst.server <- None

(* Set-up as timed: generate, render and register the inputs, start the
   server. The reference answers are folded afterwards, untimed. *)
let setup o ~serve =
  let data = Tpch.generate ~seed:o.seed ~sf () in
  let db = register data in
  let server = if serve then Some (start_server db) else None in
  (data, db, server)

let instance o ~serve =
  let data, db, server = setup o ~serve in
  { db; inputs = inputs_of ~seed:o.seed data; server }

(* --- the TCP client ----------------------------------------------------------------- *)

type conn = { ic : in_channel; oc : out_channel; fd : Unix.file_descr }

let connect inst =
  let port = match inst.server with Some (_, _, p) -> p | None -> assert false in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd; fd }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* One query: bind the parameter, then `run`; each request waits for its
   reply before the next is sent. The answer's lines, or the error line. *)
let ask c q =
  Printf.fprintf c.oc "param 1=%d\n%!" q.const;
  match input_line c.ic with
  | "ok" -> (
    Printf.fprintf c.oc "run %s\n%!" (sql q);
    let head = input_line c.ic in
    match String.split_on_char ' ' head with
    | [ "ok"; n ] -> Ok (List.init (int_of_string n) (fun _ -> input_line c.ic))
    | _ -> Error head)
  | other -> Error other

let append_text inst fmt k =
  let t = inst.inputs.appends.(k) in
  if fmt = "csv" then Tpch.lineitem_csv t else Tpch.lineitem_json t

(* --- untraced run ---------------------------------------------------------------------- *)

(* Readers hold off while the writer appends and reads back. *)
type gate = {
  mu : Mutex.t;
  cond : Condition.t;
  mutable paused : bool;
  mutable inflight : int;
  epochs : (string, int) Hashtbl.t;  (* batches appended, per dataset format *)
}

let enter g fmt =
  Mutex.lock g.mu;
  while g.paused do Condition.wait g.cond g.mu done;
  g.inflight <- g.inflight + 1;
  let e = Option.value ~default:0 (Hashtbl.find_opt g.epochs fmt) in
  Mutex.unlock g.mu;
  e

let leave g =
  Mutex.lock g.mu;
  g.inflight <- g.inflight - 1;
  Condition.broadcast g.cond;
  Mutex.unlock g.mu

let timed_read tally inst ~epoch c q =
  let t0 = now () in
  let r = ask c q in
  let dt = now () -. t0 in
  (match r with
  | Ok lines ->
    record tally (matches inst.inputs ~epoch q lines) (fun () ->
        Fmt.str "%s [%d] after %d appends: got %s" (sql q) q.const epoch (String.concat " | " lines))
  | Error e -> record tally false (fun () -> sql q ^ ": " ^ e));
  dt

let pass tally inst c ~epoch qs =
  let lat = List.map (fun q -> timed_read tally inst ~epoch:(epoch q) c q) qs in
  (List.fold_left ( +. ) 0. lat, lat)

(* A query stream: shape, format and constant drawn uniformly. *)
let stream ~query_seed ~idx inputs =
  let rng = Random.State.make [| query_seed; idx; 7919 |] in
  let shapes = Array.of_list shapes and formats = Array.of_list formats in
  fun () ->
    let shape = shapes.(Random.State.int rng 4) in
    let fmt = formats.(Random.State.int rng 3) in
    { shape; fmt; const = draw inputs rng shape }

let reader o tally inst g ~deadline idx =
  let c = connect inst in
  let next = stream ~query_seed:o.query_seed ~idx inst.inputs in
  let lat = ref [] in
  while now () < deadline do
    let q = next () in
    let fmt = q.fmt in
    let epoch = enter g fmt in
    let dt = Fun.protect ~finally:(fun () -> leave g) (fun () -> timed_read tally inst ~epoch c q) in
    lat := dt :: !lat
  done;
  close c;
  List.rev !lat

(* What the writer reads back after appending to format [fmt]: first the
   count of all rows (the fresh read), then the other shapes, in a fixed
   order so the engines re-staged after the append do not depend on which
   reader came first. *)
let read_back inputs fmt =
  { (everything inputs) with fmt }
  :: List.filter_map
       (fun shape -> if shape = Count then None else Some { shape; fmt; const = half inputs shape })
       shapes

(* The writer: [append_batches] appends to each of li_csv and li_json, due
   at even spacing over the segment; each append waits until no read is in
   flight (see README.md) and is followed by its read-back. *)
let writer tally inst g ~start ~seconds =
  let c = connect inst in
  let append_s = ref [] and fresh_s = ref [] and lat = ref [] in
  for k = 1 to append_batches do
    let due = start +. (seconds *. float_of_int k /. float_of_int (append_batches + 1)) in
    let wait = due -. now () in
    if wait > 0. then Thread.delay wait;
    Mutex.lock g.mu;
    g.paused <- true;
    while g.inflight > 0 do Condition.wait g.cond g.mu done;
    Mutex.unlock g.mu;
    List.iter
      (fun fmt ->
        let (), dt =
          time (fun () -> Db.append inst.db ~name:("li_" ^ fmt) (append_text inst fmt (k - 1)))
        in
        append_s := dt :: !append_s;
        Hashtbl.replace g.epochs fmt k;
        let back = List.map (fun q -> timed_read tally inst ~epoch:k c q) (read_back inst.inputs fmt) in
        fresh_s := List.hd back :: !fresh_s;
        lat := List.rev_append back !lat)
      [ "csv"; "json" ];
    Mutex.lock g.mu;
    g.paused <- false;
    Condition.broadcast g.cond;
    Mutex.unlock g.mu
  done;
  close c;
  (!append_s, !fresh_s, List.rev !lat)

type round = {
  setup_s : float;
  first_s : float;
  cold_s : float;
  warm : float list;
  reads : float list;  (* latencies of the segment's reads *)
  segment_s : float;
  appended : float list;
  fresh : float list;
  heap : float;
  cache : int;
}

(* One round: a cold start-up of the server (timed set-up, first answer,
   cold pass), a timed segment of the closed loop, warm passes, shutdown.
   Rounds repeat over the run, so every metric is a median over samples
   spread across the whole run rather than taken in one stretch of it. *)
let round o tally ~restart ~appends ~segment k =
  Gc.full_major ();
  let t0 = now () in
  let data, db, server = setup o ~serve:true in
  let setup_s = now () -. t0 in
  let inst = { db; inputs = inputs_of ~seed:o.seed data; server } in
  (* the set-up's garbage is collected before the first query, not in it *)
  Gc.full_major ();
  let c, connect_s = time (fun () -> connect inst) in
  let cold_s, cold_lat = pass tally inst c ~epoch:(fun _ -> 0) (cold_queries inst.inputs) in
  close c;
  if k = 0 then begin
    let bytes blob =
      String.length
        (Proteus_storage.Memory.contents (Proteus_catalog.Catalog.memory (Db.catalog db)) blob)
    in
    Printf.printf
      "  inputs: lineitem CSV %d bytes, JSON %d bytes; orders CSV %d bytes, JSON %d bytes\n"
      (bytes "li_csv.csv") (bytes "li_json.json") (bytes "ord_csv.csv") (bytes "ord_json.json")
  end;
  if restart then begin
    stop_server inst;
    inst.server <- Some (start_server db)
  end;
  let g =
    { mu = Mutex.create (); cond = Condition.create (); paused = false; inflight = 0;
      epochs = Hashtbl.create 2 }
  in
  let start = now () in
  let clients = max 1 (min 2 o.nproc) in
  let results = Array.make clients [] in
  let threads =
    List.init clients (fun i ->
        Thread.create
          (fun () -> results.(i) <- reader o tally inst g ~deadline:(start +. segment) ((k * 8) + i))
          ())
  in
  let appended, fresh, back =
    if appends then writer tally inst g ~start ~seconds:segment else ([], [], [])
  in
  List.iter Thread.join threads;
  let segment_s = now () -. start in
  let c = connect inst in
  let epoch q = Option.value ~default:0 (Hashtbl.find_opt g.epochs q.fmt) in
  let warm = List.init warm_passes (fun _ -> fst (pass tally inst c ~epoch (cold_queries inst.inputs))) in
  close c;
  let heap = heap_live_mb () in
  let cache = arena_used db in
  stop_server inst;
  { setup_s; first_s = connect_s +. List.hd cold_lat; cold_s; warm;
    reads = back @ List.concat (Array.to_list results); segment_s; appended; fresh; heap; cache }

(* [restart] is the cliff's reference, not a benchmark workload: each
   round's server is started afresh on the session whose caches its cold
   pass filled, so its engines are staged after the fills. *)
let run ?(restart = false) o ~appends =
  let tally = tally () in
  let segment = o.seconds /. float_of_int rounds in
  let rs = List.init rounds (round o tally ~restart ~appends ~segment) in
  let all f = List.concat_map f rs and med f = median (List.map f rs) in
  let reads = all (fun r -> r.reads) in
  let elapsed = List.fold_left (fun a r -> a +. r.segment_s) 0. rs in
  if appends then
    Printf.printf "  append_ms %.3f ms (median of %d), fresh_read_ms %.3f ms (median of %d)\n"
      (ms (median (all (fun r -> r.appended)))) (List.length (all (fun r -> r.appended)))
      (ms (median (all (fun r -> r.fresh)))) (List.length (all (fun r -> r.fresh)));
  Printf.printf "  %d rounds, %d reads in %.2f s of timed segments\n" rounds (List.length reads)
    elapsed;
  let e : e2e =
    {
      setup_s = med (fun r -> r.setup_s);
      first_answer_ms = ms (med (fun r -> r.first_s));
      cold_pass_s = med (fun r -> r.cold_s);
      warm_pass_s = median (all (fun r -> r.warm));
      latencies = reads;
      throughput_qps = float_of_int (List.length reads) /. elapsed;
      heap_live_mb = med (fun r -> r.heap);
      cache_bytes = int_of_float (med (fun r -> float_of_int r.cache));
    }
  in
  (tally, e2e_metrics e)

(* --- traced run --------------------------------------------------------------------------- *)

(* The traced script: the cold pass, then [trace_rounds] x 12 stream
   queries; with appends, the writer's batches at even spacing, each
   followed by its read-back. One client, one call at a time. *)
type step = Read of query | Append of string * int

let script o inputs ~appends =
  let next = stream ~query_seed:o.query_seed ~idx:99 inputs in
  let n = trace_rounds * 12 in
  let every = n / (append_batches + 1) in
  let writes k =
    List.concat_map
      (fun fmt -> Append (fmt, k) :: List.map (fun q -> Read q) (read_back inputs fmt))
      [ "csv"; "json" ]
  in
  List.map (fun q -> Read q) (cold_queries inputs)
  @ List.concat
      (List.init n (fun i ->
           let k = (i / every) - 1 in
           (if appends && i mod every = 0 && k >= 0 && k < append_batches then writes k else [])
           @ [ Read (next ()) ]))

(* Runs the script with [read]; every answer is checked. *)
let run_script tally inst steps ~read ~append =
  let epochs = Hashtbl.create 2 in
  List.iter
    (function
      | Append (fmt, k) ->
        append fmt k;
        Hashtbl.replace epochs fmt (k + 1)
      | Read q -> (
        let epoch = Option.value ~default:0 (Hashtbl.find_opt epochs q.fmt) in
        match read q with
        | Ok lines ->
          record tally (matches inst.inputs ~epoch q lines) (fun () ->
              Fmt.str "%s [%d]: got %s" (sql q) q.const (String.concat " | " lines))
        | Error e -> record tally false (fun () -> sql q ^ ": " ^ e)))
    steps

(* The scheduler worker's calls, made here one at a time: Db.plan_sql and
   parameter binding, Engine_cache.acquire (optimize, key, then stage on a
   miss or rebind on a hit), the engine run, the release. *)
let direct ?tr inst cache ~acquire_s ~stage_s q =
  let sp name f = match tr with Some tr -> Trace.span tr name (fun _ -> f ()) | None -> f () in
  let body () =
    let plan =
      sp "lang.parse" (fun () ->
          Proteus_algebra.Analysis.bind_params [ ("1", Value.Int q.const) ]
            (Db.plan_sql inst.db (sql q)))
    in
    let lease, dt = time (fun () -> sp "engine_cache.acquire" (fun () -> Engine_cache.acquire cache plan)) in
    acquire_s := !acquire_s +. dt;
    stage_s := !stage_s +. Engine_cache.compile_seconds lease;
    let ctx = Fault.install ~policy:Fault.Fail_fast () in
    let run () = Engine_cache.run lease in
    let v =
      match (match tr with Some tr -> Trace.engine_run tr run | None -> run ()) with
      | v -> Ok (lines_of_value v)
      | exception e -> Error (Printexc.to_string e)
    in
    Fault.clear ();
    let clean = Result.is_ok v && (Fault.report ctx).Fault.rp_errors = 0 in
    sp "engine_cache.release" (fun () -> Engine_cache.release lease ~clean);
    v
  in
  match tr with Some tr -> Trace.query tr (fun _ -> body ()) | None -> body ()

(* Passes of the script, each on a fresh instance with the same inputs:
   direct calls untraced (A, twice) and traced (B) — their gap is the
   tracing overhead — then through a Scheduler with the server's default
   configuration (C) for the server-layer times, and over TCP to
   Server.serve (D), whose latency minus C's scheduler latency is the
   protocol time. *)
let traced o ~appends =
  let tally = tally () in
  let cfg = Server.default_config in
  let direct_pass ?(tr = Trace.create ()) ~traced ~untraced_wall_s () =
    let inst = instance o ~serve:false in
    let steps = script o inst.inputs ~appends in
    let cache = Engine_cache.create ~capacity:cfg.Server.cache_capacity inst.db in
    let acquire_s = ref 0. and stage_s = ref 0. in
    let c0 = Trace.C.snapshot () and m0 = Db.cache_stats inst.db and gc0 = Gc.quick_stat () in
    let t0 = now () in
    run_script tally inst steps
      ~read:(direct ?tr:(if traced then Some tr else None) inst cache ~acquire_s ~stage_s)
      ~append:(fun fmt k ->
        let append () = Db.append inst.db ~name:("li_" ^ fmt) (append_text inst fmt k) in
        if traced then Trace.span tr "storage.append" (fun _ -> append ()) else append ());
    {
      Trace.tr; c0; c1 = Trace.C.snapshot (); m0; m1 = Db.cache_stats inst.db; gc0;
      gc1 = Gc.quick_stat ();
      queries = List.length (List.filter (function Read _ -> true | Append _ -> false) steps);
      wall_s = now () -. t0; untraced_wall_s; arena_bytes = arena_used inst.db;
      optimize_s = !acquire_s -. !stage_s; stage_s = !stage_s;
    }
  in
  (* First touches, timed on an instance of their own: touching the
     datasets ahead of the traced pass would hand the optimizer statistics
     the untraced path does not have yet. With appends, the re-index after
     one batch as well. *)
  let tr = Trace.create () in
  let probe = instance o ~serve:false in
  let index name =
    Trace.span tr "format.index_build" (fun _ -> ignore (Registry.source (Db.registry probe.db) name))
  in
  List.iter index [ "li_csv"; "li_json"; "li_bin"; "ord_csv"; "ord_json"; "ord_bin" ];
  if appends then
    List.iter
      (fun fmt ->
        Db.append probe.db ~name:("li_" ^ fmt) (append_text probe fmt 0);
        index ("li_" ^ fmt))
      [ "csv"; "json" ];
  (* untraced before and after the traced pass, so the process's own
     warm-up does not land on one side of the overhead *)
  let untraced () = (direct_pass ~traced:false ~untraced_wall_s:0. ()).Trace.wall_s in
  let before = untraced () in
  let pass = direct_pass ~tr ~traced:true ~untraced_wall_s:0. () in
  let pass = { pass with Trace.untraced_wall_s = (before +. untraced ()) /. 2. } in
  (* C: the scheduler *)
  let inst = instance o ~serve:false in
  let sched =
    Scheduler.create ~workers:cfg.Server.workers ~max_queue:cfg.Server.max_queue
      ~cache_capacity:cfg.Server.cache_capacity inst.db
  in
  let wait = ref 0. and run = ref 0. and compile = ref 0. and sched_lat = ref [] in
  run_script tally inst (script o inst.inputs ~appends)
    ~append:(fun fmt k -> Db.append inst.db ~name:("li_" ^ fmt) (append_text inst fmt k))
    ~read:(fun q ->
      match
        Scheduler.run sched
          (Scheduler.request ~params:[ ("1", Value.Int q.const) ] ~domains:cfg.Server.domains
             ~client:"c0" (sql q))
      with
      | Ok c -> (
        wait := !wait +. c.Scheduler.cp_wait_seconds;
        run := !run +. c.Scheduler.cp_run_seconds;
        compile := !compile +. c.Scheduler.cp_compile_seconds;
        sched_lat := (c.Scheduler.cp_wait_seconds +. c.Scheduler.cp_run_seconds) :: !sched_lat;
        match c.Scheduler.cp_outcome with
        | Proteus_engine.Executor.Completed (v, _) -> Ok (lines_of_value v)
        | _ -> Error "query did not complete")
      | Error _ -> Error "query refused");
  let ec = Engine_cache.stats (Scheduler.engine_cache sched) in
  Scheduler.shutdown sched;
  (* D: TCP *)
  let inst = instance o ~serve:true in
  let c = connect inst in
  let tcp_lat = ref [] in
  run_script tally inst (script o inst.inputs ~appends)
    ~append:(fun fmt k -> Db.append inst.db ~name:("li_" ^ fmt) (append_text inst fmt k))
    ~read:(fun q ->
      let r, dt = time (fun () -> ask c q) in
      tcp_lat := dt :: !tcp_lat;
      r);
  close c;
  stop_server inst;
  let sum = List.fold_left ( +. ) 0. in
  Printf.printf "  scheduler pass: wait %.1f ms + run %.1f ms; TCP pass: %.1f ms\n" (ms !wait)
    (ms !run) (ms (sum !tcp_lat));
  (* the same script on both sides: pair the queries, and take the median
     gap so that one slow query on either side does not decide it *)
  let gaps = List.map2 ( -. ) !tcp_lat !sched_lat in
  let srv =
    {
      Trace.queue_wait_s = !wait;
      run_s = !run;
      compile_s = !compile;
      hit_ratio = Trace.ratio ec.Engine_cache.hits (ec.Engine_cache.hits + ec.Engine_cache.misses);
      invalidations = ec.Engine_cache.invalidations;
      protocol_s = median gaps *. float_of_int (List.length gaps);
    }
  in
  (tally, tr, Trace.metrics pass srv)
