(* Shared machinery: run options, clocks, sample statistics, answer
   comparison, and the metric record every workload fills in. *)

module Value = Proteus_model.Value
module Ptype = Proteus_model.Ptype

type opts = {
  workload : string;
  seed : int;        (* input data *)
  query_seed : int;  (* query constants and streams; defaults to [seed] *)
  seconds : float;   (* length of the timed phase *)
  trace : bool;
  nproc : int;
  git_rev : string;
  out_dir : string;  (* where traces are written; inside the checkout *)
}

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let ms s = s *. 1000.

let median = function
  | [] -> nan
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The tail: in each block of [block] consecutive samples, the highest
   percentile with at least ten samples beyond it (the 11th largest, the
   94.5th percentile); reported as the median over the run's blocks, with
   that percentile and the sample count. A fixed block keeps the
   percentile the same from run to run, whatever the run's sample count. *)
let block = 200

let tail l =
  let a = Array.of_list l in
  let n = Array.length a in
  let per_block =
    List.init (n / block) (fun b ->
        let s = Array.sub a (b * block) block in
        Array.sort compare s;
        s.(block - 11))
  in
  (median per_block, 100. *. float_of_int (block - 11) /. float_of_int block, n)

(* --- answer comparison --------------------------------------------------- *)

(* Aggregates over floats are summed in engine-specific orders; compare
   with a relative tolerance of 1e-9. *)
let float_close x y =
  Float.equal x y
  || Float.abs (x -. y) <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs x) (Float.abs y))

let rec approx_equal (a : Value.t) (b : Value.t) =
  match a, b with
  | Value.Float x, Value.Float y -> float_close x y
  | Value.Record fa, Value.Record fb ->
    Array.length fa = Array.length fb
    && Array.for_all2
         (fun (na, va) (nb, vb) -> String.equal na nb && approx_equal va vb)
         fa fb
  | Value.Coll (ca, la), Value.Coll (cb, lb) ->
    ca = cb && List.length la = List.length lb && List.for_all2 approx_equal la lb
  | a, b -> Value.equal a b

(* Bags have no order: sort before comparing. *)
let sort_bag v =
  match v with
  | Value.Coll (Ptype.Bag, es) -> Value.Coll (Ptype.Bag, List.sort Value.compare es)
  | v -> v

(* --- operation accounting ------------------------------------------------- *)

type tally = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let tally () = { attempted = 0; failed = 0; notes = [] }

let tally_mu = Mutex.create ()

(* [record t ok what] counts one operation; a failed check is a failed
   operation, and the first few failures are described for the report. *)
let record t ok what =
  Mutex.lock tally_mu;
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if List.length t.notes < 5 then t.notes <- what () :: t.notes
  end;
  Mutex.unlock tally_mu

(* --- process-level readings ----------------------------------------------- *)

let mb bytes = float_of_int bytes /. 1048576.

let words_mb w = mb (w * (Sys.word_size / 8))

(* What the session holds: heap words live after a full major collection
   (inputs, indexes, caches, staged engines). *)
let heap_live_mb () =
  Gc.full_major ();
  words_mb (Gc.stat ()).Gc.live_words

(* The top of the heap as the runtime reports it; with several domains it
   follows collector pacing more than the program, so it is a per-layer
   reading only. *)
let heap_peak_mb () = words_mb (Gc.quick_stat ()).Gc.top_heap_words

let arena_used db =
  Proteus_storage.Memory.Arena.used
    (Proteus_storage.Memory.Arena.of_mgr
       (Proteus_catalog.Catalog.memory (Proteus.Db.catalog db)))

(* --- metric output -------------------------------------------------------- *)

type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value = { name; unit_; value }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_metrics ms =
  List.iter (fun m -> Printf.printf "  %-28s %18.6f %s\n" m.name m.value m.unit_) ms

(* The last line of standard output: the run's result object. *)
let print_result ~correct ~attempted ~failed ms =
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value)
             m.unit_)
         ms)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed body;
  flush stdout

(* The end-to-end metrics of an untraced run, in BENCHMARK.json order. *)
type e2e = {
  setup_s : float;
  first_answer_ms : float;
  cold_pass_s : float;
  warm_pass_s : float;
  latencies : float list;  (* seconds, every timed query *)
  throughput_qps : float;
  heap_live_mb : float;  (* taken while the session is still in use *)
  cache_bytes : int;
}

let e2e_metrics e =
  let tail_v, tail_p, tail_n = tail e.latencies in
  Printf.printf "  (latency_tail_ms is p%.1f of each %d-sample block, median over %d samples)\n"
    tail_p block tail_n;
  [
    metric "setup_s" "s" e.setup_s;
    metric "first_answer_ms" "ms" e.first_answer_ms;
    metric "cold_pass_s" "s" e.cold_pass_s;
    metric "warm_pass_s" "s" e.warm_pass_s;
    metric "latency_p50_ms" "ms" (ms (median e.latencies));
    metric "latency_tail_ms" "ms" (ms tail_v);
    metric "throughput_qps" "1/s" e.throughput_qps;
    metric "heap_live_mb" "MB" e.heap_live_mb;
    metric "cache_mb" "MB" (mb e.cache_bytes);
  ]
