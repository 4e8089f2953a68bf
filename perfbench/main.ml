(* The repository benchmark: one workload per invocation.

     main.exe --workload spam_session|served_reads|served_appends
              --seed N [--query-seed M] --seconds S --trace 0|1
              [--nproc P] [--git-rev REV] [--out-dir DIR]

   With --trace 0 it measures the workload untraced and prints the
   end-to-end metrics; with --trace 1 it makes the traced run and prints
   the per-layer metrics. The last line of standard output is the result
   object; the lines before it are the human-readable report.

   --workload served_reads_restarted (untraced only) is served_reads with
   the server restarted after the cold passes filled the caches: the
   reference for the stale-snapshot cliff in README.md, not a benchmark
   workload. *)

open Common

let usage () =
  prerr_endline
    "usage: main.exe --workload spam_session|served_reads|served_appends --seed N \
     [--query-seed M] --seconds S --trace 0|1 [--nproc P] [--git-rev REV] [--out-dir DIR]";
  exit 2

let parse argv =
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list argv)) in
  let get k = List.assoc_opt k kv in
  let int k = Option.map int_of_string (get k) in
  match get "workload", int "seed", get "seconds", int "trace" with
  | Some workload, Some seed, Some seconds, Some trace ->
    {
      workload;
      seed;
      query_seed = Option.value ~default:seed (int "query-seed");
      seconds = float_of_string seconds;
      trace = trace <> 0;
      nproc = Option.value ~default:(Domain.recommended_domain_count ()) (int "nproc");
      git_rev = Option.value ~default:"unknown" (get "git-rev");
      out_dir = Option.value ~default:".perfbench" (get "out-dir");
    }
  | _ -> usage ()

(* A fixed integer loop, timed at the start and end of every run: its
   readings tell a slow host apart from a slow program when runs of the
   same code disagree. *)
let host_probe_ms () =
  let x = ref 0 in
  let (), dt =
    time (fun () ->
        for i = 1 to 50_000_000 do x := (!x * 31) + i done;
        ignore (Sys.opaque_identity !x))
  in
  ms dt

let () =
  let o = try parse Sys.argv with Failure _ -> usage () in
  let probe_start = host_probe_ms () in
  Printf.printf
    "perfbench: workload=%s seed=%d query_seed=%d seconds=%g trace=%d git_rev=%s nproc=%d \
     recommended_domains=%d\n%!"
    o.workload o.seed o.query_seed o.seconds (Bool.to_int o.trace) o.git_rev o.nproc
    (Domain.recommended_domain_count ());
  let t0 = now () in
  let tally, metrics =
    match o.workload, o.trace with
    | "spam_session", false -> Spam.run o
    | ("served_reads" | "served_appends"), false ->
      Served.run o ~appends:(o.workload = "served_appends")
    | "served_reads_restarted", false -> Served.run ~restart:true o ~appends:false
    | w, true ->
      let tally, tr, metrics =
        match w with
        | "spam_session" -> Spam.traced o
        | "served_reads" | "served_appends" -> Served.traced o ~appends:(w = "served_appends")
        | _ -> usage ()
      in
      (try Unix.mkdir o.out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let path = Filename.concat o.out_dir (Fmt.str "trace-%s-seed%d.jsonl" w o.seed) in
      Trace.write tr path;
      Printf.printf "  spans written to %s\n" path;
      (tally, metrics)
    | _ -> usage ()
  in
  print_metrics metrics;
  List.iter (fun n -> Printf.printf "  FAILED: %s\n" n) (List.rev tally.notes);
  Printf.printf
    "  record: workload=%s seed=%d query_seed=%d attempted=%d failed=%d wall_s=%.1f \
     host_probe_ms=%.1f/%.1f\n"
    o.workload o.seed o.query_seed tally.attempted tally.failed (now () -. t0) probe_start
    (host_probe_ms ());
  print_result ~correct:(tally.failed = 0) ~attempted:tally.attempted ~failed:tally.failed metrics
