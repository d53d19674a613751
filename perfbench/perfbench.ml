(* perfbench: the served-cluster benchmark.

     perfbench --workload bulk_ingest|live_mixed|read_heavy --seed N
               --seconds S --trace 0|1
               [--coord-flags "FLAGS"] [--worker-flags "FLAGS"]

   Spawns `delphic coord` over two `delphic worker --wal` processes (built
   from this checkout), drives one workload against it for S seconds and
   checks every answer against exact truth.  --trace 0 prints the
   end-to-end metrics; --trace 1 prints the per-layer metrics of a traced
   replay and the layer ledger.  The last stdout line is one JSON object
   {"correct", "attempted", "failed", "metrics"}.  See README.md. *)

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

type args = {
  kind : Gen.kind;
  seed : int;
  seconds : float;
  trace : bool;
  coord_flags : string list;
  worker_flags : string list;
}

let words s = List.filter (( <> ) "") (String.split_on_char ' ' s)

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref 20.0 and trace = ref 0 in
  let coord = ref "" and worker = ref "" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME bulk_ingest | live_mixed | read_heavy");
      ("--seed", Arg.Int (fun s -> seed := Some s), "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run or traced per-layer run");
      ("--coord-flags", Arg.Set_string coord, "FLAGS deployment flags of delphic coord");
      ("--worker-flags", Arg.Set_string worker, "FLAGS deployment flags of delphic worker");
    ]
  in
  Arg.parse specs (fun a -> die "unexpected argument %S" a) "perfbench [options]";
  let kind =
    match Gen.kind_of_string !workload with Some k -> k | None -> die "unknown workload %S" !workload
  in
  let seed = match !seed with Some s -> s | None -> die "--seed is required" in
  if !seconds <= 0.0 then die "--seconds must be positive";
  {
    kind;
    seed;
    seconds = !seconds;
    trace = !trace = 1;
    coord_flags = words !coord;
    worker_flags = words !worker;
  }

(* ---- statistics ---- *)

(* linear interpolation between closest ranks *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let h = p *. float_of_int (Array.length a - 1) in
    let lo = int_of_float h in
    let hi = min (lo + 1) (Array.length a - 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median = percentile 0.5

(* ---- provenance ---- *)

let read_file path =
  try
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Some s
  with Sys_error _ -> None

let commit () =
  match read_file ".git/HEAD" with
  | None -> "none (not a git checkout)"
  | Some head -> (
    let head = String.trim head in
    match String.index_opt head ' ' with
    | Some i when String.sub head 0 i = "ref:" -> (
      let r = String.sub head (i + 1) (String.length head - i - 1) in
      match read_file (Filename.concat ".git" r) with Some c -> String.trim c | None -> head)
    | _ -> head)

(* MD5 over the program's sources (lib/ and bin/), which identifies the
   code under test where the checkout carries no git metadata. *)
let source_digest () =
  let rec files dir =
    match Sys.readdir dir with
    | entries ->
      Array.sort compare entries;
      Array.to_list entries
      |> List.concat_map (fun e ->
             let p = Filename.concat dir e in
             if Sys.is_directory p then files p
             else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli"
                     || Filename.check_suffix p ".c" || Filename.basename p = "dune"
             then [ p ]
             else [])
    | exception Sys_error _ -> []
  in
  let all = files "lib" @ files "bin" in
  Digest.to_hex
    (Digest.string (String.concat "\000" (List.map (fun p -> p ^ "\000" ^ Option.get (read_file p)) all)))

let provenance a =
  Printf.printf "# perfbench %s seed=%d seconds=%g trace=%d\n" (Gen.kind_name a.kind) a.seed a.seconds
    (if a.trace then 1 else 0);
  Printf.printf "# host: nproc=%d ocaml=%s\n" (Domain.recommended_domain_count ()) Sys.ocaml_version;
  Printf.printf "# code: commit=%s sources-md5=%s\n" (commit ()) (source_digest ());
  Printf.printf "# coord: delphic coord -p 0 -w <2 workers> %s\n" (String.concat " " a.coord_flags);
  Printf.printf "# workers: delphic worker -p 0 --wal DIR %s\n" (String.concat " " a.worker_flags);
  if List.mem "--wal-group" a.worker_flags then
    print_endline
      "# note: --wal-group is pinned as a workaround for the group-commit reply loss (README, D3)";
  Printf.printf "# load: 1 process, closed loop, 1 v2 connection; reply deadline %.0f s\n%!"
    Served.reply_budget

(* ---- output ---- *)

let problems = ref []

let json_number name v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else begin
    problems := Printf.sprintf "metric %s was not measured" name :: !problems;
    "-1"
  end

let emit ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number name v) unit)
      metrics
  in
  let correct = correct && !problems = [] in
  List.iter (fun p -> Printf.printf "# PROBLEM: %s\n" p) (List.rev !problems);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed (String.concat ", " body)

let report_outcome label (o : Served.outcome) (v : Served.verdict) =
  let share = if v.checked = 0 then nan else float_of_int v.in_bound /. float_of_int v.checked in
  Printf.printf
    "# %s: frames=%d sets=%d reads=%d attempted=%d failed=%d error_rate=%g est_in_bound_share=%g \
     (%d of %d EST/WIN answers in (1+-eps)*truth; median |est/truth-1|=%g; EXPR median |est/truth-1|=%g over %d)\n%!"
    label o.frames_acked o.sets_acked (List.length o.reads) o.attempted o.failed
    (float_of_int o.failed /. float_of_int (max 1 o.attempted))
    share v.in_bound v.checked (median v.rel_errs) (median v.expr_rel_errs)
    (List.length v.expr_rel_errs);
  List.iter (fun p -> problems := (label ^ ": " ^ p) :: !problems) (List.rev o.problems)

(* ---- one served pass ---- *)

let start_cluster a gen =
  let t0 = Unix.gettimeofday () in
  let c = Procs.start ~coord_flags:a.coord_flags ~worker_flags:a.worker_flags () in
  let conn = Served.connect c.coord_port in
  Fun.protect ~finally:(fun () -> Delphic_cluster.Rpc.close conn) (fun () -> Served.open_sessions conn gen);
  (c, Unix.gettimeofday () -. t0)

let served_pass a gen tr ~seconds =
  let c, _ = start_cluster a gen in
  let o = Served.run ~port:c.coord_port gen tr ~seconds in
  Procs.stop_cluster c;
  o

(* setup_s is the median of this many cold starts in one run *)
let setups = 21

let untraced a gen tr =
  let times =
    List.init setups (fun i ->
        let c, dt = start_cluster a gen in
        if i < setups - 1 then Procs.stop_cluster c;
        (c, dt))
  in
  let c, _ = List.nth times (setups - 1) in
  let setup_s = median (List.map snd times) in
  let o = Served.run ~port:c.coord_port gen tr ~seconds:a.seconds in
  let rss = List.fold_left (fun m (p, _) -> Float.max m (Procs.peak_rss_mb p)) 0.0 c.workers in
  Procs.stop_cluster c;
  let v = Served.check o gen tr in
  report_outcome "served" o v;
  let reads verb = List.filter_map (fun (r : Served.read) -> if r.verb = verb then Some r.ms else None) o.reads in
  let nreads = List.length o.reads in
  let per_s n secs = float_of_int n /. secs in
  let reads_per_s =
    per_s nreads (if gen.kind = Gen.Bulk_ingest then o.read_secs else o.loop_secs)
  in
  let ingest_per_s =
    per_s o.sets_acked (if gen.kind = Gen.Bulk_ingest then o.ingest_secs else o.loop_secs)
  in
  Printf.printf "# samples: acks=%d (tail p%g) est=%d win=%d expr=%d (tail p%g) setups=%d\n"
    (List.length o.acks_ms) (100.0 *. gen.ack_tail)
    (List.length (reads Served.Est)) (List.length (reads Served.Win)) (List.length (reads Served.Expr))
    (100.0 *. gen.read_tail) setups;
  (* Ack latency and the tails are reported, not gated: their run-to-run
     spread on a shared 2-core host exceeds any bound of at most 25%
     (README, "Reported, not gated"). *)
  let read_tail verb = percentile gen.read_tail (reads verb) in
  List.iter
    (fun (n, v) -> Printf.printf "# %-20s %14.4f ms (reported, not gated)\n" n v)
    [
      ("ingest_ack_p50_ms", percentile 0.5 o.acks_ms);
      ("ingest_ack_tail_ms", percentile gen.ack_tail o.acks_ms);
      ("est_tail_ms", read_tail Served.Est);
      ("win_tail_ms", read_tail Served.Win);
      ("expr_tail_ms", read_tail Served.Expr);
    ];
  let metrics =
    [
      ("setup_s", setup_s, "s");
      ("ingest_sets_per_s", ingest_per_s, "1/s");
      ("est_p50_ms", percentile 0.5 (reads Served.Est), "ms");
      ("win_p50_ms", percentile 0.5 (reads Served.Win), "ms");
      ("expr_p50_ms", percentile 0.5 (reads Served.Expr), "ms");
      ("reads_per_s", reads_per_s, "1/s");
      ("worker_rss_mb", rss, "MB");
    ]
  in
  List.iter (fun (n, v, u) -> Printf.printf "# %-20s %14.4f %s\n" n v u) metrics;
  emit ~correct:true ~attempted:o.attempted ~failed:o.failed metrics

(* ---- traced run: per-layer metrics and the ledger ---- *)

(* End-to-end time per ledger unit: a set on bulk_ingest, a cycle (one
   frame plus its reads) on the mixes. *)
let unit_us gen (o : Served.outcome) =
  if gen.Gen.kind = Gen.Bulk_ingest then o.ingest_secs *. 1e6 /. float_of_int o.sets_acked
  else o.loop_secs *. 1e6 /. float_of_int o.frames_acked

let traced a gen tr =
  let slice = a.seconds /. 3.0 in
  let oU = served_pass a gen tr ~seconds:slice in
  let vU = Served.check oU gen tr in
  report_outcome "untraced pass" oU vU;
  Trace.reset ();
  Trace.enabled := true;
  let oT = served_pass a gen tr ~seconds:slice in
  Trace.enabled := false;
  let vT = Served.check oT gen tr in
  report_outcome "traced pass" oT vT;
  let e2e = unit_us gen oU and e2e_traced = unit_us gen oT in
  Trace.reset ();
  let dir = Procs.fresh_dir "layers" in
  let workers = Procs.start_workers ~dir ~worker_flags:a.worker_flags 2 in
  Trace.enabled := true;
  let m =
    Layers.replay ~gen ~tr ~seconds:slice ~dir ~worker_ports:(List.map snd workers)
      ~coord_flags:a.coord_flags ~worker_flags:a.worker_flags
  in
  Trace.enabled := false;
  List.iter (fun (p, _) -> Procs.stop p) workers;
  let us name =
    match Hashtbl.find_opt m.calls name with Some xs -> median xs *. 1e6 | None -> nan
  in
  let mean_us name =
    match Hashtbl.find_opt m.calls name with Some xs -> Layers.mean xs *. 1e6 | None -> nan
  in
  let b = float_of_int Gen.batch in
  let scan_parse = us "frame.scan" +. us "protocol.parse" in
  let reg = mean_us "registry.add_batch" in
  (* One client frame of 64 sets through the served write path with two
     replicas: each set is received and journalled by both workers (ADDB on
     its eager replica, ADDL on the other), applied eagerly once and
     materialised from the log once.  Each worker journals two records per
     client frame, so it checkpoints every checkpoint_every/2 frames. *)
  let write =
    [
      ("client encode", us "protocol.encode");
      ("coordinator scan+parse", scan_parse);
      ("coordinator route/stage (add_batch+flush - rtt)",
        Float.max 0.0 (us "coordinator.add_batch" -. us "rpc.addb_rtt"));
      ("rpc + worker loop x2 (rtt - worker layers)",
        2.0 *. Float.max 0.0 (us "rpc.addb_rtt" -. scan_parse -. reg -. us "wal.append"));
      ("worker scan+parse x2", 2.0 *. scan_parse);
      ("registry.add_batch (eager replica)", reg);
      ("replica log add+materialise", mean_us "registry.log_materialise");
      ("wal.append x2", 2.0 *. us "wal.append");
      ("wal.checkpoint amortised x2",
        2.0 *. us "wal.checkpoint" *. 2.0 /. float_of_int m.checkpoint_every);
    ]
  in
  (* A read after a write gathers the written session afresh: both
     replicas fetch, the coordinator decodes both and merges; a WIN adds a
     restrict and an EXPR an expression evaluation (a third of reads each). *)
  let gather = (2.0 *. (us "registry.fetch" +. us "snapshot_io.decode")) +. us "families.merge" in
  let per_read_extra = (us "families.restrict" +. us "families.expr") /. 3.0 in
  let rows =
    match gen.kind with
    | Gen.Bulk_ingest -> List.map (fun (n, v) -> (n, v /. b)) write
    | Gen.Live_mixed | Gen.Read_heavy ->
      let reads = float_of_int gen.reads_per_frame in
      write
      @ [ ("gather after the write (fetch+decode x2, merge)", gather);
          ("restrict/expr share of the reads", reads *. per_read_extra) ]
  in
  let sum = List.fold_left (fun s (_, v) -> s +. v) 0.0 rows in
  let residual = (e2e -. sum) /. e2e in
  let overhead = (e2e_traced -. e2e) /. e2e in
  let unit = if gen.kind = Gen.Bulk_ingest then "set" else "cycle" in
  Printf.printf "# ledger (%s, us per %s; layer self times from the traced replay of %d frames)\n"
    (Gen.kind_name gen.kind) unit m.frames;
  List.iter (fun (n, v) -> Printf.printf "#   %-50s %12.2f\n" n v) rows;
  Printf.printf "#   %-50s %12.2f\n" "sum of layers" sum;
  Printf.printf "#   %-50s %12.2f\n" "end to end, untraced" e2e;
  Printf.printf "#   %-50s %12.2f\n" "end to end, traced" e2e_traced;
  Printf.printf "#   residual share %.4f (negative: layers overlap across processes), tracing overhead %.4f\n"
    residual overhead;
  let checked = vU.checked + vT.checked and in_bound = vU.in_bound + vT.in_bound in
  let metrics =
    [
      ("protocol.encode_us", us "protocol.encode", "us");
      ("frame.scan_us", us "frame.scan", "us");
      ("protocol.parse_us", us "protocol.parse", "us");
      ("coordinator.add_batch_us", us "coordinator.add_batch", "us");
      ("rpc.addb_rtt_us", us "rpc.addb_rtt", "us");
      ("wal.append_us", us "wal.append", "us");
      ("wal.bytes_per_set", m.wal_bytes_per_set, "bytes");
      ("wal.checkpoint_ms", us "wal.checkpoint" /. 1000.0, "ms");
      ("registry.add_batch_us_per_set", reg /. b, "us");
      ("vatic.update_us_per_set", mean_us "families.add", "us");
      ("vatic.bucket_fill", m.bucket_fill, "ratio");
      ("registry.log_materialise_ms", mean_us "registry.log_materialise" /. 1000.0, "ms");
      ("registry.fetch_ms", us "registry.fetch" /. 1000.0, "ms");
      ("sketch.wire_bytes", m.wire_bytes, "bytes");
      ("snapshot_io.decode_ms", us "snapshot_io.decode" /. 1000.0, "ms");
      ("families.merge_ms", us "families.merge" /. 1000.0, "ms");
      ("families.restrict_ms", us "families.restrict" /. 1000.0, "ms");
      ("families.expr_ms", us "families.expr" /. 1000.0, "ms");
      ("ledger.residual_share", residual, "ratio");
      ("ledger.trace_overhead_share", overhead, "ratio");
      ("est_in_bound_share", float_of_int in_bound /. float_of_int (max 1 checked), "ratio");
    ]
  in
  List.iter (fun (n, v, u) -> Printf.printf "# %-30s %14.4f %s\n" n v u) metrics;
  emit ~correct:true ~attempted:(oU.attempted + oT.attempted) ~failed:(oU.failed + oT.failed) metrics

let () =
  let a = parse_args () in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit Procs.reap_all;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm; Sys.sighup ];
  if not (Sys.file_exists Procs.binary) then die "%s not found: build the repository first" Procs.binary;
  let gen = Gen.make a.kind ~seed:a.seed in
  let tr = Gen.truth gen in
  provenance a;
  match if a.trace then traced a gen tr else untraced a gen tr with
  | () -> exit 0
  | exception (Procs.Spawn_failed msg | Failure msg) -> die "%s" msg
