(* The traced replay: the workload's own frames, fed through each layer's
   public functions in this process, with a span around every call.

   Per frame, in the order the served path runs them: client encode
   (Protocol.encode_request_v2_sink + Frame framing), Frame.scan,
   Protocol.parse_frame_body, Coordinator.add_batch + flush (an in-process
   coordinator over two spawned journalled workers), one ADDB round trip
   straight to a worker (Rpc.stage / flush_staged / recv), the eager
   replica's Registry.add_batch, Wal.append_framed (and Wal.checkpoint every
   --checkpoint-every records), Families.add per set, and the log replica's
   Registry.add_log followed by its first read.  Then the read path of the
   gather: Registry.fetch on both replicas, Snapshot_io.of_wire +
   Families.of_io, Families.merge, Families.restrict and
   Families.expr_estimate. *)

module P = Delphic_server.Protocol
module Frame = Delphic_server.Frame
module Registry = Delphic_server.Registry
module Families = Delphic_server.Families
module Wal = Delphic_server.Wal
module Io = Delphic_core.Snapshot_io
module Coordinator = Delphic_cluster.Coordinator
module Rpc = Delphic_cluster.Rpc

let ok what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)
let ok_p what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ P.describe_error e)

(* The value following [flag] in a recorded flag list. *)
let flag flags name =
  let rec go = function
    | f :: v :: _ when f = name -> Some v
    | _ :: rest -> go rest
    | [] -> None
  in
  go flags

type measured = {
  calls : (string, float list) Hashtbl.t;  (** span self times, seconds *)
  wal_bytes_per_set : float;
  wire_bytes : float;
  bucket_fill : float;
  frames : int;
  checkpoint_every : int;  (** the workers' --checkpoint-every *)
}

let mean xs = match xs with [] -> nan | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let replay ~(gen : Gen.t) ~tr ~seconds ~dir ~worker_ports ~coord_flags ~worker_flags =
  let t_end = Unix.gettimeofday () +. seconds in
  let names = gen.sessions in
  let n = Array.length names in
  let family = P.Rect in
  let open_in reg name =
    ok_p "open"
      (Registry.open_session reg ~name ~family ~epsilon:Gen.epsilon ~delta:Gen.delta
         ~log2_universe:Gen.log2_universe)
  in
  (* the two replicas of the served deployment: reg0 takes each frame
     eagerly, reg1 as a replica log *)
  let reg0 = Registry.create ~seed:11 () and reg1 = Registry.create ~seed:12 () in
  Array.iter (fun s -> open_in reg0 s; open_in reg1 s) names;
  let fams =
    Array.map
      (fun _ ->
        ok "families"
          (Families.create ~family ~epsilon:Gen.epsilon ~delta:Gen.delta
             ~log2_universe:Gen.log2_universe ~seed:13))
      names
  in
  let fsync =
    match flag worker_flags "--fsync" with
    | Some p -> ok "--fsync" (Wal.fsync_policy_of_string p)
    | None -> Wal.Interval 0.2
  in
  let checkpoint_every =
    Option.fold ~none:512 ~some:int_of_string (flag worker_flags "--checkpoint-every")
  in
  let wal_dir = Filename.concat dir "replay-wal" in
  let wal = Wal.open_ ~dir:wal_dir ~fsync in
  let journal = Filename.concat wal_dir "journal" in
  let journal_bytes = ref 0 and records = ref 0 and checkpoints = ref 0 in
  let checkpoint () =
    incr checkpoints;
    journal_bytes := !journal_bytes + file_size journal;
    Trace.span "wal.checkpoint" (fun () ->
        ignore (Wal.checkpoint wal ~spool:(fun ~dir -> Registry.snapshot_all ~fsync:true reg0 ~dir)))
  in
  (* a direct v2 connection to one worker, sessions under r_<name> *)
  let conn =
    match
      Rpc.connect ~proto:Rpc.V2 ~host:"127.0.0.1" ~port:(List.hd worker_ports)
        ~timeout:Served.reply_budget ()
    with
    | Ok c -> c
    | Error e -> failwith ("connect to worker: " ^ Rpc.describe_connect_error e)
  in
  let call req =
    match Rpc.call conn req with Ok r -> r | Error e -> failwith ("worker call: " ^ e)
  in
  Array.iter
    (fun s ->
      match
        call
          (P.Open
             {
               session = "r_" ^ s;
               family;
               epsilon = Gen.epsilon;
               delta = Gen.delta;
               log2_universe = Gen.log2_universe;
             })
      with
      | P.Ok_reply _ -> ()
      | r -> failwith ("worker OPEN: " ^ P.render_response r))
    names;
  (* an in-process coordinator with the recorded deployment, sessions c_<name> *)
  let int_flag f d = Option.fold ~none:d ~some:int_of_string (flag coord_flags f) in
  let coord =
    Coordinator.create ~sharding:Coordinator.By_hash ~replicas:(int_flag "--replicas" 2)
      ~batch:(int_flag "--batch" 64)
      ~timeout:(Option.fold ~none:2.0 ~some:float_of_string (flag coord_flags "--timeout"))
      ~proto:Rpc.V2
      ~workers:(List.map (fun p -> ("127.0.0.1", p)) worker_ports)
      ~seed:14 ()
  in
  Array.iter
    (fun s ->
      ok_p "coordinator open"
        (Coordinator.open_session coord ~name:("c_" ^ s) ~family ~epsilon:Gen.epsilon
           ~delta:Gen.delta ~log2_universe:Gen.log2_universe))
    names;
  let sink = Frame.sink_create 65536 and buf = Buffer.create 65536 in
  let merged = Array.make n None in
  let wire = ref [] in
  let expr_of s =
    let name k = names.((s + k) mod n) in
    Delphic_stream.Parsers.expr_of_string (Gen.expr_text gen (name 0) (name 1) (name 2))
  in
  (* the gather of session [s] as the coordinator folds it, then the
     coordinator-side window restriction and expression evaluation *)
  let read s ~cutoff =
    let decode tok =
      Trace.span "snapshot_io.decode" (fun () ->
          ok "decode" (Families.of_io (ok "of_wire" (Io.of_wire tok)) ~seed:15))
    in
    let fetch reg =
      let tok = Trace.span "registry.fetch" (fun () -> ok_p "fetch" (Registry.fetch reg ~name:names.(s))) in
      wire := float_of_int (String.length tok) :: !wire;
      tok
    in
    let d0 = decode (fetch reg0) and d1 = decode (fetch reg1) in
    let m = Trace.span "families.merge" (fun () -> ok "merge" (Families.merge d0 d1 ~seed:16)) in
    merged.(s) <- Some m;
    ignore (Trace.span "families.restrict" (fun () -> ok "restrict" (Families.restrict m ~cutoff ~seed:17)));
    let expr = expr_of s in
    let leaves = List.map (fun l -> (l, merged.(Gen.session_index tr l))) (Delphic_expr.Expr.leaves expr) in
    if List.for_all (fun (_, m) -> m <> None) leaves then begin
      let leaves = List.map (fun (l, m) -> (l, Option.get m)) leaves in
      let union =
        List.fold_left
          (fun acc (_, m) -> match acc with None -> Some m | Some a -> Some (ok "union" (Families.merge a m ~seed:18)))
          None leaves
      in
      ignore
        (Trace.span "families.expr" (fun () ->
             Families.expr_estimate ~union:(Option.get union) ~leaves ~expr ~samples:Registry.default_expr_samples))
    end
  in
  (* the mixes read after every frame; bulk_ingest reads every session
     back in one round of frames out of four *)
  let reads_after i = gen.kind <> Gen.Bulk_ingest || i / n mod 4 = 0 in
  let i = ref 0 in
  while !i < 3 || Unix.gettimeofday () < t_end do
    let f = Gen.frame_of tr !i in
    let name = names.(f.session) in
    let payloads = Array.to_list (Array.map (fun (s : Gen.set) -> s.line) f.sets) in
    let req = P.Add_batch { session = name; payloads; ts = Some f.ts } in
    let framed =
      Trace.span "protocol.encode" (fun () ->
          P.encode_request_v2_sink sink req;
          Buffer.clear buf;
          Frame.frame_sink_into buf sink;
          Buffer.contents buf)
    in
    let body =
      Trace.span "frame.scan" (fun () ->
          match Frame.scan (Bytes.unsafe_of_string framed) ~pos:0 ~len:(String.length framed) with
          | Frame.Got { body; _ } -> body
          | _ -> failwith "frame.scan: frame did not decode")
    in
    (match Trace.span "protocol.parse" (fun () -> P.parse_frame_body body) with
    | Ok (P.Add_batch { payloads = p; _ }) when List.length p = Gen.batch -> ()
    | _ -> failwith "parse_frame_body: frame did not round-trip");
    ignore
      (Trace.span "coordinator.add_batch" (fun () ->
           let r = Coordinator.add_batch ~ts:f.ts coord ~name:("c_" ^ name) ~payloads in
           Coordinator.flush coord;
           r));
    (match
       Trace.span "rpc.addb_rtt" (fun () ->
           Rpc.stage conn (P.Add_batch { session = "r_" ^ name; payloads; ts = Some f.ts });
           match Rpc.flush_staged conn with
           | Error e -> failwith e
           | Ok () -> Rpc.recv_timeout ~deadline:(Unix.gettimeofday () +. Served.reply_budget) conn)
     with
    | Ok (P.Ok_batch { accepted; _ }) when accepted = Gen.batch -> ()
    | Ok r -> failwith ("worker ADDB: " ^ P.render_response r)
    | Error e -> failwith ("worker ADDB: " ^ Rpc.describe_recv_error e));
    (match Trace.span "registry.add_batch" (fun () -> Registry.add_batch ~ts:f.ts reg0 ~name ~payloads) with
    | Ok (k, []) when k = Gen.batch -> ()
    | _ -> failwith "registry.add_batch refused a frame");
    Trace.span "wal.append" (fun () -> Wal.append_framed wal framed);
    incr records;
    if !records mod checkpoint_every = 0 then checkpoint ();
    Array.iteri
      (fun j (s : Gen.set) ->
        Trace.span "families.add" (fun () -> Families.add ~ts:f.ts fams.(f.session) ~lineno:(j + 1) s.line))
      f.sets;
    Trace.span "registry.log_materialise" (fun () ->
        ignore (ok_p "add_log" (Registry.add_log ~ts:f.ts reg1 ~name ~payloads));
        ignore (ok_p "estimate" (Registry.estimate reg1 ~name)));
    if reads_after !i then read f.session ~cutoff:(f.ts -. Float.max gen.window 1.0);
    incr i
  done;
  if !checkpoints = 0 then checkpoint ();
  journal_bytes := !journal_bytes + file_size journal;
  Wal.close wal;
  Rpc.close conn;
  Coordinator.shutdown coord;
  (* bucket occupancy against Theorem 1.2's bound B*(lmax+1), which is
     also the exact-regime capacity, over the sessions that received data *)
  let fills =
    List.filter_map
      (fun fam ->
        if Families.items fam = 0 then None
        else
          Some (float_of_int (Families.entries fam) /. float_of_int (Families.to_io fam).Io.exact_capacity))
      (Array.to_list fams)
  in
  {
    calls = Trace.self_times ();
    wal_bytes_per_set = float_of_int !journal_bytes /. float_of_int (!records * Gen.batch);
    wire_bytes = mean !wire;
    bucket_fill = mean fills;
    frames = !i;
    checkpoint_every;
  }
