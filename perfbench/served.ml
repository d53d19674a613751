(* The load generator: one process, closed loop, over one v2 connection to
   the coordinator (Delphic_cluster.Rpc), every wait bounded by a deadline.

   bulk_ingest pipelines ADDB frames with a bounded number in flight, then
   reads every session once per verb.  live_mixed and read_heavy alternate
   one ADDB frame with 1 or 16 reads.  Every reply is recorded with what is
   needed to check it afterwards, outside the timed region. *)

module P = Delphic_server.Protocol
module Rpc = Delphic_cluster.Rpc

(* A reply later than this is a miss: it counts as failed and ends the run
   (a reply that arrives after its deadline would desynchronise the stream). *)
let reply_budget = 20.0

(* ADDB frames in flight on bulk_ingest's pipeline. *)
let in_flight = 4

type verb = Est | Win | Expr

let verb_name = function Est -> "est" | Win -> "win" | Expr -> "expr"

type read = {
  verb : verb;
  session : int;  (** EST/WIN target; unused for EXPR *)
  expr : P.Expr_ast.t option;
  frames_done : int;  (** frames acknowledged before the read was sent *)
  cutoff : float;  (** WIN cutoff in logical time *)
  reply : P.response;
  ms : float;
}

type outcome = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** correctness violations *)
  mutable acks_ms : float list;
  mutable sets_acked : int;
  mutable frames_acked : int;
  mutable ingest_secs : float;  (** bulk_ingest's pipeline phase *)
  mutable reads : read list;
  mutable read_secs : float;  (** bulk_ingest's read rounds *)
  mutable loop_secs : float;
}

let problem o fmt = Printf.ksprintf (fun s -> o.problems <- s :: o.problems) fmt

exception Missed_reply

let connect port =
  match Rpc.connect ~proto:Rpc.V2 ~host:"127.0.0.1" ~port ~timeout:reply_budget () with
  | Ok c -> c
  | Error e -> failwith ("connect to coordinator: " ^ Rpc.describe_connect_error e)

let send o conn req =
  o.attempted <- o.attempted + 1;
  Trace.span "client.encode" (fun () -> Rpc.stage conn req);
  match Trace.span "client.send" (fun () -> Rpc.flush_staged conn) with
  | Ok () -> ()
  | Error e ->
    o.failed <- o.failed + 1;
    problem o "send failed: %s" e;
    raise Missed_reply

let recv o conn =
  match
    Trace.span "client.wait" (fun () ->
        Rpc.recv_timeout ~deadline:(Unix.gettimeofday () +. reply_budget) conn)
  with
  | Ok r -> r
  | Error e ->
    o.failed <- o.failed + 1;
    problem o "reply missing: %s" (Rpc.describe_recv_error e);
    raise Missed_reply

let open_sessions conn (gen : Gen.t) =
  Array.iter
    (fun session ->
      match
        Rpc.call conn
          (P.Open
             {
               session;
               family = P.Rect;
               epsilon = Gen.epsilon;
               delta = Gen.delta;
               log2_universe = Gen.log2_universe;
             })
      with
      | Ok (P.Ok_reply _) -> ()
      | Ok r -> failwith ("OPEN " ^ session ^ ": " ^ P.render_response r)
      | Error e -> failwith ("OPEN " ^ session ^ ": " ^ e))
    gen.sessions

let addb (gen : Gen.t) tr i =
  let f = Gen.frame_of tr i in
  P.Add_batch
    {
      session = gen.sessions.(f.session);
      payloads = Array.to_list (Array.map (fun (s : Gen.set) -> s.line) f.sets);
      ts = Some f.ts;
    }

let check_ack o = function
  | P.Ok_batch { accepted; errors = [] } when accepted = Gen.batch -> ()
  | P.Error_reply _ as r ->
    o.failed <- o.failed + 1;
    problem o "ADDB refused: %s" (P.render_response r)
  | r -> problem o "ADDB not wholly accepted: %s" (P.render_response r)

let count_failure o = function
  | P.Error_reply _ | P.Estimate { degraded = true; _ } | P.Expr_reply { degraded = true; _ } ->
    o.failed <- o.failed + 1
  | _ -> ()

(* The read rotation: read [r] (0-based over the run) is EST, WIN, EXPR in
   turn, each verb walking the sessions. *)
let read_request (gen : Gen.t) ~r ~at ~window =
  let n = Array.length gen.sessions in
  let session = r / 3 mod n in
  match r mod 3 with
  | 0 -> (Est, session, None, neg_infinity, P.Est { session = gen.sessions.(session) })
  | 1 ->
    (Win, session, None, at -. window, P.Win { session = gen.sessions.(session); seconds = window; at = Some at })
  | _ ->
    let name k = gen.sessions.((session + k) mod n) in
    let expr = Delphic_stream.Parsers.expr_of_string (Gen.expr_text gen (name 0) (name 1) (name 2)) in
    (Expr, session, Some expr, neg_infinity, P.Expr { expr; m = None; w = None })

let do_read o conn gen ~r ~frames_done ~at ~window =
  let verb, session, expr, cutoff, req = read_request gen ~r ~at ~window in
  let t0 = Unix.gettimeofday () in
  send o conn req;
  let reply = recv o conn in
  let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  count_failure o reply;
  o.reads <- { verb; session; expr; frames_done; cutoff; reply; ms } :: o.reads

let new_outcome () =
  {
    attempted = 0;
    failed = 0;
    problems = [];
    acks_ms = [];
    sets_acked = 0;
    frames_acked = 0;
    ingest_secs = 0.0;
    reads = [];
    read_secs = 0.0;
    loop_secs = 0.0;
  }

(* bulk_ingest's read phase: this many rounds of EST, WIN and EXPR on every
   session.  The first round pays the replica-log materialisation, later
   rounds find the cluster unchanged. *)
let bulk_read_rounds = 3

(* bulk_ingest: pipeline for two thirds of [seconds], then the read rounds,
   which take about the last third on a 2-core host.  WIN cuts at the
   middle of the logical time sent. *)
let run_bulk o conn (gen : Gen.t) tr ~seconds =
  let sent = Queue.create () in
  let next = ref 0 in
  let t0 = Unix.gettimeofday () in
  let t_end = t0 +. (seconds *. 2.0 /. 3.0) in
  let rec loop () =
    while Queue.length sent < in_flight && Unix.gettimeofday () < t_end do
      send o conn (addb gen tr !next);
      Queue.push (Unix.gettimeofday ()) sent;
      incr next
    done;
    if not (Queue.is_empty sent) then begin
      let reply = recv o conn in
      let t_sent = Queue.pop sent in
      o.acks_ms <- ((Unix.gettimeofday () -. t_sent) *. 1000.0) :: o.acks_ms;
      check_ack o reply;
      o.frames_acked <- o.frames_acked + 1;
      o.sets_acked <- o.sets_acked + Gen.batch;
      loop ()
    end
  in
  loop ();
  o.ingest_secs <- Unix.gettimeofday () -. t0;
  let frames_done = !next in
  let at = (Gen.frame_of tr (frames_done - 1)).ts in
  let window = Float.round (at /. 2.0) in
  let t1 = Unix.gettimeofday () in
  for r = 0 to (bulk_read_rounds * 3 * Array.length gen.sessions) - 1 do
    do_read o conn gen ~r ~frames_done ~at ~window
  done;
  o.read_secs <- Unix.gettimeofday () -. t1;
  o.loop_secs <- Unix.gettimeofday () -. t0

(* live_mixed / read_heavy: one frame, wait for its OKB, then the reads. *)
let run_mixed o conn (gen : Gen.t) tr ~seconds =
  let t0 = Unix.gettimeofday () in
  let t_end = t0 +. seconds in
  let i = ref 0 and r = ref 0 in
  while Unix.gettimeofday () < t_end do
    let req = addb gen tr !i in
    let ts = Unix.gettimeofday () in
    send o conn req;
    let reply = recv o conn in
    let dt = Unix.gettimeofday () -. ts in
    o.acks_ms <- (dt *. 1000.0) :: o.acks_ms;
    check_ack o reply;
    o.frames_acked <- o.frames_acked + 1;
    o.sets_acked <- o.sets_acked + Gen.batch;
    let at = (Gen.frame_of tr !i).ts in
    incr i;
    for _ = 1 to gen.reads_per_frame do
      do_read o conn gen ~r:!r ~frames_done:!i ~at ~window:gen.window;
      incr r
    done
  done;
  o.loop_secs <- Unix.gettimeofday () -. t0

(* Drive [gen] against the coordinator at [port] for [seconds]; a missed
   reply ends the run early and is recorded as a problem. *)
let run ~port (gen : Gen.t) tr ~seconds =
  let o = new_outcome () in
  let conn = connect port in
  Fun.protect
    ~finally:(fun () -> Rpc.close conn)
    (fun () ->
      try
        match gen.kind with
        | Gen.Bulk_ingest -> run_bulk o conn gen tr ~seconds
        | Gen.Live_mixed | Gen.Read_heavy -> run_mixed o conn gen tr ~seconds
      with Missed_reply -> ());
  o.reads <- List.rev o.reads;
  o

(* ---- checks against exact truth, after the timed region ---- *)

type verdict = {
  checked : int;  (** EST/WIN answers compared with truth *)
  in_bound : int;  (** ... inside (1 +- eps) * truth *)
  rel_errs : float list;  (** |est/truth - 1| of EST/WIN answers *)
  expr_rel_errs : float list;
}

(* bulk_ingest's sessions never leave the exact regime, so its EST and WIN
   answers must equal the truth bit for bit and must not be DEGRADED.  The
   large-rectangle mixes are sketched: their answers feed the in-bound share
   and are not a gate (see README, defect D1). *)
let check o (gen : Gen.t) tr =
  let exact = gen.kind = Gen.Bulk_ingest in
  let checked = ref 0 and in_bound = ref 0 and rel = ref [] and xrel = ref [] in
  List.iter
    (fun rd ->
      let truth () =
        match rd.verb with
        | Est -> Gen.union tr ~frames_done:rd.frames_done ~cutoff:neg_infinity [ rd.session ]
        | Win -> Gen.union tr ~frames_done:rd.frames_done ~cutoff:rd.cutoff [ rd.session ]
        | Expr -> Gen.expr_truth tr ~frames_done:rd.frames_done (Option.get rd.expr)
      in
      match (rd.verb, rd.reply) with
      | (Est | Win), P.Estimate { value; degraded; _ } ->
        let t = truth () in
        incr checked;
        let err = if t = 0.0 then Float.abs value else Float.abs ((value /. t) -. 1.0) in
        rel := err :: !rel;
        if err <= Gen.epsilon then incr in_bound;
        if exact && (value <> t || degraded) then
          problem o "%s %s: answered %s, exact %.0f" (verb_name rd.verb) gen.sessions.(rd.session)
            (P.render_response rd.reply) t
      | Expr, P.Expr_reply { value = Some v; _ } ->
        let t = truth () in
        xrel := (if t = 0.0 then Float.abs v else Float.abs ((v /. t) -. 1.0)) :: !xrel
      | Expr, P.Expr_reply { value = None; _ } -> ()
      | _, P.Error_reply _ -> if exact then problem o "%s: %s" (verb_name rd.verb) (P.render_response rd.reply)
      | _, r -> problem o "%s: unexpected reply %s" (verb_name rd.verb) (P.render_response r))
    o.reads;
  { checked = !checked; in_bound = !in_bound; rel_errs = !rel; expr_rel_errs = !xrel }
