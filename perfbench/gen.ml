(* Workload inputs, made from the seed alone, and their exact answers.

   Every set is a 2-d rectangle line "x0 x1 y0 y1" (inclusive bounds) on a
   10^6 x 10^6 grid.  Answers are checked against Delphic_sets.Exact over
   the very rectangles the program was sent, parsed with the program's own
   line parser, so both sides agree on what a line means. *)

module Exact = Delphic_sets.Exact
module Rectangle = Delphic_sets.Rectangle
module Expr = Delphic_expr.Expr

type kind = Bulk_ingest | Live_mixed | Read_heavy

let kind_of_string = function
  | "bulk_ingest" -> Some Bulk_ingest
  | "live_mixed" -> Some Live_mixed
  | "read_heavy" -> Some Read_heavy
  | _ -> None

let kind_name = function
  | Bulk_ingest -> "bulk_ingest"
  | Live_mixed -> "live_mixed"
  | Read_heavy -> "read_heavy"

(* Session parameters of every workload.  The exact-regime capacity of a
   session is the VATIC bucket bound B*(lmax+1) at these parameters. *)
let epsilon = 0.2
let delta = 0.05
let log2_universe = 40.0
let grid = 1_000_000
let batch = 64

let exact_capacity =
  Delphic_core.Params.(bucket_bound (create ~epsilon ~delta ~log2_universe ()))

type set = { line : string; rect : Rectangle.t }

let make_set x0 x1 y0 y1 =
  let line = Printf.sprintf "%d %d %d %d" x0 x1 y0 y1 in
  { line; rect = Delphic_stream.Parsers.rectangle_of_line ~lineno:1 line }

let random_rect rng ~max_side =
  let side () = 1 + Random.State.int rng max_side in
  let w = side () and h = side () in
  let x0 = Random.State.int rng (grid - w + 1) and y0 = Random.State.int rng (grid - h + 1) in
  make_set x0 (x0 + w - 1) y0 (y0 + h - 1)

(* A frame is one client ADDB: [batch] sets into one session at one logical
   timestamp. *)
type frame = { session : int; ts : float; sets : set array }

type t = {
  kind : kind;
  sessions : string array;
  frame : int -> frame;  (** frame [i] of the stream; pure in [i] *)
  reads_per_frame : int;  (** 0: one read phase after the ingest *)
  window : float;  (** WIN seconds of the mixes, in logical time *)
  ack_tail : float;
  read_tail : float;
      (** the tail percentiles reported: the highest of p99/p90/p75/p50
          that leaves at least ten samples beyond it in a 30 s run here *)
}

(* bulk_ingest: 16 sessions, frames round-robin over them.  Each session
   owns a pool of tiny rectangles (side <= 3) whose union stays inside the
   exact capacity even if every cell were distinct; the pool is replayed in
   order to lengthen the run, so answers stay exact and are checked bit for
   bit.  Logical time advances by 1 per round of 16 frames. *)
let bulk ~seed =
  let n = 16 in
  let pool_size = min 2000 (exact_capacity * 9 / 10 / 9) in
  let pools =
    Array.init n (fun s ->
        let rng = Random.State.make [| seed; 1; s |] in
        Array.init pool_size (fun _ -> random_rect rng ~max_side:3))
  in
  let frame i =
    let session = i mod n and round = i / n in
    let start = round * batch in
    {
      session;
      ts = float_of_int round;
      sets = Array.init batch (fun j -> pools.(session).((start + j) mod pool_size));
    }
  in
  {
    kind = Bulk_ingest;
    sessions = Array.init n (Printf.sprintf "b%02d");
    frame;
    reads_per_frame = 0;
    window = 0.0;
    ack_tail = 0.99;
    read_tail = 0.75;
  }

(* live_mixed / read_heavy: sessions A, B, C of large rectangles (side up to
   20,000), so every session is in the sketch regime after its first frame.
   Frame i goes to session i mod 3 at logical time i; its sets depend only
   on (seed, i), so both mixes see the same sets. *)
let large ~seed kind =
  let frame i =
    let rng = Random.State.make [| seed; 2; i |] in
    { session = i mod 3; ts = float_of_int i; sets = Array.init batch (fun _ -> random_rect rng ~max_side:20_000) }
  in
  {
    kind;
    sessions = [| "A"; "B"; "C" |];
    frame;
    reads_per_frame = (if kind = Live_mixed then 1 else 16);
    window = 30.0;
    ack_tail = (if kind = Live_mixed then 0.9 else 0.5);
    read_tail = (if kind = Live_mixed then 0.75 else 0.9);
  }

let make kind ~seed = match kind with Bulk_ingest -> bulk ~seed | k -> large ~seed k

(* The read expression over sessions [a], [b], [c]. *)
let expr_text t a b c =
  match t.kind with
  | Bulk_ingest -> Printf.sprintf "(%s | %s) \\ %s" a b c
  | Live_mixed | Read_heavy -> Printf.sprintf "(%s & %s) \\ %s" a b c

(* ---- exact answers ---- *)

type truth = {
  t_gen : t;
  frames : (int, frame) Hashtbl.t;
  per_session : (string, Rectangle.t list) Hashtbl.t;
  memo : (string, float) Hashtbl.t;
}

let truth gen =
  { t_gen = gen; frames = Hashtbl.create 256; per_session = Hashtbl.create 64; memo = Hashtbl.create 256 }

let frame_of tr i =
  match Hashtbl.find_opt tr.frames i with
  | Some f -> f
  | None ->
    let f = tr.t_gen.frame i in
    Hashtbl.replace tr.frames i f;
    f

(* The distinct rectangles sent to session [s] in frames [0, frames_done)
   with ts >= cutoff; a replayed line is one rectangle. *)
let session_sets tr ~frames_done ~cutoff s =
  let key = Printf.sprintf "%d/%h/%d" frames_done cutoff s in
  match Hashtbl.find_opt tr.per_session key with
  | Some r -> r
  | None ->
    let seen = Hashtbl.create 4096 in
    let rects = ref [] in
    for i = 0 to frames_done - 1 do
      let f = frame_of tr i in
      if f.session = s && f.ts >= cutoff then
        Array.iter
          (fun x ->
            if not (Hashtbl.mem seen x.line) then begin
              Hashtbl.replace seen x.line ();
              rects := x.rect :: !rects
            end)
          f.sets
    done;
    Hashtbl.replace tr.per_session key !rects;
    !rects

(* |union of [sessions]' sets in frames [0, frames_done) with ts >= cutoff|. *)
let union tr ~frames_done ~cutoff sessions =
  let key =
    Printf.sprintf "%d/%h/%s" frames_done cutoff (String.concat "," (List.map string_of_int sessions))
  in
  match Hashtbl.find_opt tr.memo key with
  | Some v -> v
  | None ->
    let rects = List.concat_map (session_sets tr ~frames_done ~cutoff) sessions in
    let v = if rects = [] then 0.0 else Delphic_util.Bigint.to_float (Exact.rectangle_union rects) in
    Hashtbl.replace tr.memo key v;
    v

let session_index tr name =
  let rec go i = if tr.t_gen.sessions.(i) = name then i else go (i + 1) in
  go 0

(* |E| by inclusion-exclusion over leaf-subset unions: with f(Y) the count
   of union elements whose membership pattern lies inside Y,
   f(Y) = |U| - |union of the leaves outside Y|, and the count with pattern
   exactly T is the Moebius sum e(T) = sum_{Y subset T} (-1)^{|T|-|Y|} f(Y).
   |E| adds e(T) over the patterns T the expression accepts. *)
let expr_truth tr ~frames_done expr =
  let leaves = Array.of_list (Expr.leaves expr) in
  let k = Array.length leaves in
  let full = (1 lsl k) - 1 in
  let u mask =
    if mask = 0 then 0.0
    else
      union tr ~frames_done ~cutoff:neg_infinity
        (List.filter_map
           (fun i -> if mask land (1 lsl i) <> 0 then Some (session_index tr leaves.(i)) else None)
           (List.init k Fun.id))
  in
  let n = u full in
  let f y = n -. u (full land lnot y) in
  let popcount m =
    let rec go m c = if m = 0 then c else go (m land (m - 1)) (c + 1) in
    go m 0
  in
  let total = ref 0.0 in
  for t = 1 to full do
    let member name =
      let rec idx i = if leaves.(i) = name then i else idx (i + 1) in
      t land (1 lsl idx 0) <> 0
    in
    if Expr.eval_bool member expr then begin
      (* iterate the subsets y of t *)
      let y = ref t in
      let stop = ref false in
      while not !stop do
        let sign = if (popcount t - popcount !y) land 1 = 0 then 1.0 else -1.0 in
        total := !total +. (sign *. f !y);
        if !y = 0 then stop := true else y := (!y - 1) land t
      done
    end
  done;
  !total
