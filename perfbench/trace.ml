(* Spans recorded around calls into the program's layers.

   A span is (id, parent, name, start, stop).  Spans are kept in memory and
   summarised when the run ends; a layer's self time is its duration minus
   the time covered by its direct children.  With tracing off, [span] is a
   plain call, so the untraced run pays nothing. *)

type span = { id : int; parent : int; name : string; start : float; stop : float }

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 1
let current = ref 0

let reset () =
  spans := [];
  next_id := 1;
  current := 0

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = !current in
    current := id;
    let start = Unix.gettimeofday () in
    let finish () =
      spans := { id; parent; name; start; stop = Unix.gettimeofday () } :: !spans;
      current := parent
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* Self time of every recorded span, in seconds, grouped by name. *)
let self_times () =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          ((s.stop -. s.start) +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    !spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self = s.stop -. s.start -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
      Hashtbl.replace by_name s.name
        (self :: Option.value ~default:[] (Hashtbl.find_opt by_name s.name)))
    !spans;
  by_name
