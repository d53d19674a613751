(* Spawning the served cluster — one `delphic coord` over two
   `delphic worker --wal` processes — and tearing it down on every exit path.

   Every child and every directory made for it is registered here the moment
   it exists; [reap_all] (installed with [at_exit] and on SIGINT/SIGTERM by
   the main program) kills and waits for every child and removes every
   directory, so a failed check or an exception never leaves a server running
   to skew the next run. *)

let binary = Filename.concat "_build" (Filename.concat "default" (Filename.concat "bin" "main.exe"))

(* Run directories live inside the checkout; the root .gitignore names it. *)
let run_root = ".perfbench-run"

type proc = { pid : int; out : Unix.file_descr; label : string; log : string }

let live : proc list ref = ref []
let dirs : string list ref = ref []

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let fresh_dir =
  let n = ref 0 in
  fun label ->
    incr n;
    let d =
      Filename.concat run_root (Printf.sprintf "%d-%d-%s" (Unix.getpid ()) !n label)
    in
    rm_rf d;
    mkdir_p d;
    dirs := d :: !dirs;
    d

let stop p =
  (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] p.pid) with Unix.Unix_error _ -> ());
  (try Unix.close p.out with Unix.Unix_error _ -> ());
  live := List.filter (fun q -> q.pid <> p.pid) !live

let reap_all () =
  List.iter stop !live;
  List.iter (fun d -> try rm_rf d with _ -> ()) !dirs;
  dirs := [];
  (try Unix.rmdir run_root with Unix.Unix_error _ -> ())

let tail_of file =
  try
    let ic = open_in_bin file in
    let n = in_channel_length ic in
    let k = min n 2000 in
    seek_in ic (n - k);
    let s = really_input_string ic k in
    close_in ic;
    s
  with Sys_error _ -> ""

exception Spawn_failed of string

(* Start [args] with stdout on a pipe and stderr in [dir]/[label].log, and
   wait (bounded) for the "listening on HOST:PORT" banner; returns the port
   the process bound, which was requested as -p 0. *)
let spawn ~dir ~label args =
  let log = Filename.concat dir (label ^ ".log") in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Fun.protect
      ~finally:(fun () -> List.iter Unix.close [ err; null; out_w ])
      (fun () -> Unix.create_process binary (Array.of_list (binary :: args)) null out_w err)
  in
  let p = { pid; out = out_r; label; log } in
  live := p :: !live;
  let deadline = Unix.gettimeofday () +. 30.0 in
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 256 in
  let fail why = raise (Spawn_failed (Printf.sprintf "%s: %s\n%s" label why (tail_of log))) in
  let marker = "listening on " in
  let rec port_of_banner () =
    let s = Buffer.contents buf in
    match String.index_opt s '\n' with
    | None -> None
    | Some nl -> (
      let line = String.sub s 0 nl in
      Buffer.clear buf;
      Buffer.add_string buf (String.sub s (nl + 1) (String.length s - nl - 1));
      let m = String.length marker in
      let rec find i =
        if i + m > String.length line then None
        else if String.sub line i m = marker then Some (i + m)
        else find (i + 1)
      in
      match find 0 with
      | None -> port_of_banner ()
      | Some i ->
        let rest = String.sub line i (String.length line - i) in
        let addr = List.hd (String.split_on_char ' ' rest) in
        let addr = List.hd (String.split_on_char ',' addr) in
        let colon = String.rindex addr ':' in
        Some (int_of_string (String.sub addr (colon + 1) (String.length addr - colon - 1))))
  in
  let rec wait () =
    match port_of_banner () with
    | Some port -> port
    | None ->
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0.0 then fail "no listening banner within 30 s";
      (match Unix.select [ out_r ] [] [] left with
      | [], _, _ -> ()
      | _ ->
        let n = Unix.read out_r chunk 0 (Bytes.length chunk) in
        if n = 0 then fail "exited before listening";
        Buffer.add_subbytes buf chunk 0 n);
      wait ()
  in
  (p, wait ())

type cluster = {
  dir : string;
  coord : proc;
  coord_port : int;
  workers : (proc * int) list;
}

(* Two journalled workers, then the coordinator over them.  [coord_flags]
   and [worker_flags] are the deployment flags recorded in BENCHMARK.json. *)
let start_workers ~dir ~worker_flags n =
  List.init n (fun i ->
      let label = Printf.sprintf "worker%d" i in
      let wdir = Filename.concat dir label in
      mkdir_p wdir;
      spawn ~dir ~label
        ([ "worker"; "-p"; "0"; "--wal"; Filename.concat wdir "wal"; "--spool";
           Filename.concat wdir "spool" ]
        @ worker_flags))

let start ~coord_flags ~worker_flags () =
  let dir = fresh_dir "cluster" in
  let workers = start_workers ~dir ~worker_flags 2 in
  let addrs =
    String.concat "," (List.map (fun (_, port) -> Printf.sprintf "127.0.0.1:%d" port) workers)
  in
  let coord, coord_port =
    spawn ~dir ~label:"coord" ([ "coord"; "-p"; "0"; "-w"; addrs ] @ coord_flags)
  in
  { dir; coord; coord_port; workers }

(* Peak resident set (VmHWM) of a live process, in MB. *)
let peak_rss_mb p =
  try
    let ic = open_in (Printf.sprintf "/proc/%d/status" p.pid) in
    let rec scan () =
      match input_line ic with
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
      | _ -> scan ()
      | exception End_of_file -> nan
    in
    let v = scan () in
    close_in ic;
    v
  with Sys_error _ -> nan

let stop_cluster c =
  stop c.coord;
  List.iter (fun (p, _) -> stop p) c.workers;
  rm_rf c.dir;
  dirs := List.filter (( <> ) c.dir) !dirs
