(* The daemon as a child process: the program's own
   [xcluster serve --socket unix:SOCK --synopsis xmark=SYN], from the
   same build as this executable, under its default configuration. The
   parent waits for readiness with Ping, stops it with a Shutdown frame
   and reaps it; [kill_all] stops any daemon still running when the
   benchmark exits. *)

module Serve = Xcluster.Serve
module Client = Serve.Client

(* _build/default/perfbench/main.exe -> _build/default/bin/xcluster.exe *)
let xcluster_exe () =
  let root = Filename.dirname (Filename.dirname Sys.executable_name) in
  Filename.concat (Filename.concat root "bin") "xcluster.exe"

type t = { pid : int; endpoint : Serve.Protocol.endpoint; mutable alive : bool }

let live : t list ref = ref []

let reap_or_kill t =
  if t.alive then begin
    let deadline = Clock.now () +. 10.0 in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] t.pid with
      | 0, _ when Clock.now () < deadline ->
        Unix.sleepf 0.01;
        wait ()
      | 0, _ ->
        (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] t.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    wait ();
    t.alive <- false;
    live := List.filter (fun u -> u != t) !live
  end

(* last-resort cleanup on any exit path *)
let kill_all () =
  List.iter
    (fun t ->
      (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
      reap_or_kill t)
    !live

let connect endpoint =
  match Client.connect ~timeout_s:60.0 endpoint with
  | Ok c -> c
  | Error e -> failwith ("connect: " ^ Serve.Error.to_string e)

let spawn ~syn ~sock =
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let exe = xcluster_exe () in
  (* the daemon's own stdout (its "listening" line) goes to our stderr,
     so the last line of standard output stays the JSON result *)
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--socket"; "unix:" ^ sock; "--synopsis"; Inputs.synopsis_name ^ "=" ^ syn |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let t = { pid; endpoint = Serve.Protocol.Unix_sock sock; alive = true } in
  live := t :: !live;
  let deadline = Clock.now () +. 30.0 in
  let rec ready () =
    match Client.connect ~timeout_s:5.0 t.endpoint with
    | Ok c -> (
      let r = Client.ping c in
      Client.close c;
      match r with
      | Ok _ -> t
      | Error _ when Clock.now () < deadline -> ready ()
      | Error e -> failwith ("daemon ping: " ^ Serve.Error.to_string e))
    | Error _ when Clock.now () < deadline ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
        t.alive <- false;
        failwith "daemon exited before accepting");
      Unix.sleepf 0.002;
      ready ()
    | Error e -> failwith ("daemon not accepting: " ^ Serve.Error.to_string e)
  in
  ready ()

let stop t =
  if t.alive then begin
    (match Client.connect ~timeout_s:10.0 t.endpoint with
    | Ok c ->
      ignore (Client.shutdown c);
      Client.close c
    | Error _ -> (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ()));
    reap_or_kill t
  end

(* VmHWM of a process, in MB *)
let peak_rss_mb pid =
  let file = Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid) in
  match open_in file with
  | exception Sys_error _ -> Float.nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.0)
      | _ -> scan ()
      | exception End_of_file -> Float.nan
    in
    let v = scan () in
    close_in ic;
    v

(* Ticks the host took from this machine's CPUs (steal) and all ticks,
   from the first line of /proc/stat; a run record reports the stolen
   share, which explains a run that is slow for reasons outside it. *)
let cpu_ticks () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> None
  | ic ->
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | "cpu" :: user :: nice :: system :: idle :: iowait :: irq :: softirq :: steal :: _ -> (
      let ts = List.map int_of_string_opt [ user; nice; system; idle; iowait; irq; softirq; steal ] in
      match List.rev ts with
      | Some steal :: _ when List.for_all Option.is_some ts ->
        Some (steal, List.fold_left (fun a t -> a + Option.get t) 0 ts)
      | _ -> None)
    | _ -> None

let steal_pct before after =
  match before, after with
  | Some (s0, t0), Some (s1, t1) when t1 > t0 -> 100.0 *. float_of_int (s1 - s0) /. float_of_int (t1 - t0)
  | _ -> Float.nan

(* CPU time a process has used, in seconds: utime + stime of
   /proc/PID/stat, in the kernel's 100 Hz ticks. The host's steal is
   not in it. *)
let cpu_s pid =
  match open_in (Printf.sprintf "/proc/%d/stat" pid) with
  | exception Sys_error _ -> Float.nan
  | ic ->
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    (* fields after the ")" closing the command name: state is field 3,
       utime and stime are fields 14 and 15 *)
    match String.rindex_opt line ')' with
    | None -> Float.nan
    | Some i -> (
      let fields =
        List.filter (( <> ) "") (String.split_on_char ' ' (String.sub line (i + 1) (String.length line - i - 1)))
      in
      match List.filteri (fun k _ -> k = 11 || k = 12) fields with
      | [ u; s ] -> (
        match float_of_string_opt u, float_of_string_opt s with
        | Some u, Some s -> (u +. s) /. 100.0
        | _ -> Float.nan)
      | _ -> Float.nan)

(* ---- reading the daemon's metrics snapshot -----------------------------
   [Client.stats] returns Metrics.to_json:
   {"counters":{..},"timers":{"n":{"count":..,"total_ms":..}},
    "histograms":{"n":{"count":..,"min":..,"mean":..,"p50":..}}} *)

let find_from s sub i =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then None
    else if String.sub s i n = sub then Some (i + n)
    else go (i + 1)
  in
  go i

let number_at s i =
  let j = ref i in
  while
    !j < String.length s
    && (match s.[!j] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false)
  do
    incr j
  done;
  float_of_string_opt (String.sub s i (!j - i))

(* the text of one top-level section, up to the next one *)
let section json name =
  match find_from json (Printf.sprintf "\"%s\":{" name) 0 with
  | None -> ""
  | Some i ->
    let ends =
      List.filter_map
        (fun next -> find_from json (Printf.sprintf "\"%s\":{" next) i)
        [ "counters"; "timers"; "histograms" ]
    in
    String.sub json i (List.fold_left Int.min (String.length json) ends - i)

(* [stat json sec name field]: the numeric [field] of [name] in the
   timers or histograms section, or the counter itself ([field = ""]);
   0 when absent (a counter never bumped is not rendered) *)
let stat json sec name field =
  let s = section json sec in
  let v =
    Option.bind (find_from s (Printf.sprintf "\"%s\":" name) 0) (fun j ->
        if field = "" then number_at s j
        else Option.bind (find_from s (Printf.sprintf "\"%s\":" field) j) (number_at s))
  in
  Option.value v ~default:0.0

let stats endpoint =
  let c = connect endpoint in
  let r = Client.stats c in
  Client.close c;
  match r with Ok j -> j | Error e -> failwith ("stats: " ^ Serve.Error.to_string e)
