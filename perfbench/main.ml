(* The repository benchmark.

     bash perfbench/run.sh --workload serve_hot|build
                           --seed N --seconds S --trace 0|1

   builds this checkout and runs one workload on XMark generated from
   the seed (scale 1.0, the paper's ~200k elements). With --trace 0 it
   prints the end-to-end metrics; with --trace 1 the per-layer metrics
   and the per-layer span table, and writes the spans to
   .bench_build/perfbench/. The last line of standard output is one
   JSON object {"correct","attempted","failed","metrics"}. Every served
   answer and every rebuilt synopsis is checked against the oracle; any
   mismatch makes the exit code 1. --selfcheck tests the order-statistic
   helpers and smoke-runs every workload. *)

open Phases

let e2e_metrics =
  [ ("est_per_s", "1/s"); ("req_p50_us", "us"); ("peak_rss_mb", "MB"); ("setup_s", "s") ]

let layer_metrics =
  [ ("build_s", "s"); ("est_rel_error", "ratio"); ("xml.parse_s", "s"); ("reference.build_s", "s"); ("reference.clusters", "count");
    ("build.compress_s", "s"); ("build.phase1_s", "s"); ("build.phase2_s", "s");
    ("pool.cand_evals", "count"); ("build.compression_steps", "count");
    ("codec.save_ms", "ms"); ("codec.load_ms", "ms");
    ("update.apply_ms", "ms"); ("update.p50_ms", "ms"); ("update.p90_ms", "ms"); ("update.repair_widened", "count");
    ("registry.swap_ms", "ms"); ("serve.swap_us", "us");
    ("plan.mat_build_ms", "ms"); ("plan.mat_builds", "count");
    ("twig.parse_us", "us"); ("registry.engine_us", "us"); ("plan.prepare_us", "us");
    ("plan.run_us", "us"); ("plan.cohorts", "count");
    ("plan.query_hit_ratio", "ratio"); ("plan.query_hits", "count");
    ("plan.query_misses", "count"); ("protocol.codec_us", "us");
    ("serve.round_trip_us", "us"); ("serve.req_p90_us", "us"); ("serve.req_p99_us", "us");
    ("serve.daemon_cpu_us", "us"); ("serve.ping_idle_us", "us");
    ("serve.ping_loaded_us", "us"); ("serve.unattributed_us", "us");
    ("serve.first_request_ms", "ms"); ("serve.distinct_text_share", "ratio");
    ("trace.overhead_pct", "%"); ("trace.spans", "count") ]

let workloads = [ "serve_hot"; "build" ]

(* A run is a series of rounds, each on a freshly built synopsis: a
   serve_hot round is one set-up (a full build, the daemon started and
   warmed) served for [seconds / serve_rounds]; a build round is one
   timed build served for [build_serve_s]. Every round ends with
   [round_ticks] idle updates. Spread over the whole run this way, a
   slow spell of the host reaches only a few rounds, which the run's
   medians pass over. *)
let serve_rounds = 6
let build_serve_s = 1.2
let round_ticks = 10
let build_setup_reps = 10

(* ---- run record ------------------------------------------------------------ *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Some (String.trim s)

let commit () =
  match read_file ".git/HEAD" with
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
    let r = String.sub head 5 (String.length head - 5) in
    match read_file (Filename.concat ".git" r) with
    | Some c -> c
    | None -> (
      match read_file ".git/packed-refs" with
      | Some packed ->
        List.fold_left
          (fun acc line ->
            match String.split_on_char ' ' line with
            | [ c; name ] when name = r -> c
            | _ -> acc)
          "unknown" (String.split_on_char '\n' packed)
      | None -> "unknown"))
  | Some c -> c
  | None -> "unknown (not a git checkout)"

let env name = Option.value (Sys.getenv_opt name) ~default:"unset (program default)"

(* ---- one workload run ------------------------------------------------------- *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let out_dir = Filename.concat ".bench_build" "perfbench"

(* Before each timed repetition: collect the previous repetition's
   garbage, so every repetition starts from the same heap. *)
let settle () = Gc.full_major ()

(* Serve set-up: document, XML text, a full build, the daemon started
   on the artifact and warmed. *)
let setup_serve st =
  stop_daemon st;
  settle ();
  let t0 = Clock.now () in
  let syn, loaded, live =
    Trace.span "setup" (fun parent ->
        let doc = layer ~parent "xmark.generate" (fun _ -> Inputs.document ~seed:st.seed ~scale:st.scale) in
        let xml = layer ~parent "xml.write" (fun _ -> Xc_xml.Writer.to_string doc) in
        let t_build = Clock.now () in
        let syn, loaded, live, path = build_once ~parent st ~live:true xml in
        note "build_s" (Clock.since t_build);
        start_daemon ~parent st path;
        (syn, loaded, live))
  in
  note "setup_s" (Clock.since t0);
  check_build st syn loaded;
  (syn, live)

let setup_build st =
  let xml = ref "" in
  for _ = 1 to build_setup_reps do
    settle ();
    let t0 = Clock.now () in
    Trace.span "setup" (fun parent ->
        let doc = layer ~parent "xmark.generate" (fun _ -> Inputs.document ~seed:st.seed ~scale:st.scale) in
        xml := layer ~parent "xml.write" (fun _ -> Xc_xml.Writer.to_string doc));
    note "setup_s" (Clock.since t0)
  done;
  !xml

(* The measured serving phase. Traced runs first repeat it untraced
   for half the time, so the tracing overhead can be reported. *)
let measured_serve st ~seconds ~traced =
  let run ~tracing seconds =
    settle ();
    Trace.on := tracing;
    let r = serve_phase st ~clients:2 ~seconds ~traced:tracing in
    Trace.on := traced;
    r
  in
  if traced then
    let plain = run ~tracing:false (seconds /. 2.0) in
    (Some plain, run ~tracing:true seconds)
  else (None, run ~tracing:false seconds)

type outcome = {
  serve : serve_result;
  untraced : serve_result option;  (* traced runs: the untraced comparison *)
  rss_mb : float;
  rel_error : float;
}

(* The rounds' serving phases, as one *)
type acc = { mutable served : serve_result option; mutable plain : serve_result option }

let add acc (plain, served) =
  let m a b = match a with None -> Some b | Some a -> Some (merge a b) in
  acc.served <- m acc.served served;
  Option.iter (fun u -> acc.plain <- m acc.plain u) plain

(* One round on the daemon a set-up started on [syn], whose live
   builder is [live]: idle pings, the serving phase, the update ticks
   from the first, the newest generation checked; the daemon is stopped
   after. Returns the daemon's peak RSS. *)
let serve_round st acc ~syn ~live ~seconds ~traced =
  st.live <- live;
  st.served <- Some syn;
  st.newest <- Some syn;
  st.next_tick <- 0;
  st.oracle <- Array.map (Inputs.oracle syn) st.pool.Inputs.texts;
  ping_idle st 40;
  add acc (measured_serve st ~seconds ~traced);
  settle ();
  idle_ticks st round_ticks;
  check_newest st;
  let d = daemon st in
  note "serve.swap_us" (Proc.stat (Proc.stats d.Proc.endpoint) "histograms" "serve.swap_us" "p50");
  let rss = Proc.peak_rss_mb d.Proc.pid in
  stop_daemon st;
  rss

let finish st acc ~traced ~rss_mb =
  let serve = get "serving phase" acc.served in
  if traced then replay st (replay_selection st serve.logs);
  let rel_error = if traced then rel_error st (get "served synopsis" st.served) else Float.nan in
  { serve; untraced = acc.plain; rss_mb; rel_error }

let run_serve st ~seconds ~traced =
  let acc = { served = None; plain = None } in
  let rss =
    List.init serve_rounds (fun _ ->
        let syn, live = setup_serve st in
        serve_round st acc ~syn ~live ~seconds:(seconds /. float_of_int serve_rounds) ~traced)
  in
  finish st acc ~traced ~rss_mb:(Clock.median (Array.of_list rss))

(* Builds until they have taken [seconds]; each is then served and
   updated on a daemon of its own. *)
let run_build st ~seconds ~traced =
  let xml = setup_build st in
  let acc = { served = None; plain = None } in
  let built = ref 0.0 in
  while !built < seconds do
    settle ();
    let t0 = Clock.now () in
    let syn, loaded, live, path = build_once st ~live:true xml in
    let dt = Clock.since t0 in
    note "build_s" dt;
    built := !built +. dt;
    check_build st syn loaded;
    start_daemon st path;
    ignore (serve_round st acc ~syn ~live ~seconds:build_serve_s ~traced)
  done;
  finish st acc ~traced ~rss_mb:(Proc.peak_rss_mb 0)

(* ---- metrics ------------------------------------------------------------------ *)

let e2e_values o =
  [ ("est_per_s", est_per_s o.serve);
    ("req_p50_us", Clock.median o.serve.lat);
    ("peak_rss_mb", o.rss_mb);
    ("setup_s", median_of "setup_s") ]

let layer_values o =
  let s = o.serve in
  let n_requests = float_of_int (Int.max 1 (Array.length s.lat)) in
  let ms name = median_of name *. 1e3 and us name = median_of name *. 1e6 in
  let round_trip = Clock.median s.lat in
  (* a loaded Ping is the transport floor plus the wait for the
     dispatch lock and queue, which a batch request pays too *)
  let parts =
    [ "serve.ping_loaded"; "protocol.codec"; "twig.parse"; "registry.engine"; "plan.prepare"; "plan.run" ]
  in
  let plain = match o.untraced with Some u -> est_per_s u | None -> est_per_s s in
  [ ("build_s", median_of "build_s");
    ("est_rel_error", o.rel_error);
    ("xml.parse_s", median_of "xml.parse");
    ("reference.build_s", median_of "reference.build");
    ("reference.clusters", median_of "reference.clusters");
    ("build.compress_s", median_of "build.compress");
    ("build.phase1_s", median_of "build.phase1");
    ("build.phase2_s", median_of "build.phase2");
    ("pool.cand_evals", median_of "pool.cand_evals");
    ("build.compression_steps", median_of "build.compression_steps");
    ("codec.save_ms", ms "codec.save");
    ("codec.load_ms", ms "codec.load");
    ("update.apply_ms", ms "update.apply");
    ("update.p50_ms", Clock.percentile (sampled "update") 0.5 *. 1e3);
    ("update.p90_ms", Clock.percentile (sampled "update") 0.9 *. 1e3);
    ("update.repair_widened", sum_of "update.repair_widened");
    ("registry.swap_ms", ms "registry.swap");
    ("serve.swap_us", median_of "serve.swap_us");
    ("plan.mat_build_ms", median_of "plan.mat_build_ms");
    ("plan.mat_builds", median_of "plan.mat_builds");
    ("twig.parse_us", us "twig.parse");
    ("registry.engine_us", us "registry.engine");
    ("plan.prepare_us", us "plan.prepare");
    ("plan.run_us", us "plan.run");
    ("plan.cohorts", s.cohorts /. n_requests);
    ("plan.query_hit_ratio", s.hits /. Float.max 1.0 (s.hits +. s.misses));
    ("plan.query_hits", s.hits);
    ("plan.query_misses", s.misses);
    ("protocol.codec_us", us "protocol.codec");
    ("serve.round_trip_us", round_trip);
    ("serve.req_p90_us", Clock.percentile s.lat 0.9);
    ("serve.req_p99_us", Clock.percentile s.lat 0.99);
    ("serve.daemon_cpu_us", s.daemon_cpu_s *. 1e6 /. n_requests);
    ("serve.ping_idle_us", us "serve.ping_idle");
    ("serve.ping_loaded_us", us "serve.ping_loaded");
    ("serve.unattributed_us",
     round_trip -. List.fold_left (fun a p -> a +. us p) 0.0 parts);
    ("serve.first_request_ms", ms "serve.first_request");
    ("serve.distinct_text_share", float_of_int (Hashtbl.length s.seen) /. float_of_int (Int.max 1 s.sent));
    ("trace.overhead_pct", 100.0 *. (plain -. est_per_s s) /. plain);
    ("trace.spans", float_of_int (Trace.count ())) ]

let print_result ~metrics =
  let units = e2e_metrics @ layer_metrics in
  let fields =
    List.map
      (fun (name, v) ->
        if not (Float.is_finite v) then fail "metric %s was not measured" name;
        Printf.sprintf "%S:{\"value\":%.17g,\"unit\":%S}" name
          (if Float.is_finite v then v else 0.0) (List.assoc name units))
      metrics
  in
  let correct = Atomic.get failed = 0 in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!" correct
    (Atomic.get attempted) (Atomic.get failed) (String.concat "," fields);
  correct

let run ~workload ~seed ~seconds ~traced ~scale =
  let dir = Filename.concat out_dir (Printf.sprintf "%s-%d-%d" workload seed (Unix.getpid ())) in
  mkdir_p dir;
  Trace.on := traced;
  let ticks0 = Proc.cpu_ticks () in
  let t_pool = Clock.now () in
  let pool = Inputs.pool ~seed ~scale in
  let pool_s = Clock.since t_pool in
  let ticks = Inputs.update_ticks ~seed ~per_tick:16 ~ticks:round_ticks (Inputs.document ~seed ~scale) in
  let st =
    { seed; scale; dir; pool; ticks; live = None; served = None; newest = None;
      oracle = [||]; daemon = None; files = 0; next_tick = 0 }
  in
  let o =
    match workload with
    | "serve_hot" -> run_serve st ~seconds ~traced
    | _ -> run_build st ~seconds ~traced
  in
  let attempted = Atomic.get attempted and failed = Atomic.get failed in
  let failed_frac = float_of_int failed /. float_of_int (Int.max 1 attempted) in
  Printf.printf
    "run: {\"workload\":%S,\"seed\":%d,\"scale\":%g,\"pool_scale\":%g,\"seconds\":%g,\"trace\":%b,\"nproc\":%d,\"ocaml\":%S,\"commit\":%S,\"XC_DOMAINS\":%S,\"XC_SERVE_WORKERS\":%S,\"pool_s\":%.3f,\"setup_reps\":%d,\"builds\":%d,\"failed_frac\":%g,\"host_steal_pct\":%s}\n"
    workload seed scale (Inputs.pool_scale scale) seconds traced (Domain.recommended_domain_count ()) Sys.ocaml_version
    (commit ()) (env "XC_DOMAINS") (env "XC_SERVE_WORKERS") pool_s (Array.length (sampled "setup_s")) (Array.length (sampled "build_s"))
    failed_frac
    (let p = Proc.steal_pct ticks0 (Proc.cpu_ticks ()) in
     if Float.is_finite p then Printf.sprintf "%.2f" p else "null");
  let e2e = e2e_values o in
  if not traced then begin
    Printf.printf "end-to-end (requests %d, update ticks %d, builds %d, setups %d):\n"
      (Array.length o.serve.lat) (Array.length (sampled "update")) (Array.length (sampled "build_s"))
      (Array.length (sampled "setup_s"));
    List.iter
      (fun (name, v) -> Printf.printf "  %-24s %14.4f %s\n" name v (List.assoc name e2e_metrics))
      e2e;
    Printf.printf "  %-24s %14.4f %s\n" "failed_frac" failed_frac "ratio";
    Printf.printf "  round trips (us): p25 %.1f p50 %.1f p75 %.1f p90 %.1f p99 %.1f; daemon cpu %.3f s\n"
      (Clock.percentile o.serve.lat 0.25) (Clock.percentile o.serve.lat 0.5)
      (Clock.percentile o.serve.lat 0.75) (Clock.percentile o.serve.lat 0.9)
      (Clock.percentile o.serve.lat 0.99) o.serve.daemon_cpu_s;
    Printf.printf "  distinct query texts: %d of %d sent\n" (Hashtbl.length o.serve.seen) o.serve.sent;
    List.iter
      (fun name ->
        Printf.printf "  %s samples: %s\n" name
          (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") (sampled name)))))
      [ "build_s"; "setup_s"; "update" ]
  end;
  let metrics =
    if traced then begin
      let layers = layer_values o in
      let v name = List.assoc name layers in
      Printf.printf "tracing overhead: untraced %.0f est/s, traced %.0f est/s (%.2f%%); failed_frac %g\n"
        (match o.untraced with Some u -> est_per_s u | None -> Float.nan)
        (est_per_s o.serve) (v "trace.overhead_pct") failed_frac;
      Printf.printf "per-request attribution (medians, us):\n";
      List.iter
        (fun (label, x) -> Printf.printf "  %-42s %10.1f\n" label x)
        [ ("client round trip", v "serve.round_trip_us");
          ("Ping floor, idle daemon", v "serve.ping_idle_us");
          ("lock and queue wait (loaded Ping - idle)", v "serve.ping_loaded_us" -. v "serve.ping_idle_us");
          ("protocol encode/decode", v "protocol.codec_us");
          ("twig.parse", v "twig.parse_us");
          ("registry.engine", v "registry.engine_us");
          ("plan.prepare (without matrix builds)", v "plan.prepare_us");
          ("plan.run", v "plan.run_us");
          ("unattributed", v "serve.unattributed_us") ];
      Printf.printf "  matrix builds of the served generation: %.1f ms (%g builds)\n"
        (v "plan.mat_build_ms") (v "plan.mat_builds");
      Printf.printf "  query cache: %g hits, %g misses; distinct query texts: %d of %d sent\n"
        (v "plan.query_hits") (v "plan.query_misses") (Hashtbl.length o.serve.seen) o.serve.sent;
      Printf.printf "per-layer spans (self = duration minus child spans):\n";
      Printf.printf "  %-26s %8s %14s %14s %14s\n" "span" "n" "median_us" "self_med_us" "self_total_ms";
      List.iter
        (fun (name, n, dmed, smed, stot) ->
          Printf.printf "  %-26s %8d %14.2f %14.2f %14.3f\n" name n dmed smed (stot /. 1e3))
        (Trace.table (Trace.all ()));
      Printf.printf "per-layer metrics:\n";
      List.iter
        (fun (name, v) -> Printf.printf "  %-28s %14.4f %s\n" name v (List.assoc name layer_metrics))
        layers;
      let file = Filename.concat out_dir (Printf.sprintf "trace-%s-%d.jsonl" workload seed) in
      Trace.write file;
      Printf.printf "spans written to %s\n" file;
      layers
    end
    else e2e
  in
  Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ()) (Sys.readdir dir);
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  print_result ~metrics

(* ---- self-check ------------------------------------------------------------------ *)

let selfcheck () =
  let ok = ref true in
  let expect what cond =
    if not cond then begin
      ok := false;
      Printf.printf "selfcheck FAILED: %s\n%!" what
    end
  in
  let close a b = Float.abs (a -. b) < 1e-9 in
  let ten = Array.init 10 (fun i -> float_of_int (i + 1)) in
  expect "p50 of 1..10" (close (Clock.percentile ten 0.5) 5.5);
  expect "p90 of 1..10" (close (Clock.percentile ten 0.9) 9.1);
  expect "p99 of 1..10" (close (Clock.percentile ten 0.99) 9.91);
  expect "p0 / p100" (close (Clock.percentile ten 0.0) 1.0 && close (Clock.percentile ten 1.0) 10.0);
  expect "p40 of unsorted sample" (close (Clock.percentile [| 50.; 15.; 40.; 20.; 35. |] 0.4) 29.0);
  expect "single sample" (close (Clock.percentile [| 7.0 |] 0.99) 7.0);
  expect "empty sample" (Float.is_nan (Clock.median [||]));
  expect "interquartile mean of 1..10" (close (Clock.interquartile_mean ten) 5.5);
  expect "interquartile mean drops the outlier" (close (Clock.interquartile_mean [| 100.; 1.; 3.; 2. |]) 2.5);
  expect "interquartile mean of one sample" (close (Clock.interquartile_mean [| 7.0 |]) 7.0);
  (* the metric names BENCHMARK.json declares are the ones emitted *)
  let names_in text =
    let rec go i acc =
      match Proc.find_from text "\"name\": \"" i with
      | None -> List.rev acc
      | Some j ->
        let k = String.index_from text j '"' in
        go k (String.sub text j (k - j) :: acc)
    in
    go 0 []
  in
  (match read_file "BENCHMARK.json" with
  | None -> expect "BENCHMARK.json readable" false
  | Some text ->
    let declared = names_in text in
    let metrics = List.map fst (e2e_metrics @ layer_metrics) in
    List.iter (fun n -> expect ("BENCHMARK.json declares " ^ n) (List.mem n declared)) metrics;
    List.iter
      (fun n -> expect ("the program knows " ^ n) (List.mem n (metrics @ workloads)))
      declared);
  (* smoke: every workload, both modes, small document, one second *)
  List.iter
    (fun w ->
      List.iter
        (fun trace ->
          let args =
            [| Sys.executable_name; "--workload"; w; "--seed"; "3"; "--seconds"; "1"; "--trace";
               trace; "--scale"; "0.05" |]
          in
          let ic = Unix.open_process_args_in Sys.executable_name args in
          let last = ref "" in
          (try
             while true do
               last := input_line ic
             done
           with End_of_file -> ());
          let status = Unix.close_process_in ic in
          let what = Printf.sprintf "%s --trace %s" w trace in
          expect (what ^ " exits 0") (status = Unix.WEXITED 0);
          expect (what ^ " is correct") (Proc.find_from !last "\"correct\":true" 0 <> None);
          List.iter
            (fun (n, _) ->
              expect
                (Printf.sprintf "%s emits %s" what n)
                (Proc.find_from !last (Printf.sprintf "\"%s\":{\"value\":" n) 0 <> None))
            (if trace = "1" then layer_metrics else e2e_metrics))
        [ "0"; "1" ])
    workloads;
  Printf.printf "selfcheck %s\n%!" (if !ok then "passed" else "FAILED");
  !ok

(* ---- entry point ---------------------------------------------------------------- *)

let () =
  match Array.to_list Sys.argv with
  | [ _; "--selfcheck" ] -> exit (if selfcheck () then 0 else 1)
  | _ :: args ->
    let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 and scale = ref 1.0 in
    let rec parse = function
      | "--workload" :: v :: rest -> workload := v; parse rest
      | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
      | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
      | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
      | "--scale" :: v :: rest -> scale := float_of_string v; parse rest
      | [] -> ()
      | a :: _ -> failwith ("unknown argument " ^ a)
    in
    (try parse args
     with Failure msg | Invalid_argument msg ->
       prerr_endline ("perfbench: " ^ msg);
       exit 2);
    if not (List.mem !workload workloads) then begin
      prerr_endline ("perfbench: --workload must be one of " ^ String.concat ", " workloads);
      exit 2
    end;
    at_exit Proc.kill_all;
    List.iter (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 2))) [ Sys.sigint; Sys.sigterm ];
    (* hard stop well inside the 180 s a run may take *)
    ignore
      (Thread.create
         (fun () ->
           Thread.delay 170.0;
           prerr_endline "perfbench: run exceeded 170 s, stopping";
           Proc.kill_all ();
           Unix._exit 3)
         ());
    let correct =
      try run ~workload:!workload ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1) ~scale:!scale
      with e ->
        prerr_endline ("perfbench: " ^ Printexc.to_string e);
        Proc.kill_all ();
        exit 2
    in
    exit (if correct then 0 else 1)
  | [] -> exit 2
