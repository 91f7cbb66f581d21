(* The benchmark's phases: set-up, the offline build, the closed-loop
   serving phases, the updater, and the in-process replay of served
   requests that attributes a request's time to the daemon-side layers.
   Every call into a layer goes through [layer], which keeps the
   duration as a sample under the layer's name and, when tracing is on,
   records it as a span. *)

module Serve = Xcluster.Serve
module Client = Serve.Client
module Protocol = Serve.Protocol
module Plan = Xc_core.Plan

(* ---- samples, counters, tallies ----------------------------------------- *)

let samples : (string, Clock.Samples.t) Hashtbl.t = Hashtbl.create 64
let samples_lock = Mutex.create ()

let note name v =
  Mutex.lock samples_lock;
  (match Hashtbl.find_opt samples name with
  | Some s -> Clock.Samples.add s v
  | None ->
    let s = Clock.Samples.create () in
    Clock.Samples.add s v;
    Hashtbl.add samples name s);
  Mutex.unlock samples_lock

let sampled name =
  match Hashtbl.find_opt samples name with
  | Some s -> Clock.Samples.to_array s
  | None -> [||]

let median_of name = Clock.median (sampled name)
let sum_of name = Array.fold_left ( +. ) 0.0 (sampled name)

(* [layer name f]: time [f] (seconds, kept under [name]) inside a span *)
let layer ?parent ?rid name f =
  Trace.span ?parent ?rid name (fun id ->
      let t0 = Clock.now () in
      let r = f id in
      note name (Clock.since t0);
      r)

let attempted = Atomic.make 0
let failed = Atomic.make 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      Atomic.incr failed;
      prerr_endline ("perfbench: FAILED " ^ msg))
    fmt

(* in-process program counters and timers, through the facade *)
let counter name =
  Option.value (List.assoc_opt name (Xcluster.Metrics.snapshot ()).Xc_util.Metrics.counters)
    ~default:0

let timer_s name =
  match List.assoc_opt name (Xcluster.Metrics.snapshot ()).Xc_util.Metrics.timers with
  | Some t -> t.Xc_util.Metrics.t_total
  | None -> 0.0

(* ---- the run's stack ------------------------------------------------------ *)

type stack = {
  seed : int;
  scale : float;
  dir : string;  (* per-run scratch inside the checkout *)
  pool : Inputs.pool;
  ticks : Xcluster.Build.mutation list array;
  mutable live : Xcluster.builder option;  (* repaired in place by updates *)
  mutable served : Xcluster.synopsis option;  (* what the daemon started on *)
  mutable newest : Xcluster.synopsis option;  (* the last generation swapped in *)
  mutable oracle : float array;  (* pool answers on [served] *)
  mutable daemon : Proc.t option;
  mutable files : int;
  mutable next_tick : int;
}

let fresh_path st ext =
  st.files <- st.files + 1;
  Filename.concat st.dir (Printf.sprintf "f%d.%s" st.files ext)

let get what = function Some v -> v | None -> failwith ("no " ^ what ^ " yet")

let daemon st =
  match st.daemon with Some d -> d | None -> failwith "no daemon running"

(* ---- build: XML text to loaded synopsis ------------------------------------ *)

(* One document-to-loaded-synopsis pass: parse, reference, compress,
   save, eager load. [live] keeps the compressed synopsis as a live
   builder (compress_builder + seal, the same work as Build.compress)
   for the update loop. Returns the sealed synopsis, the loaded copy,
   the live builder if asked, and the artifact's path. *)
let build_once ?parent st ~live xml =
  Trace.span ?parent "build" (fun parent ->
      let doc = layer ~parent "xml.parse" (fun _ -> Xc_xml.Parser.parse_string ~typing:Inputs.typing xml) in
      let reference =
        layer ~parent "reference.build" (fun _ ->
            Xcluster.Build.reference ~min_extent:Inputs.min_extent
              ~value_min_extent:Inputs.value_min_extent ~value_paths:Inputs.value_paths doc)
      in
      note "reference.clusters" (float_of_int (Xc_core.Synopsis.Builder.n_nodes reference));
      let p1 = timer_s "build.phase1" and p2 = timer_s "build.phase2" in
      let evals = counter "pool.cand_evals" and steps = counter "build.compression_steps" in
      let budget = Inputs.budget () in
      let builder, syn =
        layer ~parent "build.compress" (fun _ ->
            if live then
              let b = Xcluster.Build.compress_builder budget reference in
              (Some b, Xcluster.Build.seal b)
            else (None, Xcluster.Build.compress budget reference))
      in
      note "build.phase1" (timer_s "build.phase1" -. p1);
      note "build.phase2" (timer_s "build.phase2" -. p2);
      note "pool.cand_evals" (float_of_int (counter "pool.cand_evals" - evals));
      note "build.compression_steps" (float_of_int (counter "build.compression_steps" - steps));
      let path = fresh_path st "syn" in
      (match layer ~parent "codec.save" (fun _ -> Xcluster.Store.save path syn) with
      | Ok () -> ()
      | Error e -> failwith ("save: " ^ Xc_core.Codec.error_to_string e));
      let loaded =
        match layer ~parent "codec.load" (fun _ -> Xcluster.Store.load ~eager:true path) with
        | Ok s -> s
        | Error e -> failwith ("load: " ^ Xc_core.Codec.error_to_string e)
      in
      (syn, loaded, builder, path))

(* After the clock stops: the loaded synopsis validates and answers the
   whole pool bit-identically to the synopsis it was saved from. *)
let check_build st syn loaded =
  Atomic.incr attempted;
  (match Xcluster.Query.validate loaded with
  | Ok () -> ()
  | Error e -> fail "loaded synopsis does not validate: %s" e);
  let diff = ref 0 in
  Array.iter
    (fun e ->
      let q = e.Xc_twig.Workload.query in
      if not (Inputs.same (Xcluster.Query.estimate_uncached syn q)
                (Xcluster.Query.estimate_uncached loaded q))
      then incr diff)
    st.pool.Inputs.entries;
  if !diff > 0 then fail "%d estimates changed across save and load" !diff

(* The paper's overall relative error of a synopsis on the served
   document's own 400-query workload (exact counts by evaluation). *)
let rel_error st syn =
  let doc = Inputs.document ~seed:st.seed ~scale:st.scale in
  let entries = Xc_twig.Workload.generate ~spec:(Inputs.spec ~seed:st.seed) doc in
  Xc_exp.Error_metric.overall_relative ~sanity:(Xc_twig.Workload.sanity_bound entries)
    (Xc_exp.Error_metric.score (Xcluster.Query.estimate_uncached syn) entries)

(* ---- serving helpers ---------------------------------------------------- *)

let pool_request st rng =
  let n = Array.length st.pool.Inputs.texts in
  let idx = Array.init Inputs.batch_size (fun _ -> Random.State.int rng n) in
  (Array.map (fun i -> st.pool.Inputs.texts.(i)) idx, idx)

let estimate c texts = Client.estimate_batch c ~synopsis:Inputs.synopsis_name texts

let check_pool_answers st idx answers =
  let bad = ref 0 in
  Array.iteri (fun k i -> if not (Inputs.same answers.(k) st.oracle.(i)) then incr bad) idx;
  !bad

(* Start a daemon on [path] and bring it to steady state: the first
   (cold) request is timed on its own, then the whole pool is sent
   twice so every engine cache holds the working set. *)
let start_daemon ?parent st path =
  let d = layer ?parent "daemon.start" (fun _ -> Proc.spawn ~syn:path ~sock:(fresh_path st "sock")) in
  st.daemon <- Some d;
  let c = Proc.connect d.Proc.endpoint in
  let n = Array.length st.pool.Inputs.texts in
  let first = Array.sub st.pool.Inputs.texts 0 (Int.min n Inputs.batch_size) in
  (match layer ?parent "serve.first_request" (fun _ -> estimate c first) with
  | Ok _ -> ()
  | Error e -> fail "first request: %s" (Serve.Error.to_string e));
  Trace.span ?parent "warmup" (fun _ ->
      for _ = 1 to 2 do
        let i = ref 0 in
        while !i < n do
          let k = Int.min Inputs.batch_size (n - !i) in
          (match estimate c (Array.sub st.pool.Inputs.texts !i k) with
          | Ok _ -> ()
          | Error e -> fail "warm-up: %s" (Serve.Error.to_string e));
          i := !i + k
        done
      done);
  Client.close c

let stop_daemon st =
  Option.iter Proc.stop st.daemon;
  st.daemon <- None

let ping_idle st n =
  let c = Proc.connect (daemon st).Proc.endpoint in
  for _ = 1 to n do
    let t0 = Clock.now () in
    (match Client.ping c with
    | Ok _ -> note "serve.ping_idle" (Clock.since t0)
    | Error e -> fail "ping: %s" (Serve.Error.to_string e))
  done;
  Client.close c

(* ---- closed-loop clients ---------------------------------------------------- *)

type client_result = {
  lat_us : float array;
  texts_seen : (string, unit) Hashtbl.t;
  sent : int;
  log : string array list;  (* traced: every request's texts, in order *)
}

(* One closed-loop connection until [deadline], each request a batch of
   pool texts drawn from the seed; every answer is checked against the
   oracle after its round trip is timed. *)
let client_loop st ~endpoint ~deadline ~cid ~traced =
  let c = Proc.connect endpoint in
  let rng = Random.State.make [| st.seed; cid; 0x5eed |] in
  let lat = Clock.Samples.create () in
  let seen = Hashtbl.create 4096 in
  let requests = ref 0 and sent = ref 0 and log = ref [] in
  while Clock.now () < deadline do
    let texts, idx = pool_request st rng in
    Array.iter (fun t -> Hashtbl.replace seen t ()) texts;
    sent := !sent + Array.length texts;
    let rid = (cid lsl 24) lor !requests in
    let t0 = Clock.now_ns () in
    let r = estimate c texts in
    let t1 = Clock.now_ns () in
    incr requests;
    Atomic.incr attempted;
    Trace.interval ~rid "serve.request" t0 t1;
    Clock.Samples.add lat (Int64.to_float (Int64.sub t1 t0) /. 1e3);
    (match r with
    | Error e -> fail "request: %s" (Serve.Error.to_string e)
    | Ok ans ->
      let bad = check_pool_answers st idx ans in
      if bad > 0 then fail "%d answers differ from the oracle" bad);
    if traced then begin
      log := texts :: !log;
      if !requests mod 10 = 0 then begin
        let t0 = Clock.now () in
        match Trace.span ~rid "serve.ping_loaded" (fun _ -> Client.ping c) with
        | Ok _ -> note "serve.ping_loaded" (Clock.since t0)
        | Error e -> fail "ping: %s" (Serve.Error.to_string e)
      end
    end
  done;
  Client.close c;
  { lat_us = Clock.Samples.to_array lat; texts_seen = seen; sent = !sent; log = List.rev !log }

type serve_result = {
  clients : int;
  lat : float array;  (* every round trip, us *)
  seen : (string, unit) Hashtbl.t;  (* the query texts sent *)
  sent : int;  (* query texts sent *)
  logs : string array list list;  (* traced: per client, of the last phase *)
  daemon_cpu_s : float;  (* CPU time the daemon used *)
  hits : float;  (* the daemon's prepared-query cache *)
  misses : float;
  cohorts : float;
}

(* [clients] closed-loop connections for [seconds] *)
let serve_phase st ~clients ~seconds ~traced =
  let d = daemon st in
  let before = Proc.stats d.Proc.endpoint in
  let cpu0 = Proc.cpu_s d.Proc.pid in
  let deadline = Clock.now () +. seconds in
  (* the connections are threads of this one domain: a second domain
     would make every minor collection a rendezvous of both, which on a
     two-core machine waits on whichever core the host or the daemon
     holds; a thread releases the runtime while it waits on its socket *)
  let results = Array.make clients None in
  let threads =
    List.init clients (fun cid ->
        Thread.create
          (fun () -> results.(cid) <- Some (client_loop st ~endpoint:d.Proc.endpoint ~deadline ~cid ~traced))
          ())
  in
  List.iter Thread.join threads;
  let daemon_cpu_s = Proc.cpu_s d.Proc.pid -. cpu0 in
  let after = Proc.stats d.Proc.endpoint in
  let delta name = Proc.stat after "counters" name "" -. Proc.stat before "counters" name "" in
  (* the matrix builds of the served generation, since the daemon started *)
  note "plan.mat_build_ms" (Proc.stat after "timers" "batch.mat_build" "total_ms");
  note "plan.mat_builds" (Proc.stat after "timers" "batch.mat_build" "count");
  let rs = Array.to_list (Array.map (get "client result") results) in
  let seen = Hashtbl.create 4096 in
  List.iter (fun r -> Hashtbl.iter (fun t () -> Hashtbl.replace seen t ()) r.texts_seen) rs;
  { clients;
    lat = Array.concat (List.map (fun r -> r.lat_us) rs);
    seen;
    sent = List.fold_left (fun a (r : client_result) -> a + r.sent) 0 rs;
    logs = List.map (fun r -> r.log) rs;
    daemon_cpu_s;
    hits = delta "batch.query_hit";
    misses = delta "batch.query_miss";
    cohorts = delta "batch.cohorts" }

(* the phases of a run as one *)
let merge a b =
  Hashtbl.iter (fun t () -> Hashtbl.replace a.seen t ()) b.seen;
  { b with
    lat = Array.append a.lat b.lat;
    seen = a.seen;
    sent = a.sent + b.sent;
    daemon_cpu_s = a.daemon_cpu_s +. b.daemon_cpu_s;
    hits = a.hits +. b.hits;
    misses = a.misses +. b.misses;
    cohorts = a.cohorts +. b.cohorts }

(* Estimates per second, by Little's law over the middle half of the
   round trips: [clients] batches in flight over the interquartile mean
   round trip. A stall outside the program (the host or another process
   taking a core for a few ms) lands in the slowest quarter of the round
   trips, which a count of completions over wall time would take in
   whole. *)
let est_per_s r = float_of_int (r.clients * Inputs.batch_size) *. 1e6 /. Clock.interquartile_mean r.lat

(* ---- updates ------------------------------------------------------------- *)

(* One update tick: repair the live builder with the next batch of
   auction events, seal, save and swap the daemon to it. The latency
   runs from the start of the repair to the daemon's swap ack. *)
let tick st conn =
  Atomic.incr attempted;
  let batch = st.ticks.(st.next_tick mod Array.length st.ticks) in
  st.next_tick <- st.next_tick + 1;
  Trace.span "update.tick" (fun parent ->
      let t0 = Clock.now () in
      let widened = counter "update.repair_widened" in
      match
        layer ~parent "update.apply" (fun _ ->
            Xcluster.Build.update_and_seal ~budget:(Inputs.budget ()) (get "live builder" st.live) batch)
      with
      | Error e -> fail "update rejected: %s" e
      | Ok (_, syn) -> (
        note "update.repair_widened" (float_of_int (counter "update.repair_widened" - widened));
        let path = fresh_path st "syn" in
        match layer ~parent "codec.save" (fun _ -> Xcluster.Store.save path syn) with
        | Error e -> fail "save: %s" (Xc_core.Codec.error_to_string e)
        | Ok () -> (
          match
            layer ~parent "registry.swap" (fun _ ->
                Client.update conn ~synopsis:Inputs.synopsis_name ~path)
          with
          | Error e -> fail "swap: %s" (Serve.Error.to_string e)
          | Ok _ ->
            st.newest <- Some syn;
            note "update" (Clock.since t0))))

(* [n] back-to-back ticks against an otherwise idle daemon *)
let idle_ticks st n =
  let c = Proc.connect (daemon st).Proc.endpoint in
  for _ = 1 to n do
    tick st c
  done;
  Client.close c

(* after the ticks: a pool batch is answered on the newest generation *)
let check_newest st =
  let syn = get "generation" st.newest in
  let c = Proc.connect (daemon st).Proc.endpoint in
  let texts = Array.sub st.pool.Inputs.texts 0 (Int.min Inputs.batch_size (Array.length st.pool.Inputs.texts)) in
  Atomic.incr attempted;
  (match estimate c texts with
  | Error e -> fail "request: %s" (Serve.Error.to_string e)
  | Ok ans ->
    Array.iteri
      (fun k t -> if not (Inputs.same ans.(k) (Inputs.oracle syn t)) then fail "answer %d after updates" k)
      texts);
  Client.close c

(* ---- in-process replay of served requests ------------------------------------ *)

(* A seeded run of consecutive requests of one connection of the last
   round, all served by the warm engine of that round's synopsis, before
   its updates. *)
let replay_selection st logs =
  let rng = Random.State.make [| st.seed; 0x4e91 |] in
  match logs with
  | [] -> []
  | log :: _ ->
    let log = Array.of_list log in
    let n = Int.min 300 (Array.length log) in
    Array.to_list (Array.sub log (Random.State.int rng (Array.length log - n + 1)) n)

(* The daemon-side request path, called in process: frame decode, twig
   parse, registry lookup, prepare, the cohort sweep and the response
   encode, plus the client's own encode and decode. The requests replay
   against the generation that served them, on an engine primed with
   the whole pool the way the daemon's warm-up primed its own.
   Transition matrix builds inside prepare are taken out of
   [plan.prepare] (the daemon's own [batch.mat_build] timer reports
   them). *)
let replay st sample =
  let reg = Serve.Registry.create () in
  ignore (Serve.Registry.swap reg ~name:Inputs.synopsis_name (get "served synopsis" st.served));
  (match Serve.Registry.engine reg Inputs.synopsis_name with
  | Ok (_, eng) -> ignore (Plan.Batch.prepare eng (Array.map Xc_twig.Twig_parse.parse st.pool.Inputs.texts))
  | Error e -> fail "replay engine: %s" (Serve.Error.to_string e));
  List.iteri
    (fun rid texts ->
      Trace.span ~rid "replay.request" (fun parent ->
          let codec = ref 0.0 in
          let timed name f =
            let t0 = Clock.now () in
            let r = layer ~parent ~rid name (fun _ -> f ()) in
            codec := !codec +. Clock.since t0;
            r
          in
          let frame =
            timed "protocol.encode_request" (fun () ->
                Protocol.encode_request
                  (Protocol.Estimate_batch
                     { synopsis = Inputs.synopsis_name; queries = texts; options = Serve.Options.default }))
          in
          match timed "protocol.decode_request" (fun () -> Protocol.decode_request frame) with
          | Ok (Protocol.Estimate_batch { queries; synopsis; _ }) -> (
            let qs = layer ~parent ~rid "twig.parse" (fun _ -> Array.map Xc_twig.Twig_parse.parse queries) in
            match layer ~parent ~rid "registry.engine" (fun _ -> Serve.Registry.engine reg synopsis) with
            | Error e -> fail "replay engine: %s" (Serve.Error.to_string e)
            | Ok (_, eng) ->
              let m0 = timer_s "batch.mat_build" in
              let t0 = Clock.now () in
              let prepared = Trace.span ~parent ~rid "plan.prepare" (fun _ -> Plan.Batch.prepare eng qs) in
              let mat = timer_s "batch.mat_build" -. m0 in
              note "plan.prepare" (Clock.since t0 -. mat);
              let r = layer ~parent ~rid "plan.run" (fun _ -> Plan.Batch.run_prepared eng prepared) in
              let resp = timed "protocol.encode_response" (fun () -> Protocol.encode_response (Protocol.Floats r)) in
              ignore (timed "protocol.decode_response" (fun () -> Protocol.decode_response resp));
              note "protocol.codec" !codec)
          | Ok _ | Error _ -> fail "replay: request frame did not round-trip"))
    sample
