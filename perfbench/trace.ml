(* In-memory spans around the benchmark's calls into each layer.

   A span has a name, a start and an end (monotonic ns), the span that
   caused it and the request it belongs to. Recording is off unless
   [enable] was called; then every [span] appends one record under a
   mutex (client threads record concurrently). Nothing is written until
   [write] runs at the end of the benchmark. *)

type span = {
  id : int;
  parent : int;  (* -1: a root span *)
  rid : int;  (* request id; -1 outside requests *)
  name : string;
  t0 : int64;
  t1 : int64;
}

let on = ref false
let lock = Mutex.create ()
let spans : span list ref = ref []
let next_id = Atomic.make 0

let record ~parent ~rid name t0 t1 id =
  Mutex.lock lock;
  spans := { id; parent; rid; name; t0; t1 } :: !spans;
  Mutex.unlock lock

(* [span ~parent ~rid name f] runs [f id]; [id] is the parent to hand
   to nested spans (-1 when tracing is off). *)
let span ?(parent = -1) ?(rid = -1) name f =
  if not !on then f (-1)
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let t0 = Clock.now_ns () in
    let r = f id in
    record ~parent ~rid name t0 (Clock.now_ns ()) id;
    r
  end

(* a span for an interval measured by the caller *)
let interval ?(parent = -1) ?(rid = -1) name t0 t1 =
  if !on then record ~parent ~rid name t0 t1 (Atomic.fetch_and_add next_id 1)

let all () = List.rev !spans
let count () = List.length !spans
let dur_ns s = Int64.to_float (Int64.sub s.t1 s.t0)

(* Self time of every span: its duration minus the part of it covered
   by its children (children never overlap one another here: each span
   nests sequential calls). *)
let self_times spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let c = Option.value (Hashtbl.find_opt child s.parent) ~default:0.0 in
        Hashtbl.replace child s.parent (c +. dur_ns s))
    spans;
  List.map
    (fun s ->
      let c = Option.value (Hashtbl.find_opt child s.id) ~default:0.0 in
      (s, Float.max 0.0 (dur_ns s -. c)))
    spans

(* Per span name: samples, median duration, median self time and total
   self time, in µs, in first-seen order. *)
let table spans =
  let order = ref [] in
  let by = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      match Hashtbl.find_opt by s.name with
      | Some (d, sf) ->
        Clock.Samples.add d (dur_ns s /. 1e3);
        Clock.Samples.add sf (self /. 1e3)
      | None ->
        let d = Clock.Samples.create () and sf = Clock.Samples.create () in
        Clock.Samples.add d (dur_ns s /. 1e3);
        Clock.Samples.add sf (self /. 1e3);
        Hashtbl.add by s.name (d, sf);
        order := s.name :: !order)
    (self_times spans);
  List.rev_map
    (fun name ->
      let d, sf = Hashtbl.find by name in
      let d = Clock.Samples.to_array d and sf = Clock.Samples.to_array sf in
      (name, Array.length d, Clock.median d, Clock.median sf, Array.fold_left ( +. ) 0.0 sf))
    !order

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"rid\":%d,\"name\":%S,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
        s.id s.parent s.rid s.name s.t0 s.t1)
    (all ());
  close_out oc
