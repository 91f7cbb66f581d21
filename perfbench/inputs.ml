(* Everything the benchmark feeds the program, derived from --seed:
   the XMark document, the query pool and the auction update stream. The XMark settings are the experiment
   runner's (min_extent 6, value_min_extent 300, its nine designated
   value-path families) and the budget is the paper's default. *)

module Workload = Xc_twig.Workload
module Twig_query = Xc_twig.Twig_query

let synopsis_name = "xmark"
let min_extent = 6
let value_min_extent = 300
let budget () = Xcluster.Build.budget ~bstr_kb:20 ~bval_kb:150 ()
let batch_size = 60
let path tags = List.map Xc_xml.Label.of_string tags

let value_paths =
  let regions = [ "africa"; "asia"; "australia"; "europe"; "namerica"; "samerica" ] in
  let item r leaf = path ([ "site"; "regions"; r; "item" ] @ leaf) in
  List.map (fun r -> item r [ "location" ]) regions
  @ List.map (fun r -> item r [ "quantity" ]) regions
  @ List.map (fun r -> item r [ "description"; "text" ]) regions
  @ [ path [ "site"; "people"; "person"; "name" ];
      path [ "site"; "people"; "person"; "profile"; "age" ];
      path [ "site"; "open_auctions"; "open_auction"; "initial" ];
      path [ "site"; "open_auctions"; "open_auction"; "annotation" ];
      path [ "site"; "closed_auctions"; "closed_auction"; "price" ];
      path [ "site"; "closed_auctions"; "closed_auction"; "annotation" ] ]

let typing = Xc_xml.Parser.typing_of_assoc Xc_data.Xmark.value_typing
let document ~seed ~scale = Xc_data.Xmark.generate ~seed ~scale ()

(* twig source text, as the daemon parses it: Twig_query.pp without
   its leading "." *)
let text_of q =
  let s = Format.asprintf "%a" Twig_query.pp q in
  if String.length s > 0 && s.[0] = '.' then String.sub s 1 (String.length s - 1) else s

type pool = { entries : Workload.entry array; texts : string array }

(* The 400-query positive workload of Workload.generate, drawn from a
   quarter-scale XMark document of the same seed: the same schema and
   value distributions as the served document, at a quarter of the
   exact-evaluation cost the generator pays per query. *)
let pool_scale scale = Float.min scale (Float.max 0.05 (scale /. 4.0))

let spec ~seed = { Workload.default_spec with n_queries = 400; seed = seed + 1; value_paths = Some value_paths }

let pool ~seed ~scale =
  let doc = document ~seed ~scale:(pool_scale scale) in
  let spec = spec ~seed in
  let entries = Array.of_list (Workload.generate ~spec doc) in
  { entries; texts = Array.map (fun e -> text_of e.Workload.query) entries }

(* Auction update ticks: each tick is [per_tick / 2] auction openings
   and as many closings of live auctions, as subtree mutations. *)
let update_ticks ~seed ~per_tick ~ticks doc =
  let half = Int.max 1 (per_tick / 2) in
  let n = half * ticks in
  let stream = Xc_data.Xmark.update_stream ~seed:(seed + 2) ~n_open:n ~n_close:n doc in
  let site = Xc_xml.Label.of_string "site" in
  let opened = [ site; Xc_xml.Label.of_string "open_auctions" ] in
  let closed = [ site; Xc_xml.Label.of_string "closed_auctions" ] in
  let opens, closes =
    List.partition_map
      (function
        | Xc_data.Xmark.Open subtree -> Left (Xcluster.Build.Insert { parent = opened; subtree })
        | Xc_data.Xmark.Close { opened = o; closed = c } ->
          Right
            [ Xcluster.Build.Delete { parent = opened; subtree = o };
              Xcluster.Build.Insert { parent = closed; subtree = c } ])
      stream
  in
  let opens = Array.of_list opens and closes = Array.of_list closes in
  (* closings are clamped to the live auctions, so the tail may run short *)
  let slice a i =
    let from = Int.min (Array.length a) (i * half) in
    Array.to_list (Array.sub a from (Int.min half (Array.length a - from)))
  in
  Array.init ticks (fun i -> slice opens i @ List.concat (slice closes i))

(* The oracle: the paper-faithful embedding estimator on the text the
   daemon receives. *)
let oracle syn text = Xcluster.Query.estimate_uncached syn (Xcluster.Query.parse text)
let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
