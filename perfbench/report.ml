(* Metric names, units and the derivation of per-layer numbers from the
   traced run's spans. Every workload prints every name: a layer a
   workload never calls reports 0 there (see README.md). *)

let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("frames_per_s", "1/s");
    ("op_ms_p50", "ms");
    ("op_ms_tail", "ms");
    ("peak_rss_mb", "MB");
  ]

let userfn_names =
  [
    "read_img"; "init_state"; "get_windows"; "detect_mark"; "accum_marks";
    "predict"; "display_marks"; "strip_sums"; "bucket"; "gain_scale";
    "owner_peak"; "res_smooth"; "add";
  ]

let per_layer =
  List.map (fun p -> ("frontend." ^ p ^ "_ms", "ms"))
    [ "parse"; "typecheck"; "extract"; "transform"; "expand" ]
  @ [ ("frontend.cache_hit_ratio", "ratio"); ("mapper.cost_ms", "ms") ]
  @ List.map (fun s -> ("mapper.map_ms." ^ s, "ms")) (Gen.strategies ())
  @ [
      ("mapper.emit_ms", "ms");
      ("sim.self_ms_per_frame", "ms");
      ("sim.us_per_msg", "us");
      ("sim.us_per_msg_long_over_short", "ratio");
      ("sim.msgs_per_frame", "count");
      ("sim.messages", "count");
      ("sim.latency_ms_p50", "ms");
      ("sim.period_ms", "ms");
      ("userfn.ms_per_frame", "ms");
      ("userfn.share", "ratio");
      ("userfn.calls", "count");
    ]
  @ List.map (fun n -> ("userfn." ^ n ^ "_ms", "ms")) userfn_names
  @ [
      ("telemetry.analyse_ms", "ms");
      ("telemetry.series_build_ms", "ms");
      ("telemetry.series_export_ms", "ms");
      ("telemetry.chrome_export_ms", "ms");
      ("telemetry.export_bytes", "bytes");
      ("telemetry.trace_events", "count");
      ("telemetry.trace_truncated_jobs", "count");
      ("telemetry.series_coverage", "ratio");
      ("store.hit_ratio", "ratio");
      ("store.bytes_read", "bytes");
      ("store.bytes_written", "bytes");
      ("store.misses_absent", "count");
      ("serve.service_ms_p50.compile_cold", "ms");
      ("serve.service_ms_p50.compile_warm", "ms");
      ("serve.service_ms_p50.run", "ms");
      ("serve.wait_ms_p50", "ms");
      ("serve.wait_ms_p99", "ms");
      ("serve.queue_depth_max", "count");
      ("serve.domain_busy_frac", "ratio");
      ("trace_overhead_pct", "%");
    ]

(* What one run of a workload measured. *)
type t = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;  (** by name, any order *)
  fingerprint : string;  (** hex digest of the deterministic results *)
  fingerprint_parts : (string * Support.Json.t) list;  (** what it covers *)
  info : (string * Support.Json.t) list;  (** printed, never gated *)
}

let ms s = s *. 1e3

(* Digest of a process graph with the suffixes of generated function
   names ("get_windows__s4") erased. Extraction mints those suffixes from
   a process-wide counter, so the same compile yields different names
   (and a different [Stage.fingerprint]) depending on how many compiles
   the process ran before; the structure is what a result must match. *)
let graph_digest g =
  let dot = Procnet.Graph.to_dot g in
  let b = Buffer.create (String.length dot) in
  let n = String.length dot in
  let rec go i =
    if i < n then
      if i + 3 <= n && String.sub dot i 3 = "__s" then begin
        Buffer.add_string b "__s";
        let j = ref (i + 3) in
        while !j < n && dot.[!j] >= '0' && dot.[!j] <= '9' do incr j done;
        go !j
      end
      else begin
        Buffer.add_char b dot.[i];
        go (i + 1)
      end
  in
  go 0;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Per-layer numbers every workload derives the same way from its spans:
   front-end pass medians over cache misses, mapper medians, and
   user-function totals per simulated frame. *)
let from_spans ~frames spans =
  let med l = if l = [] then 0.0 else ms (Stats.median l) in
  let durs p = List.filter_map (fun s -> if p s then Some (Spans.duration s) else None) spans in
  let is layer name (s : Spans.span) = s.Spans.layer = layer && s.Spans.name = name in
  let frontend =
    List.map
      (fun p ->
        ( "frontend." ^ p ^ "_ms",
          med (durs (fun s -> is "frontend" p s && s.Spans.tag = "miss")) ))
      [ "parse"; "typecheck"; "extract"; "transform"; "expand" ]
  in
  let mapper =
    ("mapper.cost_ms", med (durs (is "mapper" "cost")))
    :: ("mapper.emit_ms", med (durs (is "mapper" "emit")))
    :: List.map
         (fun st -> ("mapper.map_ms." ^ st, med (durs (is "mapper" ("map." ^ st)))))
         (Gen.strategies ())
  in
  let sims = List.filter (fun s -> s.Spans.layer = "sim") spans in
  let sim_dur = Stats.sum (List.map Spans.duration sims) in
  let sim_userfn = Stats.sum (List.map (fun s -> s.Spans.userfn) sims) in
  let fns = Spans.fn_totals () in
  let fn_time = Stats.sum (List.map (fun (_, _, t) -> t) fns) in
  let per_frame x = if frames = 0 then 0.0 else ms x /. float_of_int frames in
  let telemetry =
    List.map
      (fun n -> ("telemetry." ^ n ^ "_ms", med (durs (is "telemetry" n))))
      [ "analyse"; "series_build"; "series_export"; "chrome_export" ]
  in
  frontend @ mapper @ telemetry
  @ [
      ("sim.self_ms_per_frame", per_frame (sim_dur -. sim_userfn));
      ("userfn.ms_per_frame", per_frame fn_time);
      ("userfn.share", Stats.ratio sim_userfn sim_dur);
      ( "userfn.calls",
        float_of_int (List.fold_left (fun a (_, c, _) -> a + c) 0 fns) );
    ]
  @ List.map
      (fun n ->
        ( "userfn." ^ n ^ "_ms",
          match List.find_opt (fun (m, _, _) -> m = n) fns with
          | Some (_, _, t) -> per_frame t
          | None -> 0.0 ))
      userfn_names

let json_num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

(* The result line: the last line of standard output. *)
let result_line ~names r =
  let metric (name, unit) =
    let v = Option.value (List.assoc_opt name r.metrics) ~default:0.0 in
    let v = if Float.is_finite v then v else 0.0 in
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.failed = 0) r.attempted r.failed
    (String.concat ", " (List.map metric names))
