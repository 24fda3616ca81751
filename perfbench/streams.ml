(* The two stream workloads: each job runs the whole pass chain through
   [Passes] (one in-memory cache shared by the run), simulates the stream
   with tracing on, then exports the run summary, the windowed series and
   the Chrome trace, as [skipperc run --trace-out] users do. *)

open Skipper_lib
module Series = Skipper_trace.Series

type env = {
  tables : (int * Skel.Funtable.t) list;
      (** by job data seed: the tracking scene is part of the table *)
  cache : Passes.cache;
  sources : (string * string) list;
  input_period : float option;
}

type out = {
  job : Gen.job;
  ms : float;  (** host time of the job *)
  scaled : float;  (** the same at the reference host speed (see [Calib]) *)
  ok : bool;
  fp : string;  (** digest of the job's deterministic results *)
  frames : int;
  msgs : int;
  series_msgs : int;
  truncated : bool;
  events : int;
  bytes : int;
  lat_p50 : float;  (** simulated seconds; nan when undefined *)
  period : float;
  latencies : float list;
  jid : string;  (** unique per executed job: round and index *)
}

(* The program's own set-up: one function table per scene (the stateful
   app has no scene, so its jobs share one), the pass cache and the
   sources. *)
let setup ~app ~round ~traced =
  let scenes =
    if app = "tracking" then
      List.sort_uniq compare (List.map (fun j -> j.Gen.data_seed) round)
    else [ 0 ]
  in
  {
    tables =
      List.map
        (fun scene_seed ->
          let t = Corpus.table ~scene_seed app in
          (scene_seed, if traced then Spans.wrap_table t else t))
        scenes;
    cache = Passes.create_cache ();
    sources =
      List.filter_map
        (fun (spec, a) -> if a = app then Some (spec, Corpus.source spec) else None)
        Corpus.specs;
    input_period = (if app = "tracking" then Some 0.04 else None);
  }

let table_of env (job : Gen.job) =
  match env.tables with
  | [ (_, t) ] -> t
  | tables -> List.assoc job.Gen.data_seed tables

let input_of (job : Gen.job) =
  if job.Gen.spec = "tracking" then None
  else Some (Corpus.stateful_input job.Gen.data_seed)

(* Expected value of one job: the sequential emulation of the same
   program, compiled with a cache of its own. *)
let reference env (job : Gen.job) =
  let c =
    Pipeline.compile_source ~frames:job.Gen.frames ~cache:(Passes.create_cache ())
      ~table:(table_of env job) (List.assoc job.Gen.spec env.sources)
  in
  let input =
    match (input_of job, c.Pipeline.input) with
    | Some v, _ | None, Some v -> v
    | None, None -> failwith "no input"
  in
  Pipeline.emulate c input

let ref_key (j : Gen.job) = (j.Gen.spec, j.Gen.frames, j.Gen.data_seed)

let references env round =
  List.fold_left
    (fun acc j ->
      if List.mem_assoc (ref_key j) acc then acc
      else (ref_key j, reference env j) :: acc)
    [] round

let hexf f = Printf.sprintf "%h" f
let failed_out job ms =
  {
    job;
    ms;
    scaled = ms;
    ok = false;
    fp = "failed";
    frames = 0;
    msgs = 0;
    series_msgs = 0;
    truncated = false;
    events = 0;
    bytes = 0;
    lat_p50 = nan;
    period = nan;
    latencies = [];
    jid = "";
  }

(* Runs one pass inside a span, tagged as a pass-cache hit or miss. *)
let traced_pass ~job c layer name pass art =
  Spans.with_span ~layer ~name ~job (fun () ->
      let a = Passes.run_pass c pass art in
      (match List.rev (Passes.reports c) with
      | r :: _ -> Spans.tag (if r.Stage.cached then "hit" else "miss")
      | [] -> ());
      a)

let run_job env ~round ~expected (job : Gen.job) =
  let jid = Printf.sprintf "r%d.j%d" round job.Gen.idx in
  let span layer name f = Spans.with_span ~layer ~name ~job:jid f in
  let t0 = Unix.gettimeofday () in
  match
    span "job" job.Gen.spec (fun () ->
        let ctx =
          Passes.make_ctx ~cache:env.cache ~frames:job.Gen.frames (table_of env job)
        in
        let run_pass = traced_pass ~job:jid in
        let src_input = ref None in
        let graph =
          List.fold_left
            (fun art p ->
              let a = run_pass ctx "frontend" (Passes.pass_name p) p art in
              (match a with Stage.Ir (_, v) -> src_input := v | _ -> ());
              a)
            (Stage.Source (List.assoc job.Gen.spec env.sources))
            Passes.frontend
        in
        let input =
          match (input_of job, !src_input) with
          | Some v, _ | None, Some v -> v
          | None, None -> failwith "no input"
        in
        let bctx =
          Passes.retarget ~input ?input_period:env.input_period ~trace:true
            ~strategy:job.Gen.strategy ctx (Archi.ring job.Gen.procs)
        in
        let costed = run_pass bctx "mapper" "cost" Passes.cost graph in
        let sched = run_pass bctx "mapper" ("map." ^ job.Gen.strategy) Passes.map costed in
        ignore (run_pass bctx "mapper" "emit" Passes.emit sched);
        let r =
          match run_pass bctx "sim" "simulate" Passes.simulate sched with
          | Stage.Result r -> r
          | _ -> failwith "simulate returned no result"
        in
        let m = span "telemetry" "analyse" (fun () -> Executive.metrics r) in
        let series =
          match span "telemetry" "series_build" (fun () -> Executive.series r) with
          | Ok s -> s
          | Error e -> failwith e
        in
        let sjson = span "telemetry" "series_export" (fun () -> Series.to_json series) in
        let events, cjson =
          span "telemetry" "chrome_export" (fun () ->
              let tl = Executive.timeline r in
              (Skipper_trace.Event.length tl, Skipper_trace.Chrome.to_json tl))
        in
        (graph, r, m, series, events, String.length sjson + String.length cjson))
  with
  | exception e ->
      prerr_endline
        (Printf.sprintf "perfbench: job %s (%s, %d frames) failed: %s" jid
           job.Gen.spec job.Gen.frames (Printexc.to_string e));
      failed_out job (Unix.gettimeofday () -. t0)
  | graph, r, m, series, events, bytes ->
      let ms = Unix.gettimeofday () -. t0 in
      let completed = r.Executive.outcome = Executive.Completed in
      let ok = completed && Skel.Value.equal r.Executive.value expected in
      let st = r.Executive.stats in
      let lat_p50 =
        match m.Machine.Metrics.latency with
        | Some l -> l.Machine.Metrics.p50
        | None -> nan
      in
      let period = Option.value r.Executive.period ~default:nan in
      let fp =
        Digest.to_hex
          (Digest.string
             (String.concat ";"
                ([
                   (match graph with Stage.Graph g -> Report.graph_digest g | _ -> "-");
                   string_of_int st.Machine.Sim.messages;
                   hexf st.Machine.Sim.finish_time;
                   hexf r.Executive.first_latency;
                   hexf period;
                   Digest.to_hex (Digest.string (Skel.Value.to_string r.Executive.value));
                   string_of_bool completed;
                 ]
                @ List.map hexf r.Executive.latencies)))
      in
      {
        job;
        ms;
        scaled = ms;
        ok;
        fp;
        frames = List.length r.Executive.outputs;
        msgs = st.Machine.Sim.messages;
        series_msgs = (Series.totals series).Series.total_messages;
        truncated = m.Machine.Metrics.trace_truncated;
        events;
        bytes;
        lat_p50;
        period;
        latencies = r.Executive.latencies;
        jid;
      }

(* One instance of a stream workload: set up, run whole rounds until
   [seconds] have passed, check every job. [corrupt] spoils the expected
   values, which the tests use to show that wrong outputs are counted. *)
type phase = {
  outs : out list;  (** every job, in run order *)
  first : out list;  (** the first round *)
  rounds : int;
  setup_s : float;
  first_cache : int * int;  (** pass-cache hits, misses after round one *)
  cache : int * int;
  mismatches : int;  (** jobs whose results differ from round one *)
}

(* Set-up takes microseconds, so samples are taken before the first round
   and again after every round, and the median is over all of them. Each
   sample is the mean of 100 set-ups, scaled to the reference speed. *)
let setup_reps = 11

let run_phase ?(corrupt = false) ~app ~round ~seconds ~traced () =
  let setup_sample () =
    Calib.bracket (fun () -> Stats.mean_time ~per:100 (fun () -> setup ~app ~round ~traced))
  in
  let samples = List.init setup_reps (fun _ -> setup_sample ()) in
  let env = snd (List.hd samples) in
  let setup_times = ref (List.map fst samples) in
  let refs = references env round in
  let refs =
    if corrupt then List.map (fun (k, _) -> (k, Skel.Value.Int (-1))) refs else refs
  in
  Spans.reset ~on:traced;
  let t0 = Unix.gettimeofday () in
  let outs = ref [] and first = ref [] and rounds = ref 0 in
  let first_cache = ref (0, 0) in
  (* each job is timed between the calibration samples either side of it *)
  let calib = ref (Calib.sample ()) in
  while !rounds = 0 || Unix.gettimeofday () -. t0 < seconds do
    let r =
      List.map
        (fun j ->
          let o = run_job env ~round:!rounds ~expected:(List.assoc (ref_key j) refs) j in
          let after = Calib.sample () in
          let scaled = Calib.scale ~before:!calib ~after o.ms in
          calib := after;
          { o with scaled })
        round
    in
    if !rounds = 0 then begin
      first := r;
      first_cache := Passes.cache_stats env.cache
    end;
    setup_times := fst (setup_sample ()) :: !setup_times;
    outs := List.rev_append r !outs;
    incr rounds
  done;
  let outs = List.rev !outs in
  let fp_of = Hashtbl.create 32 in
  List.iter (fun o -> Hashtbl.replace fp_of o.job.Gen.idx o.fp) !first;
  let differing = List.filter (fun o -> Hashtbl.find fp_of o.job.Gen.idx <> o.fp) outs in
  List.iter
    (fun o ->
      prerr_endline
        (Printf.sprintf "perfbench: job %s (%s, ring %d, %s) differs from round one"
           o.jid o.job.Gen.spec o.job.Gen.procs o.job.Gen.strategy))
    differing;
  let mismatches = List.length differing in
  {
    outs;
    first = !first;
    rounds = !rounds;
    setup_s = Stats.median !setup_times;
    first_cache = !first_cache;
    cache = Passes.cache_stats env.cache;
    mismatches;
  }

let fingerprint p =
  let h, m = p.first_cache in
  let parts =
    List.map (fun o -> Printf.sprintf "%d:%s" o.job.Gen.idx o.fp) p.first
    @ [ Printf.sprintf "cache:%d/%d" h m ]
  in
  (Digest.to_hex (Digest.string (String.concat "," parts)), h, m)

let sum_int f l = List.fold_left (fun a o -> a + f o) 0 l

(* Each job of the round has its median time over the rounds. Throughput
   is a round over the sum of those; p50 is the median of them, because a
   round of 12 jobs has its sample median exactly between two jobs of
   different lengths, where it jumped by 15% between runs; p90 is over
   every job run. All are at the reference host speed. *)
let end_to_end p =
  let per_job =
    List.map
      (fun f ->
        Stats.median
          (List.filter_map
             (fun o -> if o.job.Gen.idx = f.job.Gen.idx then Some o.scaled else None)
             p.outs))
      p.first
  in
  let round_s = Stats.sum per_job in
  let jobs = float_of_int (List.length p.first) in
  let frames = float_of_int (sum_int (fun o -> o.frames) p.first) in
  let ms_l = List.map (fun o -> Report.ms o.scaled) p.outs in
  [
    ("setup_s", p.setup_s);
    ("ops_per_s", jobs /. round_s);
    ("frames_per_s", frames /. round_s);
    ("op_ms_p50", Report.ms (Stats.median per_job));
    ("op_ms_tail", Stats.percentile 0.9 ms_l);
    ("peak_rss_mb", Stats.peak_rss_mb ());
  ]

let layers p =
  let outs = p.outs in
  let frames = sum_int (fun o -> o.frames) outs in
  let msgs = sum_int (fun o -> o.msgs) outs in
  let spans = Spans.spans () in
  let sims = List.filter (fun (s : Spans.span) -> s.Spans.layer = "sim") spans in
  let sim_self = Hashtbl.create 64 in
  List.iter (fun (s : Spans.span) -> Hashtbl.replace sim_self s.Spans.job (Spans.self_time s)) sims;
  (* µs per message on the longest jobs over the shortest *)
  let us_per_msg len =
    let jobs = List.filter (fun o -> o.job.Gen.frames = len && Hashtbl.mem sim_self o.jid) outs in
    Stats.ratio
      (1e6 *. Stats.sum (List.map (fun o -> Hashtbl.find sim_self o.jid) jobs))
      (float_of_int (sum_int (fun o -> o.msgs) jobs))
  in
  let lens = List.sort_uniq compare (List.map (fun o -> o.job.Gen.frames) outs) in
  let long_over_short =
    match lens with
    | [] -> 0.0
    | l -> Stats.ratio (us_per_msg (List.nth l (List.length l - 1))) (us_per_msg (List.hd l))
  in
  let ok = List.filter (fun o -> o.ok) outs in
  let med f = Stats.median (List.map f ok) in
  let hits, misses = p.cache in
  Report.from_spans ~frames spans
  @ [
      ("frontend.cache_hit_ratio", Stats.ratio (float_of_int hits) (float_of_int (hits + misses)));
      ( "sim.us_per_msg",
        Stats.ratio (1e6 *. Stats.sum (List.map Spans.self_time sims)) (float_of_int msgs) );
      ("sim.us_per_msg_long_over_short", long_over_short);
      ("sim.msgs_per_frame", Stats.ratio (float_of_int msgs) (float_of_int frames));
      ("sim.messages", float_of_int msgs);
      ("sim.latency_ms_p50", Report.ms (med (fun o -> o.lat_p50)));
      ("sim.period_ms", Report.ms (med (fun o -> o.period)));
      ("telemetry.export_bytes", med (fun o -> float_of_int o.bytes));
      ("telemetry.trace_events", med (fun o -> float_of_int o.events));
      ( "telemetry.trace_truncated_jobs",
        float_of_int (List.length (List.filter (fun o -> o.truncated) p.first)) );
      ( "telemetry.series_coverage",
        Stats.ratio
          (float_of_int (sum_int (fun o -> o.series_msgs) outs))
          (float_of_int msgs) );
    ]
