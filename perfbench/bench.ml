(* perfbench: host-time benchmark of the SKiPPER environment.

   bench --workload W --seed N --seconds S --trace 0|1 [--flambda B]

   Run from the repository root (it reads specs/ and writes under
   perfbench/_out). The last line of standard output is the result:
   end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
   See perfbench/README.md for the workloads and metric definitions. *)

open Perfbench
module Json = Support.Json

let workloads = [ "tracking-stream"; "stateful-stream"; "serve-mix" ]

(* Paper §4: 30 ms tracking and 110 ms reinit latency at 25 Hz. *)
let paper_tracking_ms = 30.0
let paper_reinit_ms = 110.0

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("perfbench: " ^ m);
      exit 2)
    fmt

let args () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 in
  let trace = ref (-1) and flambda = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " workload name");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measuring time");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer");
      ("--flambda", Arg.Set_string flambda, " compiler flambda setting, recorded");
    ]
    (fun a -> fail "unexpected argument %s" a)
    "bench --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then
    fail "--workload must be one of %s" (String.concat ", " workloads);
  if !seed < 0 then fail "--seed must be a non-negative integer";
  if !seconds <= 0.0 then fail "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  (!workload, !seed, !seconds, !trace = 1, !flambda)

let line key json =
  print_endline (Printf.sprintf "perfbench %s: %s" key (Json.to_string json))
let jnum f = Json.Num f
let jint i = Json.Num (float_of_int i)

(* A stream workload run: one untraced phase, or (traced) an untraced half
   then a traced half, so the traced run also yields its own overhead and
   a fingerprint comparison. *)
let stream ~workload ~seed ~seconds ~traced =
  let app, round =
    if workload = "tracking-stream" then ("tracking", Gen.tracking_round ~seed)
    else ("stateful", Gen.stateful_round ~seed)
  in
  let phase ~traced seconds = Streams.run_phase ~app ~round ~seconds ~traced () in
  let base = phase ~traced:false (if traced then seconds /. 2.0 else seconds) in
  let measured = if traced then phase ~traced:true (seconds /. 2.0) else base in
  let fp, hits, misses = Streams.fingerprint base in
  let fp_traced, _, _ = Streams.fingerprint measured in
  let outs = base.Streams.outs @ (if traced then measured.Streams.outs else []) in
  let attempted = List.length outs in
  let bad = List.length (List.filter (fun o -> not o.Streams.ok) outs) in
  let mismatches =
    base.Streams.mismatches + (if traced then measured.Streams.mismatches else 0)
    + if fp = fp_traced then 0 else 1
  in
  let mean p =
    Stats.sum (List.map (fun o -> o.Streams.scaled) p.Streams.outs)
    /. float_of_int (List.length p.Streams.outs)
  in
  let metrics =
    if traced then
      ("trace_overhead_pct", 100.0 *. ((mean measured /. mean base) -. 1.0))
      :: Streams.layers measured
    else Streams.end_to_end base
  in
  let paper =
    if app <> "tracking" then []
    else
      match
        List.find_opt
          (fun o ->
            o.Streams.job.Gen.procs = 8
            && o.Streams.job.Gen.strategy = "canonical"
            && o.Streams.ok)
          base.Streams.first
      with
      | None -> []
      | Some o ->
          let tracking = match o.Streams.latencies with _ :: rest -> rest | [] -> [] in
          [
            ( "paper_comparison",
              Json.Obj
                [
                  ( "note",
                    Json.Str
                      "for information only; the machine model is otherwise \
                       unvalidated" );
                  ("config", Json.Str "ring of 8, canonical mapping, 25 Hz");
                  ("sim_reinit_latency_ms", jnum (Report.ms (List.hd o.Streams.latencies)));
                  ("paper_reinit_latency_ms", jnum paper_reinit_ms);
                  ("sim_tracking_latency_ms_p50", jnum (Report.ms (Stats.median tracking)));
                  ("paper_tracking_latency_ms", jnum paper_tracking_ms);
                ] );
          ]
  in
  let info =
    [
      ("rounds", jint base.Streams.rounds);
      ("jobs_per_round", jint (List.length round));
      ("op_ms_tail_percentile", jnum 90.0);
      ( "unscaled_op_ms_p50",
        jnum (Stats.median (List.map (fun o -> Report.ms o.Streams.ms) base.Streams.outs)) );
      ("fingerprint_traced_matches", Json.Bool (fp = fp_traced));
      ("jobs_differing_from_round_one", jint mismatches);
    ]
    @ paper
  in
  let job_fp o = Json.Str (Printf.sprintf "%d:%s" o.Streams.job.Gen.idx o.Streams.fp) in
  {
    Report.attempted;
    failed = bad + mismatches;
    metrics;
    fingerprint = fp;
    fingerprint_parts =
      [
        ("jobs", Json.Arr (List.map job_fp base.Streams.first));
        ("pass_cache_hits", jint hits);
        ("pass_cache_misses", jint misses);
      ];
    info;
  }

let serve ~seed ~seconds ~traced =
  let phase ~traced seconds = Servemix.run_phase ~seed ~seconds ~traced () in
  let base = phase ~traced:false (if traced then seconds /. 2.0 else seconds) in
  let measured = if traced then phase ~traced:true (seconds /. 2.0) else base in
  let fp = Servemix.fingerprint base and fp_traced = Servemix.fingerprint measured in
  let oks = base.Servemix.oks @ (if traced then measured.Servemix.oks else []) in
  let bad = List.length (List.filter not oks) + if fp = fp_traced then 0 else 1 in
  let mean p =
    Stats.sum (List.map (Servemix.scaled_lat p) p.Servemix.samples)
    /. float_of_int (List.length p.Servemix.samples)
  in
  let metrics =
    if traced then
      ("trace_overhead_pct", 100.0 *. ((mean measured /. mean base) -. 1.0))
      :: Servemix.layers ~seed measured
    else Servemix.end_to_end base
  in
  {
    Report.attempted = List.length oks;
    failed = bad;
    metrics;
    fingerprint = fp;
    fingerprint_parts = [ ("responses_per_client", jint Servemix.fingerprint_prefix) ];
    info =
      [
        ("requests", jint (List.length base.Servemix.samples));
        ("clients", jint Servemix.clients);
        ("daemon_jobs", jint Servemix.daemon_jobs);
        ("op_ms_tail_percentile", jnum 99.0);
        ("warmup_s", jnum Servemix.warmup_s);
        ( "unscaled_op_ms_p50",
          jnum
            (Stats.median
               (List.map (fun s -> Report.ms s.Servemix.lat) (Servemix.measured base))) );
        ("fingerprint_traced_matches", Json.Bool (fp = fp_traced));
      ];
  }

(* The fingerprint of a (workload, seed) is kept under perfbench/_out; a
   later run of the same pair, traced or not, must reproduce it. *)
let check_stored ~workload ~seed fp =
  let dir = Filename.concat Servemix.out_dir "fingerprints" in
  Servemix.mkdir_p dir;
  let path = Filename.concat dir (Printf.sprintf "%s-%d" workload seed) in
  if Sys.file_exists path then
    let stored = String.trim (In_channel.with_open_bin path In_channel.input_all) in
    if stored <> fp then begin
      prerr_endline
        (Printf.sprintf "perfbench: fingerprint %s differs from the stored %s (%s)"
           fp stored path);
      false
    end
    else true
  else begin
    Out_channel.with_open_bin path (fun oc -> output_string oc (fp ^ "\n"));
    true
  end

let () =
  let workload, seed, seconds, traced, flambda = args () in
  if not (Sys.file_exists "specs" && Sys.is_directory "specs") then
    fail "run from the repository root (specs/ not found)";
  line "env"
    (Json.Obj
       [
         ("workload", Json.Str workload);
         ("seed", jint seed);
         ("seconds", jnum seconds);
         ("trace", Json.Bool traced);
         ("nproc", jint (Domain.recommended_domain_count ()));
         ("ocaml", Json.Str Sys.ocaml_version);
         ("flambda", Json.Str flambda);
       ]);
  let r =
    if workload = "serve-mix" then serve ~seed ~seconds ~traced
    else stream ~workload ~seed ~seconds ~traced
  in
  let stored_ok = check_stored ~workload ~seed r.Report.fingerprint in
  let r = if stored_ok then r else { r with Report.failed = r.Report.failed + 1 } in
  line "fingerprint"
    (Json.Obj (("digest", Json.Str r.Report.fingerprint) :: r.Report.fingerprint_parts));
  line "info"
    (Json.Obj
       (( "failed_ratio",
          jnum
            (Stats.ratio (float_of_int r.Report.failed)
               (float_of_int r.Report.attempted)) )
        :: ("failed", jint r.Report.failed)
        :: ("attempted", jint r.Report.attempted)
        :: r.Report.info));
  if traced then begin
    let path =
      Filename.concat Servemix.out_dir (Printf.sprintf "trace-%s-%d.json" workload seed)
    in
    Out_channel.with_open_bin path (fun oc -> output_string oc (Spans.to_chrome ()));
    prerr_endline ("perfbench: wrote " ^ path)
  end;
  print_endline
    (Report.result_line
       ~names:(if traced then Report.per_layer else Report.end_to_end)
       r)
