(* serve-mix: an in-process [Serve.serve] daemon over a fresh store, with
   [jobs] fixed at 2, driven by two closed-loop clients. Each client sends
   its next batch only after the previous reply arrived; a request's
   latency is its batch's round trip as the client sees it. *)

open Skipper_lib
module Json = Support.Json

let out_dir = "perfbench/_out"
let clients = 2
let daemon_jobs = 2
let fingerprint_prefix = 64  (* responses per client the fingerprint covers *)
let replay_prefix = 300  (* requests per client the traced replay re-runs *)

(* The daemon's memory grows with the requests it has served, so peak
   resident memory is read when the clients together have had this many
   replies, not at the end of a run whose length in requests depends on
   the host's speed. Every run of the workload gets that far. *)
let rss_after = 10_000

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

(* Removes a store and waits until the removal is on disk, so the file
   system's deferred work for it does not land in a later measurement. *)
let sync_dir dir =
  let fd = Unix.openfile dir [ Unix.O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)

let discard_store dir =
  rm_rf dir;
  sync_dir (Filename.dirname dir)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

type daemon = {
  dom : int Domain.t;
  socket : string;
  dir : string;
}

let instance = ref 0

let config ~input ~store ~log =
  {
    Serve.table_of = (fun app -> Corpus.table app);
    input_of = (fun app -> if app = "stateful" then Some input else None);
    arch_of = Archi.ring;
    store;
    jobs = daemon_jobs;
    log;
    metrics = None;
    timeline = None;
  }

let spawn_daemon ?(started = Atomic.make nan) cfg ~socket =
  let dom =
    Domain.spawn (fun () ->
        Atomic.set started (Unix.gettimeofday ());
        Serve.serve cfg ~socket ())
  in
  match Serve.call ~retries:25_000 ~delay:0.0002 ~socket [ Serve.req_stats ] with
  | Ok _ -> dom
  | Error e -> failwith ("daemon did not come up: " ^ e)

let start_daemon ~input =
  incr instance;
  let tag = Printf.sprintf "%d-%d" (Unix.getpid ()) !instance in
  let dir = Filename.concat out_dir ("serve-" ^ tag) in
  (* relative, so the path fits a Unix socket address wherever the
     checkout lives *)
  let socket = Filename.concat out_dir ("s" ^ tag ^ ".sock") in
  mkdir_p dir;
  let store =
    Support.Store.open_store ~dir:(Filename.concat dir "store")
      ~stamp:Passes.artifact_format ()
  in
  let cfg = config ~input ~store:(Some store) ~log:Support.Log.null in
  { dom = spawn_daemon cfg ~socket; socket; dir }

let stop_daemon d =
  (match Serve.call ~socket:d.socket [ Serve.req_shutdown ] with
  | Ok _ -> ()
  | Error e -> prerr_endline ("perfbench: shutdown: " ^ e));
  ignore (Domain.join d.dom)

(* ------------------------------------------------------------------ *)

(* The parts of a response the checks and metrics read; the parsed JSON
   is dropped at once to keep a sample small. *)
type reply = {
  status_ok : bool;
  digest : string option;  (** graph_digest *)
  value : string option;
  wall_ms : float option;  (** the daemon's service time *)
  frames : float option;
  messages : float option;
  cache : string;  (** the pass-cache counters, as JSON *)
}

type sample = {
  client : int;
  req : Gen.request;
  lat : float;  (** seconds, the batch round trip *)
  epoch : int;
  resp : reply option;  (** [None] when the call itself failed *)
}

let str j k = Option.bind (Json.member k j) Json.to_str
let num j k = Option.bind (Json.member k j) Json.to_float

let reply_of j =
  {
    status_ok = str j "status" = Some "ok";
    digest = str j "graph_digest";
    value = str j "value";
    wall_ms = num j "wall_ms";
    frames = num j "frames";
    messages = num j "messages";
    cache = Json.to_string (Option.value (Json.member "cache" j) ~default:Json.Null);
  }

let to_json ~sources ~client = function
  | Gen.Compile { spec; frames; optimize; _ } ->
      Serve.req_compile ~frames ~optimize ~app:(Corpus.app_of spec)
        (Hashtbl.find sources (client, spec))
  | Gen.Run { spec; frames; procs; strategy } ->
      Serve.req_run ~frames ~strategy ~procs ~app:(Corpus.app_of spec)
        (Hashtbl.find sources (client, spec))

(* The run is cut into epochs of [epoch_s]. Between epochs both clients
   are idle, so the daemon is too, and the main domain takes a
   calibration sample (see [Calib]); an epoch's times are scaled by the
   samples either side of it. Within an epoch each client sends batches
   in a closed loop until the epoch's end. *)
let epoch_s = 0.25

(* The daemon's throughput climbs over the first seconds of a run, as its
   store fills and its heap grows; epochs that start within [warmup_s]
   are served and checked but not measured, and the measured epochs run
   for the full [--seconds] after them. *)
let warmup_s = 5.0

type gate = {
  m : Mutex.t;
  c : Condition.t;
  mutable opened : int;  (** the open epoch; 0 before the first *)
  mutable until : float;  (** when the open epoch ends *)
  mutable busy : int;  (** clients still in the open epoch *)
  mutable stop : bool;
}

let client_loop ~socket ~sources ~seed ~client ~gate ~inflight ~maxq ~served ~rss =
  let next = Gen.client_batches ~seed ~client in
  let samples = ref [] and nbatch = ref 0 in
  let rec await seen =
    Mutex.lock gate.m;
    while gate.opened = seen && not gate.stop do
      Condition.wait gate.c gate.m
    done;
    let epoch = gate.opened and until = gate.until and stop = gate.stop in
    Mutex.unlock gate.m;
    if not stop then begin
      let first = ref true in
      (* at least one batch an epoch, however late the client wakes *)
      while !first || Unix.gettimeofday () < until do
        first := false;
        let batch = next () in
        let n = List.length batch in
        let q = Atomic.fetch_and_add inflight n + n in
        let rec raise_max () =
          let m = Atomic.get maxq in
          if q > m && not (Atomic.compare_and_set maxq m q) then raise_max ()
        in
        raise_max ();
        let reqs = List.map (to_json ~sources ~client) batch in
        let t0 = Unix.gettimeofday () in
        let res =
          Spans.with_span ~layer:"serve" ~name:"batch"
            ~job:(Printf.sprintf "c%d.b%d" client !nbatch)
            (fun () -> Serve.call ~socket reqs)
        in
        let lat = Unix.gettimeofday () -. t0 in
        ignore (Atomic.fetch_and_add inflight (-n));
        let total = Atomic.fetch_and_add served n + n in
        if total >= rss_after && total - n < rss_after then
          Atomic.set rss (Stats.peak_rss_mb ());
        incr nbatch;
        let resps =
          match res with
          | Ok rs -> List.map (fun r -> Some (reply_of r)) rs
          | Error e ->
              prerr_endline ("perfbench: call failed: " ^ e);
              List.map (fun _ -> None) batch
        in
        List.iter2
          (fun req resp -> samples := { client; req; lat; epoch; resp } :: !samples)
          batch resps
      done;
      Mutex.lock gate.m;
      gate.busy <- gate.busy - 1;
      Condition.broadcast gate.c;
      Mutex.unlock gate.m;
      await epoch
    end
  in
  await 0;
  List.rev !samples

(* ------------------------------------------------------------------ *)
(* Checks: every response is ok, and its graph is the one an in-process
   compile of the same request gives. A response carries only a digest of
   its graph, so the graph is read back from the daemon's store (where
   the daemon left it) and must digest to what the response said, then is
   compared with a fresh compile, generated-name suffixes aside (see
   [Report.graph_digest]). A run's value must equal the sequential
   emulation of the same program. *)

type reference = {
  graphs : (int * string * int * bool, string * string * bool) Hashtbl.t;
      (** key -> stored graph's digest, normalised digest, matches fresh *)
  values : (int * string * int, string) Hashtbl.t;
  cache : Passes.cache;
  store : Support.Store.t;  (** the daemon's store, reopened *)
}

let new_reference ~dir =
  {
    graphs = Hashtbl.create 256;
    values = Hashtbl.create 32;
    cache = Passes.create_cache ();
    store =
      Support.Store.open_store ~dir:(Filename.concat dir "store")
        ~stamp:Passes.artifact_format ();
  }

let compile ?store ~cache ~sources ~client spec frames optimize =
  let cache = match store with Some st -> Passes.create_cache ~store:st () | None -> cache in
  Pipeline.compile_source ~frames ~optimize ~cache
    ~table:(Corpus.table (Corpus.app_of spec))
    (Hashtbl.find sources (client, spec))

let ref_graph rf ~sources ~client spec frames optimize =
  let k = (client, spec, frames, optimize) in
  match Hashtbl.find_opt rf.graphs k with
  | Some g -> g
  | None ->
      let stored =
        compile ~store:rf.store ~cache:rf.cache ~sources ~client spec frames optimize
      in
      let fresh = compile ~cache:rf.cache ~sources ~client spec frames optimize in
      let n = Report.graph_digest stored.Pipeline.graph in
      let g =
        ( Stage.fingerprint (Stage.Graph stored.Pipeline.graph),
          n,
          n = Report.graph_digest fresh.Pipeline.graph )
      in
      Hashtbl.replace rf.graphs k g;
      g

let ref_value rf ~sources ~input ~client spec frames =
  let k = (client, spec, frames) in
  match Hashtbl.find_opt rf.values k with
  | Some v -> v
  | None ->
      let c = compile ~cache:rf.cache ~sources ~client spec frames false in
      let v = Skel.Value.to_string (Pipeline.emulate c input) in
      Hashtbl.replace rf.values k v;
      v

let graph_key = function
  | Gen.Compile { spec; frames; optimize; _ } -> (spec, frames, optimize)
  | Gen.Run { spec; frames; _ } -> (spec, frames, false)

let check rf ~sources ~input s =
  match s.resp with
  | None -> false
  | Some r -> (
      r.status_ok
      &&
      let spec, frames, optimize = graph_key s.req in
      let stored, _, same = ref_graph rf ~sources ~client:s.client spec frames optimize in
      same
      && r.digest = Some stored
      &&
      match s.req with
      | Gen.Compile _ -> true
      | Gen.Run _ ->
          r.value = Some (ref_value rf ~sources ~input ~client:s.client spec frames))

(* ------------------------------------------------------------------ *)

type phase = {
  samples : sample list;
  oks : bool list;  (** aligned with [samples] *)
  graphs : string list;  (** normalised graph digest, aligned with [samples] *)
  epochs : (float * float) array;
      (** per epoch from 1 (index 0 unused): host seconds, the same scaled *)
  measured_from : int;  (** the first epoch after the warm-up *)
  setup_s : float;
  stats : Json.t option;  (** the daemon's [stats] after the run *)
  maxq : int;
  peak_rss_mb : float;  (** after [rss_after] replies, or at the end if fewer *)
  sources : (int * string, string) Hashtbl.t;
}

(* Set-up samples are taken after the clients stop. A sample is a daemon
   of its own: the time from its domain starting to run until it logs
   that it is listening. The in-process daemon's domain stands in for the
   daemon process a user starts, so creating it is not counted, nor is
   the client's polling for the socket: with every domain on one CPU, a
   new domain sometimes waited a whole 4-ms scheduler tick before it ran.
   The sample's daemon has no store and listens on an abstract socket, so
   it touches no file: on the shared VM's disk, file-system calls waited
   behind other runs' file churn, and samples with a store read 0.1 ms in
   one run and 1.8 ms in the next. Opening a store is timed by the
   per-layer [store] metrics instead. *)
let setup_reps = 41

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let setup_sample ~input =
  incr instance;
  let socket = Printf.sprintf "\000perfbench-%d-%d" (Unix.getpid ()) !instance in
  let started = Atomic.make nan and ready = Atomic.make nan in
  let log =
    Support.Log.create (fun line ->
        if Float.is_nan (Atomic.get ready) && contains line "\"listening\"" then
          Atomic.set ready (Unix.gettimeofday ()))
  in
  let cfg = config ~input ~store:None ~log in
  let t, dom =
    Calib.bracket (fun () ->
        let dom = spawn_daemon ~started cfg ~socket in
        (Atomic.get ready -. Atomic.get started, dom))
  in
  stop_daemon { dom; socket; dir = "" };
  t

let run_phase ?(corrupt = false) ~seed ~seconds ~traced () =
  mkdir_p out_dir;
  let input = Corpus.stateful_input seed in
  let sources = Hashtbl.create 16 in
  List.iter
    (fun (spec, _) ->
      let src = Corpus.source spec in
      for c = 0 to clients - 1 do
        Hashtbl.replace sources (c, spec) (Gen.client_source ~client:c src)
      done)
    Corpus.specs;
  let d = start_daemon ~input in
  Spans.reset ~on:traced;
  let inflight = Atomic.make 0 and maxq = Atomic.make 0 in
  let served = Atomic.make 0 and rss = Atomic.make nan in
  let gate =
    {
      m = Mutex.create ();
      c = Condition.create ();
      opened = 0;
      until = 0.0;
      busy = 0;
      stop = false;
    }
  in
  let doms =
    List.init clients (fun client ->
        Domain.spawn (fun () ->
            client_loop ~socket:d.socket ~sources ~seed ~client ~gate ~inflight ~maxq
              ~served ~rss))
  in
  let t0 = Unix.gettimeofday () in
  let epochs = ref [ (0.0, 0.0) ] and calib = ref (Calib.sample ()) in
  let measured_from = ref 0 in
  while !measured_from = 0 || Unix.gettimeofday () -. t0 < warmup_s +. seconds do
    let start = Unix.gettimeofday () in
    if !measured_from = 0 && start -. t0 >= warmup_s then measured_from := gate.opened + 1;
    Mutex.lock gate.m;
    gate.opened <- gate.opened + 1;
    gate.until <- start +. epoch_s;
    gate.busy <- clients;
    Condition.broadcast gate.c;
    while gate.busy > 0 do
      Condition.wait gate.c gate.m
    done;
    Mutex.unlock gate.m;
    let t = Unix.gettimeofday () -. start in
    let after = Calib.sample () in
    epochs := (t, Calib.scale ~before:!calib ~after t) :: !epochs;
    calib := after
  done;
  Mutex.lock gate.m;
  gate.stop <- true;
  Condition.broadcast gate.c;
  Mutex.unlock gate.m;
  let samples = List.concat_map Domain.join doms in
  let setup_times = List.init setup_reps (fun _ -> setup_sample ~input) in
  let epochs = Array.of_list (List.rev !epochs) in
  let peak_rss_mb =
    if Float.is_nan (Atomic.get rss) then Stats.peak_rss_mb () else Atomic.get rss
  in
  Spans.enabled := false;
  let stats =
    match Serve.call ~socket:d.socket [ Serve.req_stats ] with
    | Ok [ s ] -> Some s
    | _ -> None
  in
  stop_daemon d;
  let rf = new_reference ~dir:d.dir in
  let samples =
    if corrupt then
      List.map
        (fun s ->
          { s with resp = Option.map (fun r -> { r with digest = Some "corrupt" }) s.resp })
        samples
    else samples
  in
  let oks = List.map (check rf ~sources ~input) samples in
  let graphs =
    List.map
      (fun s ->
        let spec, frames, optimize = graph_key s.req in
        match ref_graph rf ~sources ~client:s.client spec frames optimize with
        | _, n, _ -> n
        | exception _ -> "-")
      samples
  in
  discard_store d.dir;
  {
    samples;
    oks;
    graphs;
    epochs;
    measured_from = !measured_from;
    setup_s = Stats.median setup_times;
    stats;
    maxq = Atomic.get maxq;
    peak_rss_mb;
    sources;
  }

(* The deterministic part of each client's first responses: what was
   asked, the graph digest, the pass-cache and store hit counts, and for
   runs the value and message count. *)
let fingerprint p =
  let parts =
    List.concat_map
      (fun c ->
        let mine =
          List.filter (fun (s, _) -> s.client = c) (List.combine p.samples p.graphs)
        in
        let first = List.filteri (fun i _ -> i < fingerprint_prefix) mine in
        Printf.sprintf "client%d:%d" c (List.length first)
        :: List.map
             (fun (s, graph) ->
               String.concat "|"
                 (Gen.kind s.req :: Gen.spec_of s.req :: graph
                 ::
                 (match s.resp with
                 | None -> [ "no reply" ]
                 | Some r ->
                     [
                       r.cache;
                       Option.value r.value ~default:"-";
                       Option.fold ~none:"-" ~some:string_of_float r.messages;
                     ])))
             first)
      (List.init clients Fun.id)
  in
  Digest.to_hex (Digest.string (String.concat "\n" parts))

let wall_ms s = Option.bind s.resp (fun r -> r.wall_ms)

(* A request's latency at the reference host speed: scaled as its epoch. *)
let scaled_lat p s =
  let t, scaled = p.epochs.(s.epoch) in
  s.lat *. scaled /. t

let measured p = List.filter (fun s -> s.epoch >= p.measured_from) p.samples

(* Rates are medians over the measured epochs of an epoch's requests (or
   frames) over its scaled time, and latencies are scaled, so all are at
   the reference host speed. p99 is taken per window of [tail_epochs]
   epochs, which holds about 2,000 requests (20 beyond its p99), and the
   median over the windows is reported: a few stalled batches in one
   window moved a p99 over the whole run by 15% between runs. *)
let tail_epochs = 4

let end_to_end p =
  let samples = measured p in
  let count = Array.make (Array.length p.epochs) 0.0 in
  let frames = Array.make (Array.length p.epochs) 0.0 in
  List.iter
    (fun s ->
      count.(s.epoch) <- count.(s.epoch) +. 1.0;
      match (s.req, Option.bind s.resp (fun r -> r.frames)) with
      | Gen.Run _, Some f -> frames.(s.epoch) <- frames.(s.epoch) +. f
      | _ -> ())
    samples;
  let per_epoch a =
    Stats.median
      (List.init
         (Array.length p.epochs - p.measured_from)
         (fun i ->
           let e = p.measured_from + i in
           a.(e) /. snd p.epochs.(e)))
  in
  let lat = List.map (fun s -> Report.ms (scaled_lat p s)) samples in
  let windows = Hashtbl.create 64 in
  List.iter2
    (fun s l ->
      let w = (s.epoch - p.measured_from) / tail_epochs in
      let ls = Option.value (Hashtbl.find_opt windows w) ~default:[] in
      Hashtbl.replace windows w (l :: ls))
    samples lat;
  let tail =
    Stats.median
      (Hashtbl.fold (fun _ ls acc -> Stats.percentile 0.99 ls :: acc) windows [])
  in
  [
    ("setup_s", p.setup_s);
    ("ops_per_s", per_epoch count);
    ("frames_per_s", per_epoch frames);
    ("op_ms_p50", Stats.median lat);
    ("op_ms_tail", tail);
    ("peak_rss_mb", p.peak_rss_mb);
  ]

(* Replays each client's first requests in process through [Passes], as
   the daemon serves them (a fresh table and in-memory cache per request,
   over one store), with a span per pass. This splits service time by
   layer, which the client-side spans cannot see. *)
let replay ~seed p =
  let input = Corpus.stateful_input seed in
  let dir = Filename.concat out_dir (Printf.sprintf "replay-%d" (Unix.getpid ())) in
  rm_rf dir;
  let store =
    Support.Store.open_store ~dir:(Filename.concat dir "store")
      ~stamp:Passes.artifact_format ()
  in
  let firsts =
    List.init clients (fun c ->
        List.filteri (fun i _ -> i < replay_prefix)
          (List.filter (fun s -> s.client = c) p.samples))
  in
  let frames = ref 0 and msgs = ref 0 in
  Spans.enabled := true;
  List.iteri
    (fun i s ->
      let jid = Printf.sprintf "replay%d" i in
      let span layer name f = Spans.with_span ~layer ~name ~job:jid f in
      let spec = Gen.spec_of s.req in
      let table = Spans.wrap_table (Corpus.table (Corpus.app_of spec)) in
      let cache = Passes.create_cache ~store () in
      let _, nframes, optimize = graph_key s.req in
      let ctx = Passes.make_ctx ~cache ~frames:nframes ~optimize table in
      let run_pass = Streams.traced_pass ~job:jid in
      try
        span "job" (Gen.kind s.req) (fun () ->
            let graph =
              List.fold_left
                (fun art pass -> run_pass ctx "frontend" (Passes.pass_name pass) pass art)
                (Stage.Source (Hashtbl.find p.sources (s.client, spec)))
                Passes.frontend
            in
            match s.req with
            | Gen.Compile _ -> ()
            | Gen.Run { procs; strategy; _ } -> (
                let bctx = Passes.retarget ~input ~strategy ctx (Archi.ring procs) in
                let costed = run_pass bctx "mapper" "cost" Passes.cost graph in
                let sched = run_pass bctx "mapper" ("map." ^ strategy) Passes.map costed in
                match run_pass bctx "sim" "simulate" Passes.simulate sched with
                | Stage.Result r ->
                    frames := !frames + List.length r.Executive.outputs;
                    msgs := !msgs + r.Executive.stats.Machine.Sim.messages
                | _ -> ()))
      with e -> prerr_endline ("perfbench: replay failed: " ^ Printexc.to_string e))
    (List.concat firsts);
  Spans.enabled := false;
  discard_store dir;
  (!frames, !msgs)

let layers ~seed p =
  let frames, msgs = replay ~seed p in
  let spans = List.filter (fun s -> s.Spans.layer <> "serve") (Spans.spans ()) in
  let by_kind k =
    List.filter_map
      (fun s -> if Gen.kind s.req = k then wall_ms s else None)
      p.samples
  in
  let waits =
    List.filter_map
      (fun s -> Option.map (fun w -> Report.ms s.lat -. w) (wall_ms s))
      p.samples
  in
  let store k =
    Option.value ~default:0.0
      (Option.bind p.stats (fun st -> Option.bind (Json.member "store" st) (fun j -> num j k)))
  in
  let metric_values section name =
    match Option.bind p.stats (fun st -> Json.member "metrics" st) with
    | None -> []
    | Some m ->
        List.filter_map
          (fun j ->
            if str j "name" = Some name then num j "value" else None)
          (Option.value (Option.bind (Json.member section m) Json.to_list) ~default:[])
  in
  let counter n = Stats.sum (metric_values "counters" n) in
  let busy = Stats.sum (metric_values "gauges" "skipper_serve_domain_busy_seconds") in
  let uptime =
    Option.value (Option.bind p.stats (fun st -> num st "uptime_s")) ~default:0.0
  in
  let sh = store "hits" and sm = store "misses" in
  let ch = counter "skipper_serve_cache_hits_total"
  and cm = counter "skipper_serve_cache_misses_total" in
  let sims = List.filter (fun s -> s.Spans.layer = "sim") spans in
  let sim_self = Stats.sum (List.map Spans.self_time sims) in
  let med l = if l = [] then 0.0 else Stats.median l in
  Report.from_spans ~frames spans
  @ [
      ("frontend.cache_hit_ratio", Stats.ratio ch (ch +. cm));
      ("sim.us_per_msg", Stats.ratio (sim_self *. 1e6) (float_of_int msgs));
      ("sim.msgs_per_frame", Stats.ratio (float_of_int msgs) (float_of_int frames));
      ("sim.messages", float_of_int msgs);
      ("store.hit_ratio", Stats.ratio sh (sh +. sm));
      ("store.bytes_read", store "bytes_read");
      ("store.bytes_written", store "bytes_written");
      ("store.misses_absent", store "absent");
      ("serve.service_ms_p50.compile_cold", med (by_kind "compile_cold"));
      ("serve.service_ms_p50.compile_warm", med (by_kind "compile_warm"));
      ("serve.service_ms_p50.run", med (by_kind "run"));
      ("serve.wait_ms_p50", med waits);
      ("serve.wait_ms_p99", if waits = [] then 0.0 else Stats.percentile 0.99 waits);
      ("serve.queue_depth_max", float_of_int p.maxq);
      ( "serve.domain_busy_frac",
        Stats.ratio busy (uptime *. float_of_int daemon_jobs) );
    ]
