(** The SKiPPER environment, end to end (paper Fig. 2).

    A thin façade over the staged pass manager ({!Passes}): compilation runs
    the front-end passes (parse, typecheck, extract, transform, expand),
    mapping and execution run the target passes (cost, map, emit, simulate).
    Every pass is timed into a {!Stage.report} retrievable with {!reports} /
    {!pp_timings}, and front-end artifacts are memoized when a
    {!Passes.cache} is supplied — compiling one source for many
    architectures pays the front end once (the paper's §4 "almost
    instantaneous" processor-count variants). *)

type compiled = {
  name : string;
  table : Skel.Funtable.t;
  program : Skel.Ir.program;
  graph : Procnet.Graph.t;
  input : Skel.Value.t option;  (** program input when the source fixes it *)
  signatures : (string * string) list;
      (** inferred type schemes of the top-level names (source path only) *)
  ctx : Passes.ctx;  (** the pass context; accumulates stage reports *)
  stages : (string * Stage.artifact) list;
      (** every front-end pass's output, by pass name, in pipeline order *)
}

type strategy = Passes.strategy
(** A mapping-strategy name from the {!Syndex.Mapper} registry (e.g.
    ["heft"], ["canonical"], ["roundrobin"], ["throughput"],
    ["bicriteria"]); see {!Syndex.Mapper.names}. *)

exception Compile_error of string
(** Carries a rendered, located error message from any stage (an alias of
    {!Passes.Pass_error}). *)

val compile_source :
  ?frames:int ->
  ?optimize:bool ->
  ?df_state:Skel.Ir.state_mode ->
  ?cache:Passes.cache ->
  table:Skel.Funtable.t ->
  string ->
  compiled
(** Parse, type-check (with the skeleton signatures in scope), extract the
    skeletal program, optionally normalise it with the transformational
    rules ({!Skel.Transform}, default off), and expand to a process network.
    Wrapper glue functions are registered into [table]. [df_state] overrides
    the declared state-access mode of every [df] farm (the [--df-state]
    flag); the program's init value must already have the target mode's
    shape. With [cache], every front-end artifact is memoized on (content
    hash, pass, options, table identity). *)

val compile_ir :
  ?optimize:bool ->
  ?df_state:Skel.Ir.state_mode ->
  ?cache:Passes.cache ->
  table:Skel.Funtable.t ->
  Skel.Ir.program ->
  compiled
(** The embedded-API entry: validates a hand-built program, then runs the
    transform and expand passes ([df_state] as in {!compile_source}). *)

val emulate : compiled -> Skel.Value.t -> Skel.Value.t
(** Sequential emulation via the declarative semantics ({!Skel.Sem}). *)

val default_cost : compiled -> Syndex.Cost.t
(** Static cost model for mapping; uses the generic defaults (the simulator
    charges exact data-dependent costs at run time regardless). *)

val map :
  ?strategy:strategy -> ?cost:Syndex.Cost.t -> compiled -> Archi.t ->
  Syndex.Schedule.t
(** Produce the static schedule/placement (default strategy ["canonical"],
    the paper's Fig. 1 layout; ["heft"] enables the automatic adequation
    heuristic, ["throughput"]/["bicriteria"] the frame-pipelined interval
    mappers). Runs the cost and map passes. *)

val execute :
  ?trace:bool ->
  ?input_period:float ->
  ?plan:Executive.plan ->
  ?strategy:strategy ->
  ?cost:Syndex.Cost.t ->
  ?input:Skel.Value.t ->
  compiled ->
  Archi.t ->
  Syndex.Schedule.t * Executive.result
(** Map then run on the simulated machine (the cost, map and simulate
    passes), returning the static schedule the map pass produced — the
    predicted side of {!Executive.conformance} — next to the run result.
    [input] overrides the compiled input; raises [Compile_error] when
    neither is available. [plan] (default {!Executive.no_faults}) injects
    faults into the simulated machine and arms the recovery and checkpoint
    disciplines (see {!Executive.plan}); a stalled degraded run comes back
    as a [Stalled] outcome, not an exception. *)

val check_equivalence :
  ?input:Skel.Value.t -> compiled -> Archi.t -> (Skel.Value.t, string) result
(** Runs both paths with fresh state and compares results; [Ok v] returns
    the common value. This is the paper's correctness story: the emulated
    specification and the distributed executive must agree. *)

val macro_code : compiled -> Syndex.Schedule.t -> string
(** The emit pass: per-processor m4 macro-code for a schedule. *)

val reports : compiled -> Stage.report list
(** Per-stage instrumentation, in execution order, accumulated across
    compile / map / execute calls on this value. *)

val timeline :
  ?result:Executive.result ->
  ?slo:Skipper_trace.Series.Slo.report ->
  compiled ->
  Skipper_trace.Event.timeline
(** One unified timeline for the whole toolchain run: every stage report as
    a span on the compile lane, plus — when [result] is given — the
    simulated run's full message-lifecycle trace (processor lanes, link
    lanes, flow arrows), plus — when [slo] is given — the SLO monitor's
    state transitions as instants on the SLO lanes. Export with
    {!Skipper_trace.Chrome.to_json} or {!Skipper_trace.Svg.gantt}. *)

val pp_timings : Format.formatter -> compiled -> unit
(** {!reports} as a fixed-width table. *)

val timings_json : compiled -> string
(** {!reports} as a JSON array. *)

val dump_stage :
  ?arch:Archi.t ->
  ?strategy:strategy ->
  ?cost:Syndex.Cost.t ->
  ?input:Skel.Value.t ->
  compiled ->
  string ->
  (string, string) result
(** Render one stage's artifact by pass name. Front-end stages come from
    the recorded compile artifacts; target stages ([cost], [map], [emit],
    [simulate]) are (re)run against [arch]. *)

val graph_dot : compiled -> string
val pp_signatures : Format.formatter -> compiled -> unit
