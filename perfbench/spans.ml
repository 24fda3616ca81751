(* In-memory span recorder for the traced run.

   A span marks one call into a layer: its name, start, end, the span that
   was open when it began (its parent) and the job or request it served.
   User functions are not given a span per call (a stateful stream makes
   hundreds of thousands); their time is summed per function name and
   charged to the innermost open span, so a span's self time is its
   duration minus its child spans minus the user-function time inside it.
   With recording off every entry point is a plain call. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  layer : string;
  name : string;
  job : string;
  dom : int;  (** recording domain, the Chrome-trace lane *)
  start : float;
  mutable stop : float;
  mutable child : float;  (** seconds covered by child spans *)
  mutable userfn : float;  (** seconds of user functions called inside *)
  mutable tag : string;  (** set by the caller while the span is open *)
}

type fn_stat = { mutable calls : int; mutable time : float }

let enabled = ref false
let origin = ref 0.0
let lock = Mutex.create ()
let recorded : span list ref = ref []
let fn_stats : (string, fn_stat) Hashtbl.t = Hashtbl.create 16
let next_id = Atomic.make 0
let stack_key : span list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])
let now = Unix.gettimeofday

let reset ~on =
  enabled := on;
  origin := now ();
  recorded := [];
  Hashtbl.reset fn_stats;
  Atomic.set next_id 0

let with_span ~layer ~name ~job f =
  if not !enabled then f ()
  else begin
    let stack = Domain.DLS.get stack_key in
    let parent = match !stack with p :: _ -> p.id | [] -> -1 in
    let sp =
      {
        id = Atomic.fetch_and_add next_id 1;
        parent;
        layer;
        name;
        job;
        dom = (Domain.self () :> int);
        start = now ();
        stop = 0.0;
        child = 0.0;
        userfn = 0.0;
        tag = "";
      }
    in
    stack := sp :: !stack;
    Fun.protect f ~finally:(fun () ->
        sp.stop <- now ();
        stack := List.tl !stack;
        (match !stack with
        | p :: _ -> p.child <- p.child +. (sp.stop -. sp.start)
        | [] -> ());
        Mutex.protect lock (fun () -> recorded := sp :: !recorded))
  end

(* Tags the innermost open span (e.g. a pass as a cache hit or miss). *)
let tag t =
  if !enabled then
    match !(Domain.DLS.get stack_key) with p :: _ -> p.tag <- t | [] -> ()

let userfn name f v =
  if not !enabled then f v
  else begin
    let t = now () in
    let r = f v in
    let d = now () -. t in
    (match !(Domain.DLS.get stack_key) with
    | p :: _ -> p.userfn <- p.userfn +. d
    | [] -> ());
    Mutex.protect lock (fun () ->
        let s =
          match Hashtbl.find_opt fn_stats name with
          | Some s -> s
          | None ->
              let s = { calls = 0; time = 0.0 } in
              Hashtbl.replace fn_stats name s;
              s
        in
        s.calls <- s.calls + 1;
        s.time <- s.time +. d);
    r
  end

(* A copy of [table] whose base entries time themselves. Derived entries
   are installed later by compiles and call the base entries by name, so
   they are covered too; [Funtable.digest] reads only (name, arity), so
   cache keys are unchanged. *)
let wrap_table table =
  let t = Skel.Funtable.create () in
  List.iter
    (fun name ->
      if not (Skel.Funtable.is_derived table name) then begin
        let e = Skel.Funtable.find table name in
        Skel.Funtable.register t ~arity:e.Skel.Funtable.arity
          ~cost:e.Skel.Funtable.cost name
          (userfn name e.Skel.Funtable.apply)
      end)
    (Skel.Funtable.names table);
  t

let spans () = List.rev !recorded
let duration s = s.stop -. s.start
let self_time s = duration s -. s.child -. s.userfn

let fn_totals () =
  Hashtbl.fold (fun name s acc -> (name, s.calls, s.time) :: acc) fn_stats []
  |> List.sort compare

(* All recorded spans as one Chrome trace, one lane per recording domain,
   times relative to the last [reset]. *)
let to_chrome () =
  let module E = Skipper_trace.Event in
  let tl = E.create () in
  List.iter
    (fun s ->
      E.span tl
        ~lane:
          {
            E.track = 0;
            track_label = "perfbench";
            index = s.dom;
            label = Printf.sprintf "domain %d" s.dom;
          }
        ~cat:s.layer
        ~args:
          [
            ("id", E.Count s.id);
            ("parent", E.Count s.parent);
            ("job", E.Str s.job);
            ("tag", E.Str s.tag);
            ("userfn_ms", E.Num (s.userfn *. 1e3));
          ]
        ~name:s.name ~time:(s.start -. !origin) ~dur:(duration s) ())
    (spans ());
  Skipper_trace.Chrome.to_json tl
