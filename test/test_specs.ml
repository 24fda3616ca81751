(* Integration tests over the specification corpus in specs/: every .mls
   file must lex, parse, type-check, extract, expand, map and satisfy the
   emulation/executive equivalence on a small configuration. This is the
   user-facing contract of the whole toolchain. *)

module P = Skipper_lib.Pipeline
module V = Skel.Value

let specs_dir =
  (* dune runs tests in _build/default/test; the sources are two levels up. *)
  let rec find dir =
    let candidate = Filename.concat dir "specs" in
    if Sys.file_exists candidate && Sys.is_directory candidate then Some candidate
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else find parent
  in
  find (Sys.getcwd ())

let read path = In_channel.with_open_bin path In_channel.input_all

(* Each spec is paired with the function table and input that drive it. *)
let harness_for = function
  | "tracking.mls" ->
      let config =
        {
          Tracking.Funcs.default_config with
          Tracking.Funcs.scene =
            { Vision.Scene.default_params with Vision.Scene.width = 192; height = 192 };
        }
      in
      Some (Tracking.Funcs.table config, None, 2)
  | "ccl.mls" ->
      let t = Skel.Funtable.create () in
      Apps.Ccl_scm.register t;
      Some (t, Some (V.Image (Apps.Ccl_scm.blobs_image ~nblobs:10 64 64)), 1)
  | "road.mls" ->
      let t = Skel.Funtable.create () in
      Apps.Road.register ~width:512 ~height:512 t;
      Skel.Funtable.register t "zero_lane" ~arity:0 ~cost:(fun _ -> 1.0) (fun _ ->
          Apps.Road.lane_to_value
            { Apps.Road.offset = 0.0; slope = 0.0; confidence = 0.0 });
      Some (t, None, 2)
  | "quadtree.mls" ->
      let t = Skel.Funtable.create () in
      Apps.Quadtree.register t;
      Some (t, Some (V.Image (Apps.Ccl_scm.blobs_image ~nblobs:5 48 48)), 1)
  (* The stateful-farm family: one spec per state-access mode, several
     frames each so cross-frame state carry is actually exercised. *)
  | "histacc.mls" | "expgain.mls" | "ownerpeak.mls" | "resmooth.mls" ->
      let t = Skel.Funtable.create () in
      Apps.Stateful.register t;
      Some (t, Some (Apps.Stateful.input_value ()), 3)
  | _ -> None

let spec_files () =
  match specs_dir with
  | None -> []
  | Some dir ->
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".mls")
      |> List.sort compare
      |> List.map (fun f -> (f, Filename.concat dir f))

let test_corpus_is_present () =
  let files = spec_files () in
  Alcotest.(check bool)
    (Printf.sprintf "found %d specs" (List.length files))
    true
    (List.length files >= 4);
  (* every spec has a harness, so none silently escapes the suite *)
  List.iter
    (fun (name, _) ->
      Alcotest.(check bool) (name ^ " has a harness") true (harness_for name <> None))
    files

let check_spec (name, path) () =
  match harness_for name with
  | None -> Alcotest.skip ()
  | Some (table, input, frames) -> (
      let compiled = P.compile_source ~frames ~table (read path) in
      Alcotest.(check bool) (name ^ " names some skeleton") true
        (Skel.Ir.skeleton_instances compiled.P.program.Skel.Ir.body <> []);
      let arch = Archi.ring 4 in
      let schedule = P.map compiled arch in
      (match Syndex.Schedule.validate schedule with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: invalid schedule: %s" name m);
      Alcotest.(check bool) (name ^ " deadlock-free") true
        (Syndex.Schedule.deadlock_free schedule);
      match P.check_equivalence ?input compiled arch with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "%s: %s" name m)

(* The same corpus as one farmed sweep — the opt-in parallel mode for
   heavyweight suites: SKIPPER_JOBS>1 runs one self-contained job per spec
   on the domain pool (sequential when unset). Failures surface exactly as
   in the per-spec cases because the pool re-raises the earliest one. *)
let test_corpus_through_pool () =
  let jobs = Support.Domain_pool.jobs_from_env () in
  Support.Domain_pool.run ~jobs
    (List.map (fun spec () -> check_spec spec ()) (spec_files ()))
  |> List.iter (fun () -> ())

(* The simulator kernel's work is linear in stream length: finished link
   reservations retire behind the clock, so a link's gap structure holds
   only the transfers in flight. Sixteen times the frames makes about
   sixteen times the reservations, while the live-interval high-water stays
   put (an unretired structure would hold every reservation ever made).
   Counts, not times, so the check holds on any host. *)
let test_kernel_live_intervals_bounded () =
  let counters frames =
    match (specs_dir, harness_for "expgain.mls") with
    | Some dir, Some (table, input, _) ->
        let compiled =
          P.compile_source ~frames ~table (read (Filename.concat dir "expgain.mls"))
        in
        let _, result =
          P.execute ~strategy:"canonical" ?input compiled (Archi.ring 8)
        in
        Machine.Sim.kernel_counters result.Executive.sim
    | _ -> Alcotest.fail "expgain.mls and its harness must be present"
  in
  let sum f (k : Machine.Sim.kernel_counters) =
    List.fold_left (fun acc l -> acc + f l) 0 k.Machine.Sim.per_link
  in
  let reservations = sum (fun l -> l.Machine.Sim.reservations) in
  let live_hw (k : Machine.Sim.kernel_counters) =
    List.fold_left
      (fun acc l -> max acc l.Machine.Sim.live_high_water)
      0 k.Machine.Sim.per_link
  in
  let short = counters 20 and long = counters 320 in
  Alcotest.(check bool) "links carried traffic" true (reservations short > 0);
  Alcotest.(check bool)
    (Printf.sprintf "reservations grow with the stream (%d -> %d)"
       (reservations short) (reservations long))
    true
    (reservations long >= 12 * reservations short);
  Alcotest.(check bool)
    (Printf.sprintf "events grow with the stream (%d -> %d)"
       short.Machine.Sim.events_dispatched long.Machine.Sim.events_dispatched)
    true
    (long.Machine.Sim.events_dispatched >= 12 * short.Machine.Sim.events_dispatched);
  Alcotest.(check bool)
    (Printf.sprintf "live-interval high-water stays bounded (%d -> %d)"
       (live_hw short) (live_hw long))
    true
    (live_hw long <= 2 * live_hw short);
  Alcotest.(check bool) "event queue high-water observed" true
    (long.Machine.Sim.queue_high_water > 0)

let () =
  let per_spec =
    List.map
      (fun spec -> Alcotest.test_case (fst spec) `Quick (check_spec spec))
      (spec_files ())
  in
  Alcotest.run "specs"
    [
      ("corpus", [ Alcotest.test_case "present and covered" `Quick test_corpus_is_present ]);
      ("end-to-end", per_spec);
      ( "kernel",
        [
          Alcotest.test_case "live link intervals bounded" `Quick
            test_kernel_live_intervals_bounded;
        ] );
      ( "pooled",
        [ Alcotest.test_case "corpus as a farmed sweep" `Quick test_corpus_through_pool ] );
    ]
