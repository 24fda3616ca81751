(* The application function tables, as [skipperc --app] builds them, and
   the spec corpus. The benchmark reads specs from the checkout's specs/
   directory, so it must run from the repository root. *)

let specs =
  [
    ("tracking", "tracking");
    ("ccl", "ccl");
    ("road", "road");
    ("quadtree", "quadtree");
    ("expgain", "stateful");
    ("histacc", "stateful");
    ("ownerpeak", "stateful");
    ("resmooth", "stateful");
  ]
(** Every spec with the application table it compiles against. *)

let stateful_specs = [ "expgain"; "histacc"; "ownerpeak"; "resmooth" ]
let app_of spec = List.assoc spec specs

let source spec =
  In_channel.with_open_bin (Filename.concat "specs" (spec ^ ".mls"))
    In_channel.input_all

let tracking_config ~scene_seed =
  {
    Tracking.Funcs.default_config with
    Tracking.Funcs.scene =
      { Vision.Scene.default_params with Vision.Scene.seed = scene_seed };
  }

let table ?(scene_seed = Vision.Scene.default_params.Vision.Scene.seed) app =
  let t = Skel.Funtable.create () in
  (match app with
  | "tracking" -> Tracking.Funcs.register (tracking_config ~scene_seed) t
  | "ccl" -> Apps.Ccl_scm.register t
  | "road" ->
      Apps.Road.register ~width:512 ~height:512 t;
      Skel.Funtable.register t "zero_lane" ~arity:0 ~cost:(fun _ -> 1.0)
        (fun _ ->
          Apps.Road.lane_to_value
            { Apps.Road.offset = 0.0; slope = 0.0; confidence = 0.0 })
  | "quadtree" -> Apps.Quadtree.register t
  | "stateful" -> Apps.Stateful.register t
  | other -> invalid_arg ("unknown application " ^ other));
  t

(* A 64x64 input frame for the stateful specs: a gradient plus seeded
   noise, so strip sums (and the farms' bucket choices) differ per seed. *)
let stateful_input seed =
  let rng = Support.Prng.create seed in
  let img = Vision.Image.create 64 64 in
  for y = 0 to 63 do
    for x = 0 to 63 do
      Vision.Image.set img x y (((x + y) * 2) + Support.Prng.int rng 64)
    done
  done;
  Skel.Value.Image img
