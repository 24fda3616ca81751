(* Tests for the synthetic scene generator: determinism, mark visibility and
   separability, occlusions, and the road view. *)

module S = Vision.Scene
module I = Vision.Image

let params = { S.default_params with S.width = 256; height = 256 }

let test_frame_deterministic () =
  let a = S.frame params 5 and b = S.frame params 5 in
  Alcotest.(check bool) "same frame twice" true (I.equal a b)

let test_frames_differ () =
  let a = S.frame params 0 and b = S.frame params 20 in
  Alcotest.(check bool) "motion changes frames" false (I.equal a b)

let test_marks_bright_background_dark () =
  let img = S.frame params 3 in
  let marks = S.ground_truth_marks params 3 in
  Alcotest.(check int) "3 marks per vehicle" (3 * params.S.nvehicles)
    (List.length marks);
  List.iter
    (fun (mx, my) ->
      let x = int_of_float mx and y = int_of_float my in
      if I.in_bounds img x y then
        Alcotest.(check bool) "mark centre bright" true (I.get img x y >= 220))
    marks

let test_threshold_isolates_marks () =
  let img = S.frame params 7 in
  let lab = Vision.Ccl.label ~threshold:200 img in
  (* Every component should be a mark; there are nvehicles * 3 of them. *)
  let big =
    List.filter (fun r -> r.Vision.Ccl.area >= 6) (Vision.Ccl.regions lab)
  in
  Alcotest.(check int) "component per mark" (3 * params.S.nvehicles)
    (List.length big)

let test_detection_matches_ground_truth () =
  let img = S.frame params 9 in
  let truth = S.ground_truth_marks params 9 in
  let regions =
    Vision.Ccl.detect_regions ~threshold:200 img
    |> List.filter (fun r -> r.Vision.Ccl.area >= 6)
  in
  List.iter
    (fun (mx, my) ->
      let close =
        List.exists
          (fun r ->
            let dx = r.Vision.Ccl.cx -. mx and dy = r.Vision.Ccl.cy -. my in
            sqrt ((dx *. dx) +. (dy *. dy)) < 3.0)
          regions
      in
      Alcotest.(check bool) "ground-truth mark detected nearby" true close)
    truth

let test_occlusion_hides_vehicle () =
  let p = { params with S.occlusion_period = 10; nvehicles = 1 } in
  (* frames 0-3 of each period hide vehicle 0 *)
  let hidden = S.vehicles_at p 0 and visible = S.vehicles_at p 5 in
  Alcotest.(check bool) "hidden at t=0" false (List.hd hidden).S.visible;
  Alcotest.(check bool) "visible at t=5" true (List.hd visible).S.visible;
  Alcotest.(check int) "no marks while hidden" 0
    (List.length (S.ground_truth_marks p 0))

let test_mark_radius_scales () =
  let small = { S.cx = 0.0; cy = 0.0; scale = 0.6; visible = true } in
  let large = { small with S.scale = 1.2 } in
  Alcotest.(check bool) "radius grows with scale" true
    (S.mark_radius large > S.mark_radius small)

let test_mark_centers_empty_when_hidden () =
  let v = { S.cx = 10.0; cy = 10.0; scale = 1.0; visible = false } in
  Alcotest.(check int) "no centres" 0 (List.length (S.mark_centers v))

let test_road_frame_has_lines () =
  let img = S.road_frame ~width:256 ~height:256 0 in
  (* Bright line pixels exist below the horizon, none above. *)
  let above = ref 0 and below = ref 0 in
  I.iter
    (fun _ y v -> if v >= 240 then if y < 256 / 3 then incr above else incr below)
    img;
  Alcotest.(check int) "sky has no lines" 0 !above;
  Alcotest.(check bool) "road has lines" true (!below > 100)

let test_road_frame_deterministic () =
  let a = S.road_frame ~width:128 ~height:128 4 in
  let b = S.road_frame ~width:128 ~height:128 4 in
  Alcotest.(check bool) "deterministic" true (I.equal a b)

let test_vehicles_stay_in_frame () =
  for t = 0 to 100 do
    List.iter
      (fun v ->
        Alcotest.(check bool) "x in frame" true
          (v.S.cx > 0.0 && v.S.cx < float_of_int params.S.width);
        Alcotest.(check bool) "y in frame" true
          (v.S.cy > 0.0 && v.S.cy < float_of_int params.S.height))
      (S.vehicles_at params t)
  done

(* Golden pins: MD5 of the PGM bytes of fixed frames. The scene is the
   synthetic camera of every tracking run, so its raster must not change when
   its rendering loops do. *)
let md5 img = Digest.to_hex (Digest.string (I.to_pgm img))

let check_md5 name expected img = Alcotest.(check string) name expected (md5 img)

let test_golden_default () =
  List.iter
    (fun (t, expected) ->
      check_md5 (Printf.sprintf "default t=%d" t) expected (S.frame S.default_params t))
    [
      (0, "4d626df4e5b1046edec19d1a6a1a2f51");
      (1, "5ab923da16b80c2678feeb955312bb26");
      (17, "765885495cd33c43e3ab54d61dda0f3a");
      (250, "41fe7da8e12a58c8d812af3b03286fad");
    ]

let test_golden_occlusion () =
  let p = { S.default_params with S.nvehicles = 3; occlusion_period = 10 } in
  check_md5 "3 vehicles, vehicle 0 hidden" "39bd111a94f4ece768a74d5db229fc79" (S.frame p 2);
  check_md5 "3 vehicles, all visible" "1373a14d152a9cb4c4cd0fc4f5d61692" (S.frame p 13)

let test_golden_odd_size () =
  let p = { S.default_params with S.width = 333; height = 197; noise = 9.0; seed = 7 } in
  check_md5 "333x197 noise 9" "d7c3bab42a345ee66064e48264168ddf" (S.frame p 5)

let test_golden_loud_noise () =
  let p = { S.default_params with S.noise = 60.0 } in
  let img = S.frame p 3 in
  (* Noise this loud reaches every clamp: 0 and 179 for background pixels,
     220 and 255 for mark pixels pushed down and up. *)
  let count v = I.fold (fun n p -> if p = v then n + 1 else n) 0 img in
  List.iter
    (fun v -> Alcotest.(check bool) (Printf.sprintf "clamped to %d" v) true (count v > 0))
    [ 0; 179; 220; 255 ];
  check_md5 "noise 60" "15d54ea9c331355e653a756af2bf7aea" img

let test_golden_road () =
  check_md5 "road 256x192 t=0" "d63723f2842d55fb3197b6e45a2ae4f1"
    (S.road_frame ~width:256 ~height:192 0);
  check_md5 "road 321x240 t=37" "ee2684fd4ffe25b055fc98661ebdb206"
    (S.road_frame ~curvature:0.002 ~width:321 ~height:240 37)

let prop_noise_preserves_mark_separability =
  QCheck.Test.make ~name:"thresholding survives noise" ~count:30
    QCheck.(pair (int_bound 1000) (int_bound 50))
    (fun (seed, t) ->
      let p = { params with S.seed; noise = 4.0 } in
      let img = S.frame p t in
      let found =
        Vision.Ccl.detect_regions ~threshold:200 img
        |> List.filter (fun r -> r.Vision.Ccl.area >= 6)
        |> List.length
      in
      found = 3 * p.S.nvehicles)

let () =
  Alcotest.run "scene"
    [
      ( "vehicles",
        [
          Alcotest.test_case "frame deterministic" `Quick test_frame_deterministic;
          Alcotest.test_case "frames differ" `Quick test_frames_differ;
          Alcotest.test_case "marks bright" `Quick test_marks_bright_background_dark;
          Alcotest.test_case "threshold isolates marks" `Quick test_threshold_isolates_marks;
          Alcotest.test_case "detection matches truth" `Quick test_detection_matches_ground_truth;
          Alcotest.test_case "occlusion" `Quick test_occlusion_hides_vehicle;
          Alcotest.test_case "mark radius scales" `Quick test_mark_radius_scales;
          Alcotest.test_case "hidden vehicle has no marks" `Quick test_mark_centers_empty_when_hidden;
          Alcotest.test_case "vehicles stay in frame" `Quick test_vehicles_stay_in_frame;
        ] );
      ( "road",
        [
          Alcotest.test_case "road has lines" `Quick test_road_frame_has_lines;
          Alcotest.test_case "road deterministic" `Quick test_road_frame_deterministic;
        ] );
      ( "golden",
        [
          Alcotest.test_case "default params" `Quick test_golden_default;
          Alcotest.test_case "occlusion, 3 vehicles" `Quick test_golden_occlusion;
          Alcotest.test_case "odd size" `Quick test_golden_odd_size;
          Alcotest.test_case "loud noise" `Quick test_golden_loud_noise;
          Alcotest.test_case "road frames" `Quick test_golden_road;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_noise_preserves_mark_separability ]);
    ]
