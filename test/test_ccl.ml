(* Tests for connected-component labelling: the union-find implementation
   against the flood-fill oracle, region statistics, and the scm-style band
   merge. *)

module I = Vision.Image
module C = Vision.Ccl

let random_binaryish seed density w h =
  let rng = Support.Prng.create seed in
  let img = I.create w h in
  I.iter
    (fun x y _ ->
      if Support.Prng.int rng 100 < density then I.set img x y 255 else I.set img x y 0)
    img;
  img

(* Both labellers, and a band merge, number components in raster order of
   their first pixel, so they must agree label for label, not just up to
   renaming. *)
let same_labelling (a : C.labelling) (b : C.labelling) =
  a.C.width = b.C.width && a.C.height = b.C.height
  && a.C.ncomponents = b.C.ncomponents
  && a.C.labels = b.C.labels

(* Pixels uniform in [0, 255], so each threshold cuts a different partition. *)
let random_graded seed w h =
  let rng = Support.Prng.create seed in
  let img = I.create w h in
  I.iter (fun x y _ -> I.set img x y (Support.Prng.int rng 256)) img;
  img

let test_empty_image () =
  let lab = C.label ~threshold:128 (I.create 8 8) in
  Alcotest.(check int) "no components" 0 lab.C.ncomponents;
  Alcotest.(check (list int)) "no regions" []
    (List.map (fun r -> r.C.label) (C.regions lab))

let test_full_image () =
  let lab = C.label ~threshold:128 (I.create ~init:255 8 8) in
  Alcotest.(check int) "one component" 1 lab.C.ncomponents;
  match C.regions lab with
  | [ r ] ->
      Alcotest.(check int) "area" 64 r.C.area;
      Alcotest.(check (float 0.001)) "cx" 3.5 r.C.cx;
      Alcotest.(check int) "bbox" 7 r.C.max_x
  | _ -> Alcotest.fail "expected one region"

let test_two_blobs () =
  let img = I.create 10 10 in
  I.set img 1 1 255;
  I.set img 2 1 255;
  I.set img 8 8 255;
  let lab = C.label ~threshold:128 img in
  Alcotest.(check int) "two components" 2 lab.C.ncomponents

let test_diagonal_not_connected () =
  (* 4-connectivity: diagonal pixels form separate components. *)
  let img = I.create 4 4 in
  I.set img 1 1 255;
  I.set img 2 2 255;
  let lab = C.label ~threshold:128 img in
  Alcotest.(check int) "diagonals separate" 2 lab.C.ncomponents

let test_u_shape_merges () =
  (* A U shape forces a label equivalence to be resolved in pass two. *)
  let img = I.create 5 4 in
  List.iter
    (fun (x, y) -> I.set img x y 255)
    [ (0, 0); (0, 1); (0, 2); (4, 0); (4, 1); (4, 2); (0, 3); (1, 3); (2, 3); (3, 3); (4, 3) ];
  let lab = C.label ~threshold:128 img in
  Alcotest.(check int) "U is one component" 1 lab.C.ncomponents

let test_labels_dense () =
  let img = random_binaryish 5 40 30 30 in
  let lab = C.label ~threshold:128 img in
  let seen = Array.make (lab.C.ncomponents + 1) false in
  Array.iter (fun l -> if l > 0 then seen.(l) <- true) lab.C.labels;
  for l = 1 to lab.C.ncomponents do
    if not seen.(l) then Alcotest.failf "label %d unused" l
  done

let test_regions_area_sums () =
  let img = random_binaryish 6 35 25 25 in
  let lab = C.label ~threshold:128 img in
  let total = List.fold_left (fun acc r -> acc + r.C.area) 0 (C.regions lab) in
  Alcotest.(check int) "areas sum to foreground" (Vision.Ops.count_above 128 img) total

let test_equivalent_detects_renaming () =
  let img = random_binaryish 7 30 20 20 in
  let a = C.label ~threshold:128 img in
  let b = C.label_flood ~threshold:128 img in
  Alcotest.(check bool) "union-find ~ flood" true (C.equivalent a b);
  (* A corrupted labelling is not equivalent. *)
  if Array.length b.C.labels > 0 && b.C.ncomponents > 0 then begin
    let c = { b with C.labels = Array.copy b.C.labels } in
    (match Array.find_index (fun l -> l > 0) c.C.labels with
    | Some i -> c.C.labels.(i) <- 0
    | None -> ());
    Alcotest.(check bool) "corruption detected" false (C.equivalent a c)
  end

let test_merge_bands_trivial () =
  let img = random_binaryish 8 30 16 16 in
  let whole = C.label ~threshold:128 img in
  let single = C.merge_bands ~width:16 [ (whole, 0) ] in
  Alcotest.(check bool) "single band is identity" true (C.equivalent whole single)

let test_merge_bands_rejects_gaps () =
  let img = I.create 4 4 in
  let lab = C.label ~threshold:128 img in
  Alcotest.check_raises "non-contiguous"
    (Invalid_argument "Ccl.merge_bands: bands not contiguous") (fun () ->
      ignore (C.merge_bands ~width:4 [ (lab, 1) ]))

let split_label_merge ~threshold img n =
  let bands = I.row_bands img n in
  let parts =
    List.map (fun (y0, _ as b) -> (C.label ~threshold (I.extract_band img b), y0)) bands
  in
  C.merge_bands ~width:(I.width img) parts

let test_banded_equals_whole () =
  let img = random_binaryish 9 45 40 32 in
  let whole = C.label ~threshold:128 img in
  List.iter
    (fun n ->
      let merged = split_label_merge ~threshold:128 img n in
      Alcotest.(check bool)
        (Printf.sprintf "%d bands equal" n)
        true (same_labelling whole merged))
    [ 2; 3; 4; 8 ]

(* The tracking workload's real input, a 512x512 scene frame: at the marks'
   threshold, and at one that joins the background into large components
   with many provisional labels to union. *)
let test_scene_frame_exact () =
  let img = Vision.Scene.frame Vision.Scene.default_params 17 in
  List.iter
    (fun threshold ->
      let whole = C.label ~threshold img in
      Alcotest.(check bool)
        (Printf.sprintf "threshold %d: equals flood fill" threshold)
        true
        (same_labelling whole (C.label_flood ~threshold img));
      Alcotest.(check bool)
        (Printf.sprintf "threshold %d: 4 bands equal whole" threshold)
        true
        (same_labelling whole (split_label_merge ~threshold img 4)))
    [ 200; 100 ]

let arbitrary_case =
  QCheck.make
    QCheck.Gen.(
      map3
        (fun seed density (w, h) -> (seed, density, w, h))
        (int_bound 100_000) (int_range 5 70)
        (pair (int_range 2 40) (int_range 2 40)))
    ~print:(fun (s, d, w, h) -> Printf.sprintf "seed=%d density=%d %dx%d" s d w h)

let arbitrary_graded =
  QCheck.make
    QCheck.Gen.(
      map3
        (fun seed threshold (w, h) -> (seed, threshold, w, h))
        (int_bound 100_000) (int_range 1 255)
        (pair (int_range 2 40) (int_range 2 40)))
    ~print:(fun (s, t, w, h) -> Printf.sprintf "seed=%d threshold=%d %dx%d" s t w h)

let prop_union_find_matches_flood =
  QCheck.Test.make ~name:"two-pass labelling matches flood fill" ~count:200
    arbitrary_graded (fun (seed, threshold, w, h) ->
      let img = random_graded seed w h in
      List.for_all
        (fun threshold ->
          same_labelling (C.label ~threshold img) (C.label_flood ~threshold img))
        [ threshold; 1; 128; 255 ])

let prop_banded_matches_whole =
  QCheck.Test.make ~name:"banded merge matches whole-image labelling" ~count:120
    (QCheck.pair arbitrary_graded (QCheck.int_range 1 8))
    (fun ((seed, threshold, w, h), n) ->
      QCheck.assume (n <= h);
      let img = random_graded seed w h in
      List.for_all
        (fun threshold ->
          same_labelling (C.label ~threshold img) (split_label_merge ~threshold img n))
        [ threshold; 128 ])

let prop_detect_regions_count =
  QCheck.Test.make ~name:"regions count matches ncomponents" ~count:80 arbitrary_case
    (fun (seed, density, w, h) ->
      let img = random_binaryish seed density w h in
      let lab = C.label ~threshold:128 img in
      List.length (C.regions lab) = lab.C.ncomponents)

let () =
  Alcotest.run "ccl"
    [
      ( "labelling",
        [
          Alcotest.test_case "empty image" `Quick test_empty_image;
          Alcotest.test_case "full image" `Quick test_full_image;
          Alcotest.test_case "two blobs" `Quick test_two_blobs;
          Alcotest.test_case "diagonal not connected" `Quick test_diagonal_not_connected;
          Alcotest.test_case "U shape merges" `Quick test_u_shape_merges;
          Alcotest.test_case "labels dense" `Quick test_labels_dense;
          Alcotest.test_case "region areas sum" `Quick test_regions_area_sums;
          Alcotest.test_case "equivalence checker" `Quick test_equivalent_detects_renaming;
        ] );
      ( "band merge",
        [
          Alcotest.test_case "single band identity" `Quick test_merge_bands_trivial;
          Alcotest.test_case "rejects gaps" `Quick test_merge_bands_rejects_gaps;
          Alcotest.test_case "banded equals whole" `Quick test_banded_equals_whole;
          Alcotest.test_case "512x512 scene frame exact" `Quick test_scene_frame_exact;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_union_find_matches_flood;
          QCheck_alcotest.to_alcotest prop_banded_matches_whole;
          QCheck_alcotest.to_alcotest prop_detect_regions_count;
        ] );
    ]
