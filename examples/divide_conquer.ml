(* Divide and conquer with the tf skeleton: adaptive quadtree segmentation.
   Workers recursively split inhomogeneous regions into four sub-packets --
   the recursive packet generation that distinguishes tf from df (paper §2).

   Run with: dune exec examples/divide_conquer.exe *)

module V = Skel.Value

let () =
  let img = Apps.Ccl_scm.blobs_image ~seed:3 ~nblobs:10 256 256 in
  let table = Skel.Funtable.create () in
  Apps.Quadtree.register table;
  let compiled =
    Skipper_lib.Pipeline.compile_ir ~table (Apps.Quadtree.ir ~nworkers:6)
  in
  let input = V.Image img in
  let arch = Archi.ring 7 in
  let _, result = Skipper_lib.Pipeline.execute ~input compiled arch in
  let leaves = Apps.Quadtree.leaves_of_value result.Executive.value in
  Printf.printf "quadtree leaves: %d\n" (List.length leaves);

  (* Coverage check: the leaves tile the image exactly. *)
  let covered =
    List.fold_left (fun acc r -> acc + (r.Apps.Quadtree.w * r.Apps.Quadtree.h)) 0 leaves
  in
  Printf.printf "covered pixels: %d / %d\n" covered (256 * 256);
  assert (covered = 256 * 256);

  (* The reconstruction approximates the input. *)
  let approx = Apps.Quadtree.reconstruct ~width:256 ~height:256 leaves in
  let err =
    Vision.Image.fold ( + ) 0 (Vision.Ops.invert approx) |> ignore;
    let total = ref 0 in
    Vision.Image.iter
      (fun x y v -> total := !total + abs (v - Vision.Image.get img x y))
      approx;
    float_of_int !total /. float_of_int (256 * 256)
  in
  Printf.printf "mean reconstruction error: %.2f levels/pixel\n" err;

  (* Declarative semantics agree (depth-first there, dynamic here; the
     accumulator keeps leaves canonically sorted so both orders match). *)
  let table2 = Skel.Funtable.create () in
  Apps.Quadtree.register table2;
  let emulated = Skel.Sem.run table2 (Apps.Quadtree.ir ~nworkers:6) input in
  Printf.printf "emulation agrees: %b\n" (V.equal emulated result.Executive.value);
  Printf.printf "latency: %.2f ms\n" (result.Executive.first_latency *. 1e3);
  print_endline "divide_conquer: OK"
