(* Connected-component labelling with the scm skeleton (the companion
   application of paper ref [7]): split a 512x512 image into row bands,
   label each band on its own processor, merge across the seams.

   Prints the component count, verifies the parallel labelling against the
   sequential one, and sweeps the band/processor count.

   Run with: dune exec examples/ccl_bands.exe *)

module V = Skel.Value

let () =
  let img = Apps.Ccl_scm.blobs_image ~seed:11 ~nblobs:60 512 512 in
  let input = V.Image img in

  (* Reference: plain sequential labelling. *)
  let reference = Vision.Ccl.label ~threshold:128 img in
  Printf.printf "sequential CCL: %d components\n" reference.Vision.Ccl.ncomponents;

  List.iter
    (fun nparts ->
      let table = Skel.Funtable.create () in
      Apps.Ccl_scm.register table;
      let compiled =
        Skipper_lib.Pipeline.compile_ir ~table (Apps.Ccl_scm.ir ~nparts)
      in
      let arch = Archi.ring (nparts + 1) in
      let _, result = Skipper_lib.Pipeline.execute ~input compiled arch in
      let ncomp, area = Apps.Ccl_scm.result_summary result.Executive.value in
      let emulated = Skipper_lib.Pipeline.emulate compiled input in
      Printf.printf
        "scm with %2d bands on ring-%-2d: %3d components, %6d px, %7.2f ms  \
         (emulation agrees: %b)\n"
        nparts (nparts + 1) ncomp area
        (result.Executive.first_latency *. 1e3)
        (V.equal emulated result.Executive.value);
      assert (ncomp = reference.Vision.Ccl.ncomponents))
    [ 2; 4; 8; 12 ];
  print_endline "ccl_bands: OK"
