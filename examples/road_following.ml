(* Road following by white-line detection (paper ref [6]): an itermem
   stream loop whose body is an scm skeleton. Each frame of a synthetic
   curving road is scanned in strips for the bright centre line; the fitted
   lane model is displayed and fed back to narrow the next frame's search.

   Run with: dune exec examples/road_following.exe *)

module V = Skel.Value

let width = 512
let height = 512
let frames = 12
let nstrips = 6

let () =
  let table = Skel.Funtable.create () in
  Apps.Road.register ~width ~height table;
  let compiled =
    Skipper_lib.Pipeline.compile_ir ~table (Apps.Road.ir ~frames ~nstrips ())
  in
  let input = Apps.Road.input_value ~width ~height in
  let arch = Archi.ring (nstrips + 1) in
  let _, result = Skipper_lib.Pipeline.execute ~input ~input_period:0.04 compiled arch in
  print_endline "frame | lane offset px | slope px/row | confidence | latency ms";
  List.iteri
    (fun i (lane_v, latency) ->
      let lane = Apps.Road.lane_of_value lane_v in
      Printf.printf "%5d | %14.1f | %12.4f | %10.2f | %10.2f\n" i
        lane.Apps.Road.offset lane.Apps.Road.slope lane.Apps.Road.confidence
        (latency *. 1e3))
    (List.combine result.Executive.outputs result.Executive.latencies);
  let emulated =
    let table2 = Skel.Funtable.create () in
    Apps.Road.register ~width ~height table2;
    Skel.Sem.run table2 (Apps.Road.ir ~frames ~nstrips ()) input
  in
  Printf.printf "emulation agrees: %b\n"
    (V.equal emulated result.Executive.value);
  print_endline "road_following: OK"
