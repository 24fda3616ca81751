(* Host-speed calibration.

   The shared VMs this benchmark runs on change speed by up to 1.9x, in
   stretches of a few seconds to several minutes, with the load elsewhere
   on the machine; CPU time slows with wall time, so it is no way out.
   Every timed unit of work (a job, a serve epoch, a set-up) is therefore
   bracketed by two samples of a fixed kernel, and its time is scaled to
   what it would be at the speed at which a sample takes [reference_s].
   The kernel runs while the program is idle, so a change to the program
   moves the scaled times and a change of host speed does not.

   The kernel is union-find over a 512x512 frame, as in the tracking
   application, plus a floating-point loop. Its frame lives outside the
   OCaml heap and it allocates nothing, so it does no GC work and leaves
   the program's GC pacing alone. The frame spills the core's cache as
   the program's data do: a kernel on a 96x96 frame followed the host's
   speed changes only half as well. *)

let side = 512

let parent =
  Bigarray.Array1.create Bigarray.int Bigarray.c_layout (side * side)

(* a fixed pseudo-random 8-bit pixel *)
let pixel i = ((i * 2654435761) lsr 5) land 255

let rec find x =
  let p = Bigarray.Array1.unsafe_get parent x in
  if p = x then x
  else begin
    let r = find p in
    Bigarray.Array1.unsafe_set parent x r;
    r
  end

let union a b = Bigarray.Array1.unsafe_set parent (find a) (find b)

let kernel () =
  let n = side * side in
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set parent i i
  done;
  for i = 1 to n - 1 do
    if pixel i > 100 then begin
      if pixel (i - 1) > 100 then union i (i - 1);
      if i >= side && pixel (i - side) > 100 then union i (i - side)
    end
  done;
  let roots = ref 0 in
  for i = 0 to n - 1 do
    if find i = i then incr roots
  done;
  let f = ref 0.0 in
  for i = 1 to 10_000 do
    f := !f +. (sin (float_of_int i) /. float_of_int i)
  done;
  ignore (Sys.opaque_identity (!roots, !f))

(* The kernel's time on the reference host (a 2-vCPU Sapphire Rapids VM)
   at its fastest. It only fixes the unit: scaled times are in seconds of
   that host at that speed. *)
let reference_s = 4.7e-3

(* One calibration sample: the kernel's time now, in seconds. A sample
   spoilt by the thread being descheduled moves one unit's scaled time;
   every figure is a median or a sum over many units. *)
let sample () =
  let t = Unix.gettimeofday () in
  kernel ();
  Unix.gettimeofday () -. t

(* [t] seconds measured between calibration samples [before] and [after],
   scaled to the reference speed. *)
let scale ~before ~after t = t *. reference_s /. (0.5 *. (before +. after))

(* Runs [f], which returns a time in seconds and a result, between two
   calibration samples; returns the scaled time and the result. *)
let bracket f =
  let before = sample () in
  let t, r = f () in
  let after = sample () in
  (scale ~before ~after t, r)
