(* Small sample statistics and process probes. *)

(* Nearest-rank percentile, [q] in [0, 1]; nan on an empty sample. *)
let percentile q xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile 0.5 xs
let sum xs = List.fold_left ( +. ) 0.0 xs
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Peak resident set of this process, MiB, from /proc (0 where absent). *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | status ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> float_of_string kb /. 1024.0
              | [] -> acc)
          | _ -> acc)
        0.0
        (String.split_on_char '\n' status)

(* Mean wall time of [per] calls of [f], with the last result: one
   set-up sample. Averaging over [per] calls keeps a set-up of a few
   microseconds well above the clock's resolution. *)
let mean_time ~per f =
  let t = Unix.gettimeofday () in
  let r = ref (f ()) in
  for _ = 2 to per do
    r := f ()
  done;
  ((Unix.gettimeofday () -. t) /. float_of_int per, !r)
