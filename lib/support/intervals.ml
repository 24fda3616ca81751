type t = {
  live : (float * float) list;  (* sorted by start, pairwise disjoint *)
  retired : float;  (* summed lengths of retired intervals, in start order *)
}

let empty = { live = []; retired = 0.0 }
let eps = 1e-15

let first_fit t ~earliest ~duration =
  let rec fit start = function
    | [] -> start
    | (s, e) :: rest ->
        if start +. duration <= s +. eps then start else fit (Float.max start e) rest
  in
  fit earliest t.live

let reserve t ~earliest ~duration =
  let start = first_fit t ~earliest ~duration in
  let iv = (start, start +. duration) in
  let[@tail_mod_cons] rec insert = function
    | (s, _) :: _ as rest when start < s -> iv :: rest
    | x :: rest -> x :: insert rest
    | [] -> [ iv ]
  in
  (start, { t with live = insert t.live })

(* Retire the leading run of intervals that end at or before [before]. Only
   a prefix goes, so [retired] accumulates lengths in exactly the order the
   full list would be folded. *)
let retire t ~before =
  let rec go retired = function
    | (s, e) :: rest when e <= before -> go (retired +. (e -. s)) rest
    | live -> if live == t.live then t else { live; retired }
  in
  go t.retired t.live

let total t = List.fold_left (fun acc (s, e) -> acc +. (e -. s)) t.retired t.live
let live t = t.live

let valid t =
  let rec go = function
    | (s1, e1) :: ((s2, _) :: _ as rest) -> s1 <= e1 && e1 <= s2 +. eps && go rest
    | [ (s, e) ] -> s <= e
    | [] -> true
  in
  go t.live
