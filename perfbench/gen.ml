(* Seeded workload inputs. Everything a run feeds the program is derived
   here from the run seed, so the same seed gives the same job and request
   lists and a different seed gives different ones (checked by the tests).

   A stream workload is a round of jobs repeated until the measuring time
   is spent; only whole rounds are measured, so each run's sample is a
   whole number of copies of one fixed mix and its percentiles sit at the
   same place in that mix whatever the machine speed. The seed chooses the
   data each job sees. The order of the round is fixed: a job's time
   depends on the job before it, which leaves garbage for it to collect,
   and seeded orders moved the median stateful job time by 20% between
   seeds. *)

type job = {
  idx : int;  (** position in the round *)
  spec : string;
  frames : int;
  procs : int;  (** ring size *)
  strategy : string;
  data_seed : int;  (** seed of the job's input frames *)
}

let strategies () = Syndex.Mapper.names ()
let rings = [ 4; 8; 16 ]

let number l = List.mapi (fun idx j -> { j with idx }) l

(* Paper §4 tracking: every (ring, strategy) pair once per round, each
   over its own seeded scene. *)
let tracking_frames = 6

let tracking_round ~seed =
  let rng = Support.Prng.create seed in
  List.concat_map
    (fun procs ->
      List.map
        (fun strategy ->
          {
            idx = 0;
            spec = "tracking";
            frames = tracking_frames;
            procs;
            strategy;
            data_seed = Support.Prng.int rng 1_000_000_000;
          })
        (strategies ()))
    rings
  |> number

(* The four stateful specs at short to long stream lengths, each job with
   its own seeded input frame. Ring and strategy follow a fixed schedule
   over (spec, length) rather than the seed: the kernel's cost depends on
   the placement, and a seeded pairing of long streams with costly
   placements would make runs incomparable. *)
let stateful_lengths = [ 20; 80; 320 ]

let stateful_round ~seed =
  let rng = Support.Prng.create (seed lxor 0x5f3759df) in
  let strats = Array.of_list (strategies ()) in
  let rings = Array.of_list rings in
  List.concat
    (List.mapi
       (fun si spec ->
         List.mapi
           (fun li frames ->
             {
               idx = 0;
               spec;
               frames;
               procs = rings.((si + li) mod Array.length rings);
               strategy = strats.(((si * 3) + li) mod Array.length strats);
               data_seed = Support.Prng.int rng 1_000_000_000;
             })
           stateful_lengths)
       Corpus.stateful_specs)
  |> number

(* serve-mix requests. Each client edits its own copy of the spec corpus
   (a comment naming the client is appended to every source), so the two
   clients never share a store key and each client's hits and misses
   depend only on its own request sequence, not on how the daemon
   interleaves the clients. Within a batch the specs are distinct, so no
   two concurrently served requests race on one key. *)

type request =
  | Compile of { spec : string; frames : int; optimize : bool; fresh : bool }
      (** [fresh]: first time this client sends this key *)
  | Run of { spec : string; frames : int; procs : int; strategy : string }

let client_source ~client src =
  src ^ Printf.sprintf "\n(* perfbench client %d *)\n" client

let kind = function
  | Compile { fresh = true; _ } -> "compile_cold"
  | Compile _ -> "compile_warm"
  | Run _ -> "run"

let spec_of = function Compile { spec; _ } | Run { spec; _ } -> spec

(* An endless, deterministic batch generator for one client: 5% new
   compile keys, 75% repeated compile keys, 20% runs. New keys take frame
   counts from 4 upwards, never the 1-3 frames that runs use, so a new key
   is always a store miss. Runs cycle rings and all strategies. *)
let batch_min = 1
let batch_max = 3

let client_batches ~seed ~client =
  let rng = Support.Prng.create ((seed * 7919) + client + 1) in
  let specs = Array.of_list (List.map fst Corpus.specs) in
  let stateful = Array.of_list Corpus.stateful_specs in
  let strats = Array.of_list (strategies ()) in
  let rings = Array.of_list rings in
  let next_frames = Hashtbl.create 8 in
  let sent = ref [||] and nsent = ref 0 in
  let runs = ref 0 in
  let remember k =
    if !nsent = Array.length !sent then
      sent := Array.append !sent (Array.make (max 16 !nsent) k);
    !sent.(!nsent) <- k;
    incr nsent
  in
  let fresh spec =
    let f = Option.value (Hashtbl.find_opt next_frames spec) ~default:4 in
    Hashtbl.replace next_frames spec (f + 1);
    let k = (spec, f, Support.Prng.bool rng) in
    remember k;
    let spec, frames, optimize = k in
    Compile { spec; frames; optimize; fresh = true }
  in
  let free_of busy arr = List.filter (fun s -> not (List.mem s busy)) (Array.to_list arr) in
  let pick l = List.nth l (Support.Prng.int rng (List.length l)) in
  (* [busy]: specs already in the batch. A batch holds at most 8 requests,
     so some spec is always free; a request whose kind finds no free spec
     becomes a new compile of a free one. *)
  let one busy =
    let free s = not (List.mem s busy) in
    let u = Support.Prng.int rng 100 in
    (* a repeated key: a few seeded tries for one whose spec is free *)
    let rec repeat tries =
      if tries = 0 || !nsent = 0 then None
      else
        let (s, _, _) as k = !sent.(Support.Prng.int rng !nsent) in
        if free s then Some k else repeat (tries - 1)
    in
    let fresh_free () = fresh (pick (free_of busy specs)) in
    if u < 5 then fresh_free ()
    else if u < 80 then
      match repeat 8 with
      | Some (spec, frames, optimize) ->
          Compile { spec; frames; optimize; fresh = false }
      | None -> fresh_free ()
    else
      match free_of busy stateful with
      | [] -> fresh_free ()
      | l ->
          let i = !runs in
          incr runs;
          Run
            {
              spec = pick l;
              frames = 1 + Support.Prng.int rng 3;
              procs = rings.(i mod Array.length rings);
              strategy = strats.(i mod Array.length strats);
            }
  in
  fun () ->
    let size = batch_min + Support.Prng.int rng (batch_max - batch_min + 1) in
    let rec build acc n =
      if n = 0 then List.rev acc
      else build (one (List.map spec_of acc) :: acc) (n - 1)
    in
    build [] size
