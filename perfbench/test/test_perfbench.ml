(* The benchmark's own checks: seeded inputs are reproducible, every
   metric BENCHMARK.json names is printed with its unit, and a wrong
   expected output is counted as a failure. *)

open Perfbench
module Json = Support.Json

(* dune runs tests in _build/default/perfbench/test; the specs and
   BENCHMARK.json are copied to _build/default *)
let () = Sys.chdir "../.."

let jobs round =
  List.map
    (fun j -> (j.Gen.spec, j.Gen.frames, j.Gen.procs, j.Gen.strategy, j.Gen.data_seed))
    round

let batches ~seed ~client n =
  let next = Gen.client_batches ~seed ~client in
  List.init n (fun _ ->
      List.map
        (function
          | Gen.Compile { spec; frames; optimize; fresh } ->
              Printf.sprintf "c %s %d %b %b" spec frames optimize fresh
          | Gen.Run { spec; frames; procs; strategy } ->
              Printf.sprintf "r %s %d %d %s" spec frames procs strategy)
        (next ()))

let test_seeds () =
  let same name f =
    Alcotest.(check bool) (name ^ ": same seed, same inputs") true (f 7 = f 7);
    Alcotest.(check bool) (name ^ ": other seed, other inputs") false (f 7 = f 8)
  in
  same "tracking" (fun seed -> jobs (Gen.tracking_round ~seed));
  same "stateful" (fun seed -> jobs (Gen.stateful_round ~seed));
  same "serve client 0" (fun seed -> batches ~seed ~client:0 200);
  same "serve client 1" (fun seed -> batches ~seed ~client:1 200)

(* A fresh key is never repeated as fresh, and a repeated key was sent
   before by the same client. *)
let test_serve_keys () =
  let seen = Hashtbl.create 64 in
  let next = Gen.client_batches ~seed:3 ~client:0 in
  for _ = 1 to 500 do
    let batch = next () in
    let specs = List.map Gen.spec_of batch in
    Alcotest.(check int) "distinct specs in a batch"
      (List.length specs) (List.length (List.sort_uniq compare specs));
    List.iter
      (function
        | Gen.Compile { spec; frames; optimize; fresh } ->
            let k = (spec, frames, optimize) in
            Alcotest.(check bool) "fresh iff unseen" fresh (not (Hashtbl.mem seen k));
            Hashtbl.replace seen k ()
        | Gen.Run { frames; _ } ->
            Alcotest.(check bool) "runs use 1-3 frames" true (frames >= 1 && frames <= 3))
      batch
  done

let benchmark_json () =
  match Json.parse (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) with
  | Ok j -> j
  | Error e -> Alcotest.failf "BENCHMARK.json: %s" e

let declared section =
  let j = benchmark_json () in
  List.map
    (fun m ->
      match (Json.member "name" m, Json.member "unit" m) with
      | Some (Json.Str n), Some (Json.Str u) -> (n, u)
      | _ -> Alcotest.fail "metric without name or unit")
    (Option.get (Option.bind (Json.member section j) Json.to_list))

(* Every declared metric appears in a printed result line, with its
   declared unit. *)
let check_emitted ~section ~names r =
  match Json.parse (Report.result_line ~names r) with
  | Error e -> Alcotest.failf "result line is not JSON: %s" e
  | Ok line ->
      let metrics = Option.get (Json.member "metrics" line) in
      List.iter
        (fun (name, unit) ->
          match Json.member name metrics with
          | None -> Alcotest.failf "%s metric %s not printed" section name
          | Some m ->
              Alcotest.(check (option string)) (name ^ " unit") (Some unit)
                (Option.bind (Json.member "unit" m) Json.to_str);
              Alcotest.(check bool) (name ^ " has a value") true
                (Option.is_some (Option.bind (Json.member "value" m) Json.to_float)))
        (declared section)

let small_round () =
  List.filteri (fun i _ -> i < 3)
    (List.filter (fun j -> j.Gen.frames <= 50) (Gen.stateful_round ~seed:5))

let stream_phase ?corrupt ~traced () =
  Streams.run_phase ?corrupt ~app:"stateful" ~round:(small_round ()) ~seconds:0.01
    ~traced ()

let test_metrics_emitted () =
  let untraced = stream_phase ~traced:false () in
  let traced = stream_phase ~traced:true () in
  let report metrics =
    {
      Report.attempted = 1;
      failed = 0;
      metrics;
      fingerprint = "";
      fingerprint_parts = [];
      info = [];
    }
  in
  check_emitted ~section:"end_to_end" ~names:Report.end_to_end
    (report (Streams.end_to_end untraced));
  check_emitted ~section:"per_layer" ~names:Report.per_layer
    (report (Streams.layers traced));
  let fp p = let d, _, _ = Streams.fingerprint p in d in
  Alcotest.(check string) "traced and untraced fingerprints agree" (fp untraced) (fp traced)

let test_corrupt_reference () =
  let good = stream_phase ~traced:false () in
  Alcotest.(check int) "correct outputs pass" 0
    (List.length (List.filter (fun o -> not o.Streams.ok) good.Streams.outs));
  let bad = stream_phase ~corrupt:true ~traced:false () in
  Alcotest.(check int) "every job fails against a corrupted reference"
    (List.length bad.Streams.outs)
    (List.length (List.filter (fun o -> not o.Streams.ok) bad.Streams.outs))

let test_serve_checks () =
  let ok = Servemix.run_phase ~seed:4 ~seconds:0.3 ~traced:false () in
  Alcotest.(check bool) "requests were sent" true (ok.Servemix.samples <> []);
  Alcotest.(check bool) "every response checks out" true (List.for_all Fun.id ok.Servemix.oks);
  let bad = Servemix.run_phase ~corrupt:true ~seed:4 ~seconds:0.3 ~traced:false () in
  Alcotest.(check bool) "corrupted digests all fail" true
    (bad.Servemix.oks <> [] && List.for_all not bad.Servemix.oks)

let () =
  Alcotest.run "perfbench"
    [
      ( "inputs",
        [
          Alcotest.test_case "seeded job and request lists" `Quick test_seeds;
          Alcotest.test_case "serve keys" `Quick test_serve_keys;
        ] );
      ( "outputs",
        [
          Alcotest.test_case "declared metrics emitted" `Quick test_metrics_emitted;
          Alcotest.test_case "corrupted reference counted" `Quick test_corrupt_reference;
          Alcotest.test_case "serve responses checked" `Quick test_serve_checks;
        ] );
    ]
