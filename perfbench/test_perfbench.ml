(* Determinism and neutrality pins for the benchmark.

   Two untraced runs of a seed, each in a fresh process, must agree exactly
   on sim_ms, allocation, peak heap and every layer count; a traced run, and
   a run with no observe hook at all, must leave sim_ms and the message
   count of the untraced run unchanged; and every run must pass its oracle
   and the values pinned for the seed. *)

open Dsmpm2_sim
open Perfbench

let seed = 1
let exe = Filename.concat (Sys.getcwd ()) "main.exe"

(* One [main.exe] process; its last stdout line is the run's JSON. *)
let child args =
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = In_channel.input_all ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.failf "main.exe %s failed" (String.concat " " args));
  let last = List.hd (List.rev (String.split_on_char '\n' (String.trim out))) in
  match Json.of_string last with Ok j -> j | Error e -> Alcotest.failf "bad JSON: %s" e

let get j path =
  List.fold_left
    (fun j k -> match Json.member k j with Some v -> v | None -> Alcotest.failf "no %s" k)
    j path

let num j path =
  match Json.to_float (get j path) with Some f -> f | None -> Alcotest.failf "not a number"

let check_ok what j =
  if Json.to_bool (get j [ "ok" ]) <> Some true then
    Alcotest.failf "%s: %s" what (Option.value (Json.to_str (get j [ "failure" ])) ~default:"")

let same_num what a b path = Alcotest.(check (float 0.)) what (num a path) (num b path)

let determinism (w : Bench.workload) () =
  let run () = child [ "run"; w.name; string_of_int seed ] in
  let a = run () and b = run () in
  check_ok "first run" a;
  check_ok "second run" b;
  List.iter
    (fun k -> same_num k a b [ "e2e"; k ])
    [ "sim_ms"; "alloc_mwords"; "peak_heap_mb" ];
  match get a [ "counters" ] with
  | Json.Obj counters -> List.iter (fun (k, _) -> same_num k a b [ "counters"; k ]) counters
  | _ -> Alcotest.fail "no counters"

let neutrality (w : Bench.workload) () =
  let plain = child [ "run"; w.name; string_of_int seed ] in
  let traced = child [ "run"; w.name; string_of_int seed; "--traced" ] in
  check_ok "traced run" traced;
  same_num "traced sim_ms" plain traced [ "e2e"; "sim_ms" ];
  same_num "traced net.messages" plain traced [ "counters"; "net.messages" ];
  let bare = Bench.run_once ~hook:false w ~seed in
  Alcotest.(check (option string)) "no-hook run passes" None bare.failure;
  let o = Option.get bare.outcome in
  Alcotest.(check (float 0.)) "no-hook sim_ms" (num plain [ "e2e"; "sim_ms" ]) o.sim_ms;
  Alcotest.(check (float 0.))
    "no-hook net.messages" (num plain [ "counters"; "net.messages" ]) (float o.messages)

(* The pins gate: the seed is pinned, and a one-message drift is refused. *)
let pin_gate (w : Bench.workload) () =
  Alcotest.(check bool) "seed pinned" true (Bench.pinned w ~seed);
  Alcotest.(check bool) "held-back seed pinned" true (Bench.pinned w ~seed:Pins.held_back_seed);
  Alcotest.(check bool) "other seed not pinned" false (Bench.pinned w ~seed:1_000_000);
  let r = Bench.run_once w ~seed in
  let o = Option.get r.outcome in
  Alcotest.(check bool) "pin holds" true (Bench.check_pin w ~seed o = Ok ());
  Alcotest.(check bool)
    "drift refused" true
    (Result.is_error (Bench.check_pin w ~seed { o with messages = o.messages + 1 }))

let () =
  let per name f =
    List.map (fun (w : Bench.workload) -> Alcotest.test_case (w.name ^ " " ^ name) `Slow (f w)) Bench.workloads
  in
  Alcotest.run "perfbench"
    [
      ("determinism", per "two fresh runs agree" determinism);
      ("neutrality", per "trace and hook leave the schedule" neutrality);
      ("pins", per "pinned values hold" pin_gate);
    ]
