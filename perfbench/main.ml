(* perfbench/main.exe: one measured process of the benchmark.

     main.exe run WORKLOAD SEED [--traced]   one whole run, as one JSON line
     main.exe layers WORKLOAD SEED           the isolated per-layer loops
     main.exe calib                          time the calibration unit
     main.exe pin WORKLOAD SEED...           print Pins.table rows

   [run.py] starts a fresh process per run, so each timed run starts on a
   clean heap and reports its own peak. *)

open Perfbench

let num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

let str s = "\"" ^ String.escaped s ^ "\""
let obj fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) fields) ^ "}"
let metrics l = obj (List.map (fun (k, v) -> (k, num v)) l)

let spans () =
  "["
  ^ String.concat ", "
      (List.rev_map
         (fun s ->
           obj
             [
               ("name", str s.Bench.sp_name);
               ("parent", str s.sp_parent);
               ("start", num s.sp_start);
               ("end", num s.sp_end);
             ])
         !Bench.spans)
  ^ "]"

let run w ~seed ~traced =
  let r = Bench.run_once ~traced w ~seed in
  let sim_ms = match r.outcome with Some o -> o.sim_ms | None -> nan in
  print_endline
    (obj
       [
         ("ok", string_of_bool (r.failure = None));
         ("pinned", string_of_bool (Bench.pinned w ~seed));
         ("failure", str (Option.value r.failure ~default:""));
         ( "e2e",
           metrics
             [
               ("host_s", r.host_s);
               ("setup_s", r.setup_s);
               ("host_cpu_s", r.host_cpu_s);
               ("setup_cpu_s", r.setup_cpu_s);
               ("alloc_mwords", r.alloc_mwords);
               ("peak_heap_mb", r.peak_heap_mb);
               ("sim_ms", sim_ms);
             ] );
         ("counters", metrics r.counters);
         ("spans", spans ());
       ])

let pin w ~seed =
  let r = Bench.run_once w ~seed in
  match (r.failure, r.outcome) with
  | None, Some o ->
      Printf.printf "    (%S, %d, %S, %d, %d, %d);\n" w.Bench.name seed (Bench.pin_key o.sim_ms)
        o.messages o.read_faults o.write_faults
  | _ ->
      prerr_endline (Option.value r.failure ~default:"no outcome");
      exit 1

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "run"; w; seed ] -> run (Bench.find w) ~seed:(int_of_string seed) ~traced:false
  | [ "run"; w; seed; "--traced" ] -> run (Bench.find w) ~seed:(int_of_string seed) ~traced:true
  | [ "layers"; w; seed ] ->
      let m = Bench.layer_loops (Bench.find w) ~seed:(int_of_string seed) in
      print_endline (obj [ ("ok", "true"); ("layers", metrics m); ("spans", spans ()) ])
  | [ "calib" ] -> print_endline (obj [ ("ok", "true"); ("calib_s", num (Calib.run ())) ])
  | "pin" :: w :: seeds -> List.iter (fun s -> pin (Bench.find w) ~seed:(int_of_string s)) seeds
  | _ ->
      prerr_endline "usage: main.exe (run WORKLOAD SEED [--traced] | layers WORKLOAD SEED | calib | pin WORKLOAD SEED...)";
      exit 2
