(* A fixed unit of host work, private to the benchmark.  run.py times it in
   its own process between the timed runs and divides the runs' processor
   time by it, so that a change in the shared host's speed cancels out.

   It calls no library code, so no change to the library can move it.  Its
   mix follows the workloads' host profile: a boxed hash table larger than
   the caches (page tables, frame stores), a persistent map churned with
   short-lived closures (the engine's queue, fibers and events) and a float
   stencil (Jacobi's solve). *)

let lcg x = ((x * 1103515245) + 12345) land 0x3fffffff

let hash () =
  let n = 1 lsl 15 in
  let tbl = Hashtbl.create n in
  for i = 0 to n - 1 do
    Hashtbl.replace tbl i (ref (float i), Array.make 8 i)
  done;
  let acc = ref 0. and x = ref 12345 in
  for _ = 1 to 150_000 do
    x := lcg !x;
    let r, a = Hashtbl.find tbl (!x land (n - 1)) in
    r := !r +. 1.;
    acc := !acc +. float (List.length [ !x; a.(!x land 7) ])
  done;
  !acc

module M = Map.Make (Int)

let tree () =
  let m = ref M.empty and x = ref 777 in
  for i = 1 to 100_000 do
    x := lcg !x;
    m := M.add (!x land 4095) (fun () -> i) !m;
    m := M.remove ((!x lsr 12) land 4095) !m
  done;
  float (M.cardinal !m)

let stencil () =
  let m = 512 in
  let g = Array.init m (fun i -> Array.init m (fun j -> float (i + j))) in
  for _ = 1 to 50 do
    for i = 1 to m - 2 do
      let row = g.(i) and up = g.(i - 1) and down = g.(i + 1) in
      for j = 1 to m - 2 do
        row.(j) <- 0.25 *. (up.(j) +. down.(j) +. row.(j - 1) +. row.(j + 1))
      done
    done
  done;
  g.(m / 2).(m / 2)

(* Processor seconds the unit takes in this process. *)
let run () =
  let c0 = Bench.cpu_now () in
  ignore (Sys.opaque_identity (hash () +. tree () +. stencil ()));
  Bench.cpu_now () -. c0
