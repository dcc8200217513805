type value = Int of int | Flag of bool
type param = { name : string; doc : string; default : value }
type params = (string * value) list
type outcome = {
  summary : string Lazy.t;
  correct : bool Lazy.t;
  time_ms : float;
  read_faults : int;
  write_faults : int;
  pages : int;
  diff_bytes : int;
}

type entry = {
  name : string;
  doc : string;
  protocol : string;
  params : param list;
  check : nodes:int -> params -> string option;
  run :
    nodes:int ->
    driver:Dsmpm2_net.Driver.t ->
    protocol:string ->
    seed:int option ->
    observe:(Dsmpm2_core.Dsm.t -> unit) option ->
    params ->
    outcome;
}

(* Entries read only the parameters they declare, with their kinds. *)
let int p name = match List.assoc name p with Int v -> v | Flag _ -> invalid_arg name
let flag p name = match List.assoc name p with Flag b -> b | Int _ -> invalid_arg name

(* The generic summary; tsp, jacobi and coloring keep their own lines. *)
let outcome ?summary name ~protocol ~nodes ~correct ~time_ms ~read_faults
    ~write_faults ?(pages = 0) ?(diff_bytes = 0) () =
  let summary =
    match summary with
    | Some s -> s
    | None ->
        lazy
          (Printf.sprintf
             "%s: protocol=%s nodes=%d time=%.1fms result=%s faults=%d pages=%d" name
             protocol nodes time_ms
             (if Lazy.force correct then "OK" else "WRONG")
             (read_faults + write_faults) pages)
  in
  { summary; correct; time_ms; read_faults; write_faults; pages; diff_bytes }

let rows_per_node ~nodes p = Workloads.idle_rows ~nodes ~size:(int p "size")
let no_check ~nodes:_ _ = None
let size doc default = { name = "size"; doc; default = Int default }
let data_seed doc default = { name = "seed"; doc; default = Int default }

let tsp =
  let d = Tsp.default in
  {
    name = "tsp";
    doc = "Run the TSP branch-and-bound application.";
    protocol = d.protocol;
    params =
      [
        { name = "cities"; doc = "Number of cities."; default = Int d.cities };
        { name = "balance"; doc = "Run the PM2 load balancer."; default = Flag d.balance };
        data_seed "Seed of the random distance matrix." d.seed;
      ];
    check =
      (fun ~nodes:_ p ->
        if int p "cities" < 2 then Some "--cities must be at least 2" else None);
    run =
      (fun ~nodes ~driver ~protocol ~seed ~observe p ->
        let cities = int p "cities" and data_seed = int p "seed" in
        let r =
          Tsp.run
            { d with protocol; nodes; driver; cities; seed = data_seed;
                     balance = flag p "balance"; tie_seed = seed; observe }
        in
        let summary =
          lazy
            (Printf.sprintf
               "tsp: protocol=%s nodes=%d cities=%d time=%.1fms best=%d \
                expansions=%d migrations=%d balancer_moves=%d faults=%d \
                messages=%d workers=[%s]"
               protocol nodes cities r.time_ms r.best r.expansions r.migrations
               r.balancer_moves (r.read_faults + r.write_faults) r.messages
               (String.concat ";" (List.map string_of_int r.final_node_of_thread)))
        in
        outcome ~summary "tsp" ~protocol ~nodes ~time_ms:r.time_ms
          ~correct:
            (lazy (r.best = Tsp.solve_sequential (Tsp.distances ~cities ~seed:data_seed)))
          ~read_faults:r.read_faults ~write_faults:r.write_faults ());
  }

let jacobi =
  let d = Jacobi.default in
  {
    name = "jacobi";
    doc = "Run the Jacobi relaxation kernel.";
    protocol = d.protocol;
    params =
      [ size "Grid side." d.size;
        { name = "iterations"; doc = "Sweeps."; default = Int d.iterations } ];
    check = rows_per_node;
    run =
      (fun ~nodes ~driver ~protocol ~seed ~observe p ->
        let size = int p "size" and iterations = int p "iterations" in
        let r =
          Jacobi.run
            { d with protocol; nodes; driver; size; iterations; tie_seed = seed; observe }
        in
        let correct = lazy (r.checksum = Jacobi.checksum_sequential ~size ~iterations) in
        let summary =
          lazy
            (Printf.sprintf
               "jacobi: protocol=%s nodes=%d size=%d iters=%d time=%.1fms \
                checksum=%s faults=%d pages=%d diff_bytes=%d"
               protocol nodes size iterations r.time_ms
               (if Lazy.force correct then "OK" else "WRONG")
               (r.read_faults + r.write_faults) r.pages_transferred r.diff_bytes)
        in
        outcome ~summary "jacobi" ~protocol ~nodes ~correct ~time_ms:r.time_ms
          ~read_faults:r.read_faults ~write_faults:r.write_faults
          ~pages:r.pages_transferred ~diff_bytes:r.diff_bytes ());
  }

let coloring =
  let d = Map_coloring.default in
  {
    name = "coloring";
    doc = "Run the Hyperion-style map-colouring application.";
    protocol = d.protocol;
    params = [];
    check = no_check;
    run =
      (fun ~nodes ~driver ~protocol ~seed ~observe _ ->
        let r =
          Map_coloring.run { d with protocol; nodes; driver; tie_seed = seed; observe }
        in
        let summary =
          lazy
            (Printf.sprintf
               "coloring: protocol=%s nodes=%d time=%.1fms cost=%d gets=%d \
                checks=%d faults=%d"
               protocol nodes r.time_ms r.best_cost r.gets r.inline_checks
               (r.read_faults + r.write_faults))
        in
        outcome ~summary "coloring" ~protocol ~nodes ~time_ms:r.time_ms
          ~correct:
            (lazy
              (r.best_cost = Map_coloring.solve_sequential ~color_costs:d.color_costs ()))
          ~read_faults:r.read_faults ~write_faults:r.write_faults ());
  }

let lu =
  let d = Lu.default in
  {
    name = "lu";
    doc = "Run the LU-patterned Gaussian elimination kernel.";
    protocol = d.protocol;
    params = [ size "Matrix side." d.size; data_seed "Seed of the input matrix." d.seed ];
    check = rows_per_node;
    run =
      (fun ~nodes ~driver ~protocol ~seed ~observe p ->
        let size = int p "size" and data_seed = int p "seed" in
        let r =
          Lu.run
            { d with protocol; nodes; driver; size; seed = data_seed; tie_seed = seed;
                     observe }
        in
        outcome "lu" ~protocol ~nodes ~time_ms:r.time_ms
          ~correct:(lazy (r.checksum = Lu.checksum_sequential ~size ~seed:data_seed))
          ~read_faults:r.read_faults ~write_faults:r.write_faults
          ~pages:r.pages_transferred ());
  }

let matmul =
  let d = Matmul.default in
  {
    name = "matmul";
    doc = "Run the blocked matrix-multiplication kernel.";
    protocol = d.protocol;
    params = [ size "Matrix side." d.size; data_seed "Seed of the input matrices." d.seed ];
    check = rows_per_node;
    run =
      (fun ~nodes ~driver ~protocol ~seed ~observe p ->
        let size = int p "size" and data_seed = int p "seed" in
        let r =
          Matmul.run
            { d with protocol; nodes; driver; size; seed = data_seed; tie_seed = seed;
                     observe }
        in
        outcome "matmul" ~protocol ~nodes ~time_ms:r.time_ms
          ~correct:(lazy (r.checksum = Matmul.checksum_sequential ~size ~seed:data_seed))
          ~read_faults:r.read_faults ~write_faults:r.write_faults
          ~pages:r.pages_transferred ());
  }

let sort =
  let d = Sort.default in
  {
    name = "sort";
    doc = "Run the odd-even transposition sort kernel.";
    protocol = d.protocol;
    params =
      [
        { name = "elements_per_node"; doc = "Elements in each node's block.";
          default = Int d.elements_per_node };
        data_seed "Seed of the input array." d.seed;
      ];
    check = no_check;
    run =
      (fun ~nodes ~driver ~protocol ~seed ~observe p ->
        let r =
          Sort.run
            { d with protocol; nodes; driver; elements_per_node = int p "elements_per_node";
                     seed = int p "seed"; tie_seed = seed; observe }
        in
        outcome "sort" ~protocol ~nodes ~time_ms:r.time_ms
          ~correct:(lazy (r.sorted && r.correct))
          ~read_faults:r.read_faults ~write_faults:r.write_faults
          ~pages:r.pages_transferred ());
  }

let all = [ tsp; jacobi; coloring; lu; matmul; sort ]
let find name = List.find_opt (fun e -> e.name = name) all

let resolve e ~nodes ?seed given =
  let declared name = List.exists (fun (p : param) -> p.name = name) e.params in
  match List.find_opt (fun (name, _) -> not (declared name)) given with
  | Some (name, _) -> Error (Printf.sprintf "%s takes no --%s" e.name name)
  | None when nodes < 1 -> Error "--nodes must be at least 1"
  | None ->
      let value (p : param) =
        match (List.assoc_opt p.name given, seed) with
        | Some v, _ -> v
        | None, Some s when p.name = "seed" -> Int s
        | None, _ -> p.default
      in
      let params = List.map (fun (p : param) -> (p.name, value p)) e.params in
      match e.check ~nodes params with Some reason -> Error reason | None -> Ok params
