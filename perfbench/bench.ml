(* The benchmark's workloads, its timed run, its isolated per-layer loops and
   its spans.  Everything here calls the library's public entry points only:
   the apps' [run], the layers' public functions and their public counters.
   No tracing is added inside the library. *)

open Dsmpm2_sim
open Dsmpm2_net
open Dsmpm2_pm2
open Dsmpm2_mem
open Dsmpm2_core
open Dsmpm2_apps

(* Monotonic, in ns: setup on the small workloads takes a fraction of a
   millisecond, where the 1 µs steps of [Unix.gettimeofday] would show. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Processor seconds of this process, user and system, in 1 µs steps.
   Unlike [now] they leave out the time the process waits for a processor,
   which on a shared host is most of the noise. *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ---------------------------------------------------------------- spans *)

type span = { sp_name : string; sp_parent : string; sp_start : float; sp_end : float }

(* Kept in memory for the life of the process and printed with its result;
   [run.py] writes them out when the benchmark ends. *)
let spans : span list ref = ref []

let add_span ?(parent = "") name t0 t1 =
  spans := { sp_name = name; sp_parent = parent; sp_start = t0; sp_end = t1 } :: !spans

let with_span ?parent name f =
  let t0 = now () in
  let r = f () in
  add_span ?parent name t0 (now ());
  r

(* ------------------------------------------------------------ workloads *)

type outcome = {
  sim_ms : float;
  messages : int;
  read_faults : int;
  write_faults : int;
  oracle : unit -> (unit, string) result;
      (* evaluated after the timed region: the sequential oracles are not
         part of the measured run *)
}

type workload = {
  name : string;
  protocol : string;
  driver : Driver.t;
  nodes : int;
  run : seed:int -> observe:(Dsm.t -> unit) option -> outcome;
}

(* Colour costs 1/2/4/8 shrink the paper's 1/2/3/4 search about eightfold
   (1.3 M Hyperion gets instead of 10 M) so that one run takes about half a
   second of host time; the access profile is unchanged: local gets
   dominate, remote misses are rare. *)
let coloring_costs = [| 1; 2; 4; 8 |]

let coloring_pf =
  let cfg = { Map_coloring.default with color_costs = coloring_costs } in
  {
    name = "coloring_pf";
    protocol = cfg.protocol;
    driver = cfg.driver;
    nodes = cfg.nodes;
    run =
      (fun ~seed ~observe ->
        let r = Map_coloring.run { cfg with tie_seed = Some seed; observe } in
        {
          sim_ms = r.time_ms;
          messages = r.messages;
          read_faults = r.read_faults;
          write_faults = r.write_faults;
          oracle =
            (fun () ->
              let expect = Map_coloring.solve_sequential ~color_costs:coloring_costs () in
              if r.best_cost = expect then Ok ()
              else Error (Printf.sprintf "best_cost %d, sequential %d" r.best_cost expect));
        });
  }

(* One grid row per node: every node is a worker and [Dsm.malloc] declares
   pages x nodes page-table entries, the nodes x pages scaling regime. *)
let jacobi_wide =
  let n = 256 in
  let cfg =
    { Jacobi.default with size = n; nodes = n; iterations = 2; protocol = "hbrc_mw";
      driver = Driver.bip_myrinet }
  in
  {
    name = "jacobi_wide";
    protocol = cfg.protocol;
    driver = cfg.driver;
    nodes = cfg.nodes;
    run =
      (fun ~seed ~observe ->
        let r = Jacobi.run { cfg with tie_seed = Some seed; observe } in
        {
          sim_ms = r.time_ms;
          messages = r.messages;
          read_faults = r.read_faults;
          write_faults = r.write_faults;
          oracle =
            (fun () ->
              let expect = Jacobi.checksum_sequential ~size:cfg.size ~iterations:cfg.iterations in
              if r.checksum = expect then Ok ()
              else Error (Printf.sprintf "checksum %d, sequential %d" r.checksum expect));
        });
  }

let sort_quorum =
  let cfg =
    { Sort.default with elements_per_node = 128; nodes = 4; protocol = "sc_abd";
      driver = Driver.bip_myrinet }
  in
  {
    name = "sort_quorum";
    protocol = cfg.protocol;
    driver = cfg.driver;
    nodes = cfg.nodes;
    run =
      (fun ~seed ~observe ->
        let r = Sort.run { cfg with seed; tie_seed = Some seed; observe } in
        {
          sim_ms = r.time_ms;
          messages = r.messages;
          read_faults = r.read_faults;
          write_faults = r.write_faults;
          oracle =
            (fun () ->
              if r.sorted && r.correct then Ok ()
              else Error (Printf.sprintf "sorted=%b correct=%b" r.sorted r.correct));
        });
  }

let workloads = [ coloring_pf; jacobi_wide; sort_quorum ]

let find name =
  match List.find_opt (fun w -> w.name = name) workloads with
  | Some w -> w
  | None -> invalid_arg ("unknown workload " ^ name)

(* ----------------------------------------------------------------- pins *)

let pin_key sim_ms = Printf.sprintf "%.17g" sim_ms

let pin_row w ~seed = List.find_opt (fun (n, s, _, _, _, _) -> n = w.name && s = seed) Pins.table
let pinned w ~seed = Option.is_some (pin_row w ~seed)

(* A seed with no row passes: [run.py] says so on its output, and still
   checks that every run repeats the invocation's first one. *)
let check_pin w ~seed o =
  match pin_row w ~seed with
  | None -> Ok ()
  | Some (_, _, sim, msgs, rf, wf) ->
      let got = (pin_key o.sim_ms, o.messages, o.read_faults, o.write_faults) in
      if got = (sim, msgs, rf, wf) then Ok ()
      else
        Error
          (Printf.sprintf "pinned sim_ms=%s messages=%d faults=%d/%d, got %s %d %d/%d" sim msgs
             rf wf (pin_key o.sim_ms) o.messages o.read_faults o.write_faults)

(* ------------------------------------------------------------ timed run *)

type run_result = {
  failure : string option;
  host_s : float;  (** entering the app's [run] to its return *)
  setup_s : float;  (** entering [run] to the first observer event at time 0 *)
  host_cpu_s : float;  (** [host_s] in processor seconds *)
  setup_cpu_s : float;  (** [setup_s] in processor seconds *)
  alloc_mwords : float;
  peak_heap_mb : float;
  outcome : outcome option;
  counters : (string * float) list;
}

let words_allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let mb_of_words w = float w *. float (Sys.word_size / 8) /. 1048576.

let stage_us stats name = Time.to_us (Stats.span_total stats name)

(* Public counters read after the run: engine, network, RPC, [Dsm.stats]
   and the page tables. *)
let layer_counters dsm =
  let pm2 = Dsm.pm2 dsm in
  let net = Pm2.network pm2 and stats = Dsm.stats dsm in
  let count k = float (Stats.count stats k) in
  let entries = ref 0 in
  for node = 0 to Dsm.nodes dsm - 1 do
    entries := !entries + List.length (Page_table.entries (Runtime.table dsm node))
  done;
  [
    ("sim.events", float (Engine.events_executed (Dsm.engine dsm)));
    ("net.messages", float (Network.messages_sent net));
    ("net.bytes", float (Network.bytes_sent net));
    ("pm2.rpc_calls", float (Rpc.calls_made (Pm2.rpc pm2)));
    ("core.read_faults", count Instrument.read_faults);
    ("core.write_faults", count Instrument.write_faults);
    ("core.pages_sent", count Instrument.pages_sent);
    ("core.invalidate_rpcs", count Instrument.invalidate_rpcs);
    ("core.diff_bytes", count Instrument.diff_bytes);
    ("core.page_entries", float !entries);
    ("core.stage.fault_us", stage_us stats Instrument.stage_fault);
    ("core.stage.request_us", stage_us stats Instrument.stage_request);
    ("core.stage.transfer_us", stage_us stats Instrument.stage_transfer);
    ("core.stage.server_us", stage_us stats Instrument.stage_overhead_server);
    ("core.stage.client_us", stage_us stats Instrument.stage_overhead_client);
    ("core.barrier_wait_us", stage_us stats Instrument.barrier_wait);
    ("core.lock_wait_us", stage_us stats Instrument.lock_wait);
  ]

let fault_paths dsm =
  let a = Dsmpm2_experiments.Analyze.analyze (Monitor.trace dsm) in
  let d =
    Dsmpm2_experiments.Analyze.(dist_of_list (List.map (fun c -> c.ch_total_us) (chains a)))
  in
  [ ("core.fault_path_p50_us", d.d_p50_us); ("core.fault_path_p99_us", d.d_p99_us) ]

(* One whole run of [w].  [hook:false] runs the app with no observe hook at
   all (the neutrality reference); [traced] turns the monitor on through the
   hook.  Timings are only meaningful in a fresh process: [peak_heap_mb] is
   the process's own peak. *)
let run_once ?(hook = true) ?(traced = false) w ~seed =
  let rt = ref None and first_event = ref nan and first_event_cpu = ref nan in
  let observe dsm =
    rt := Some dsm;
    if traced then Monitor.enable dsm true;
    Engine.at_observer (Dsm.engine dsm) Time.zero (fun () ->
        first_event := now ();
        first_event_cpu := cpu_now ())
  in
  let gc0 = Gc.quick_stat () and w0 = words_allocated () in
  let c0 = cpu_now () and t0 = now () in
  let result =
    match w.run ~seed ~observe:(if hook then Some observe else None) with
    | o -> Ok o
    | exception Engine.Stalled n -> Error (Printf.sprintf "Engine.Stalled %d" n)
    | exception Dsm.Fault_storm { attempts; _ } ->
        Error (Printf.sprintf "Dsm.Fault_storm after %d attempts" attempts)
    | exception e -> Error (Printexc.to_string e)
  in
  let t1 = now () in
  let c1 = cpu_now () in
  let w1 = words_allocated () and gc1 = Gc.quick_stat () in
  add_span "run" t0 t1;
  if hook then begin
    add_span ~parent:"run" "setup" t0 !first_event;
    add_span ~parent:"run" "simulation" !first_event t1
  end;
  let failure =
    match result with
    | Error e -> Some e
    | Ok o -> (
        match o.oracle () with
        | Error e -> Some ("oracle: " ^ e)
        | Ok () -> ( match check_pin w ~seed o with Error e -> Some e | Ok () -> None))
  in
  let counters =
    match !rt with
    | None -> []
    | Some dsm ->
        Gc.full_major ();
        let live = (Gc.stat ()).Gc.live_words in
        let gc =
          [
            ("gc.live_mwords_end", float live /. 1e6);
            ("gc.promoted_mwords", (gc1.Gc.promoted_words -. gc0.Gc.promoted_words) /. 1e6);
            ("gc.major_collections", float (gc1.Gc.major_collections - gc0.Gc.major_collections));
            ("gc.minor_collections", float (gc1.Gc.minor_collections - gc0.Gc.minor_collections));
          ]
        in
        let traced_only =
          if traced then
            ("obs.trace_events", float (Trace.recorded (Monitor.trace dsm)))
            :: with_span "analyze" (fun () -> fault_paths dsm)
          else []
        in
        layer_counters dsm @ gc @ traced_only
  in
  {
    failure;
    host_s = t1 -. t0;
    setup_s = !first_event -. t0;
    host_cpu_s = c1 -. c0;
    setup_cpu_s = !first_event_cpu -. c0;
    alloc_mwords = (w1 -. w0) /. 1e6;
    peak_heap_mb = mb_of_words gc1.Gc.top_heap_words;
    outcome = Result.to_option result;
    counters;
  }

(* ------------------------------------------------- isolated layer loops *)

(* Each loop repeats trials until [budget] seconds of timed work have run
   (at least three trials) and reports the median trial in ns per
   operation.  A trial returns its timed seconds and operation count, so
   per-trial set-up stays outside the timing. *)
let budget = 0.25

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let per_op_ns name trial =
  with_span ~parent:"layers" name (fun () ->
      let rec go acc spent =
        if spent >= budget && List.length acc >= 3 then acc
        else
          let s, ops = trial () in
          go ((s /. float ops *. 1e9) :: acc) (spent +. s)
      in
      median (go [] 0.))

let timed ops f =
  let t0 = now () in
  f ();
  (now () -. t0, ops)

let page_bytes = Page.default_size

let dsm_for w ~seed =
  let dsm = Dsm.create ~tie_seed:seed ~nodes:w.nodes ~driver:w.driver () in
  ignore (Dsmpm2_protocols.Builtin.register_all dsm);
  ignore (Dsmpm2_protocols.Builtin.register_extras dsm);
  match Dsm.protocol_by_name dsm w.protocol with
  | Some p -> (dsm, p)
  | None -> invalid_arg ("unknown protocol " ^ w.protocol)

(* The core loops run in one runtime built with the workload's protocol,
   driver and node count, inside a thread on [node]. *)
let in_runtime w ~seed ~node body =
  let dsm, proto = dsm_for w ~seed in
  let result = ref [] in
  ignore (Dsm.spawn dsm ~node (fun () -> result := body dsm proto));
  Dsm.run dsm;
  !result

(* Read and write hits on a page the accessing node owns.  (Under sc_abd
   every access is a quorum round, so there this is the cost of a round.)
   Also reports the minor words each access allocates. *)
let access_loop dsm proto =
  let ops = 4096 in
  let base = Dsm.malloc dsm ~protocol:proto ~home:(Dsm.On_node 0) page_bytes in
  Dsm.write_int dsm base 0;
  ignore (Dsm.read_int dsm base);
  let measure name access =
    let words = ref [] in
    let ns =
      per_op_ns name (fun () ->
          let w0 = Gc.minor_words () in
          let r =
            timed ops (fun () ->
                for i = 0 to ops - 1 do
                  access (base + ((i land 511) * Page.word_bytes))
                done)
          in
          words := ((Gc.minor_words () -. w0) /. float ops) :: !words;
          r)
    in
    (ns, median !words)
  in
  let read_ns, read_words = measure "core.read_hit" (fun a -> ignore (Dsm.read_int dsm a)) in
  let write_ns, write_words = measure "core.write_hit" (fun a -> Dsm.write_int dsm a 1) in
  [
    ("core.read_hit_ns", read_ns);
    ("core.read_hit_words", read_words);
    ("core.write_hit_ns", write_ns);
    ("core.write_hit_words", write_words);
  ]

(* Host cost of [Dsm.malloc] per page-table entry it declares. *)
let malloc_loop dsm proto =
  let nodes = Dsm.nodes dsm in
  let pages = max 1 (16384 / nodes) in
  let ns =
    per_op_ns "core.malloc_entry" (fun () ->
        timed (pages * nodes) (fun () ->
            ignore (Dsm.malloc dsm ~protocol:proto ~home:Dsm.Block (pages * page_bytes))))
  in
  [ ("core.malloc_entry_ns", ns) ]

(* Host cost of a cold fault: the last node reads, then writes, fresh pages
   homed on node 0 — detection, protocol, RPC, network and engine
   dispatch. *)
let fault_loop dsm proto =
  let pages = 64 in
  let stats = Dsm.stats dsm in
  let faults () = Stats.count stats Instrument.read_faults + Stats.count stats Instrument.write_faults in
  let ns =
    per_op_ns "core.fault" (fun () ->
        let base = Dsm.malloc dsm ~protocol:proto ~home:(Dsm.On_node 0) (pages * page_bytes) in
        let f0 = faults () and t0 = now () in
        for p = 0 to pages - 1 do
          ignore (Dsm.read_int dsm (base + (p * page_bytes)))
        done;
        for p = 0 to pages - 1 do
          Dsm.write_int dsm (base + (p * page_bytes)) p
        done;
        (now () -. t0, faults () - f0))
  in
  [ ("core.fault_host_us", ns /. 1000.) ]

let core_loops w ~seed =
  in_runtime w ~seed ~node:0 access_loop
  @ in_runtime w ~seed ~node:0 malloc_loop
  @ in_runtime w ~seed ~node:(w.nodes - 1) fault_loop

let frame_loop () =
  let ops = 1_000_000 in
  let store = Frame_store.create ~geometry:(Page.geometry ~size:page_bytes) in
  Frame_store.write_int store ~addr:0 1;
  let trial () =
    timed ops (fun () ->
        let acc = ref 0 in
        for i = 0 to ops - 1 do
          acc := !acc + Frame_store.read_int store ~addr:((i land 511) * Page.word_bytes)
        done;
        ignore (Sys.opaque_identity !acc))
  in
  [ ("mem.frame_read_ns", per_op_ns "mem.frame_read" trial) ]

(* Diffs are timed in isolation only: no workload's host time is diff-bound. *)
let diff_loop () =
  let twin = Bytes.make page_bytes '\000' in
  let changed stride =
    let b = Bytes.copy twin in
    for w = 0 to (page_bytes / Page.word_bytes) - 1 do
      if w mod stride = 0 then Bytes.set_int64_le b (w * Page.word_bytes) (Int64.of_int (w + 1))
    done;
    b
  in
  let trial ops current () =
    timed ops (fun () ->
        for _ = 1 to ops do
          ignore (Sys.opaque_identity (Diff.compute ~page:0 ~twin ~current))
        done)
  in
  [
    ("mem.diff_sparse_ns", per_op_ns "mem.diff_sparse" (trial 20_000 (changed 64)));
    ("mem.diff_dense_ns", per_op_ns "mem.diff_dense" (trial 2_000 (changed 1)));
  ]

(* Chained timer events on a bare engine: ns per dispatched event. *)
let engine_loop () =
  let ops = 200_000 in
  let trial () =
    let e = Engine.create () in
    let rec tick k () = if k > 0 then Engine.after e (Time.of_ns 1) (tick (k - 1)) in
    Engine.at e Time.zero (tick ops);
    timed ops (fun () -> Engine.run e)
  in
  [ ("sim.dispatch_ns", per_op_ns "sim.dispatch" trial) ]

(* The network and PM2 loops run on a 2-node BIP/Myrinet stack. *)
let net_loop () =
  let ops = 100_000 in
  let trial () =
    let e = Engine.create () in
    let net = Network.create e ~driver:Driver.bip_myrinet ~nodes:2 in
    let delivered = ref 0 in
    timed ops (fun () ->
        for _ = 1 to ops do
          Network.send net ~src:0 ~dst:1 ~cost:Driver.Request (fun () -> incr delivered)
        done;
        Engine.run e)
  in
  [ ("net.send_ns", per_op_ns "net.send" trial) ]

let pm2_loops () =
  let ops = 20_000 in
  let in_thread body () =
    let pm2 = Pm2.create ~nodes:2 ~driver:Driver.bip_myrinet () in
    let go = body pm2 in
    ignore (Pm2.spawn pm2 ~node:0 go);
    timed ops (fun () -> Pm2.run pm2)
  in
  let null_rpc pm2 =
    let rpc = Pm2.rpc pm2 in
    let svc = Rpc.register rpc ~name:"null" (fun ~src:_ _ -> (Rpc.Unit, Driver.Null_rpc)) in
    fun () ->
      for _ = 1 to ops do
        ignore (Rpc.call rpc ~dst:1 ~service:svc ~cost:Driver.Null_rpc Rpc.Unit)
      done
  in
  let spawn_join pm2 () =
    let m = Pm2.marcel pm2 in
    for _ = 1 to ops do
      Marcel.join m (Marcel.spawn m ~node:0 ignore)
    done
  in
  let yields pm2 =
    let m = Pm2.marcel pm2 in
    let yielder () = for _ = 1 to ops / 2 do Marcel.yield m done in
    ignore (Pm2.spawn pm2 ~node:0 yielder);
    yielder
  in
  [
    ("pm2.null_rpc_ns", per_op_ns "pm2.null_rpc" (in_thread null_rpc));
    ("pm2.spawn_join_ns", per_op_ns "pm2.spawn_join" (in_thread spawn_join));
    ("pm2.yield_ns", per_op_ns "pm2.yield" (in_thread yields));
  ]

let layer_loops w ~seed =
  let t0 = now () in
  let m =
    core_loops w ~seed @ frame_loop () @ diff_loop ()
    @ engine_loop () @ net_loop () @ pm2_loops ()
  in
  add_span "layers" t0 (now ());
  m
