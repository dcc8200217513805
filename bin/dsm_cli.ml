(* dsm-cli: run DSM-PM2 reproduction experiments and ad-hoc application
   configurations from the command line.

     dune exec bin/dsm_cli.exe -- table3
     dune exec bin/dsm_cli.exe -- tsp --protocol migrate_thread --nodes 8
     dune exec bin/dsm_cli.exe -- jacobi --protocol hbrc_mw --size 64
     dune exec bin/dsm_cli.exe -- coloring --protocol java_ic --nodes 2

   Applications run through the workload table (Dsmpm2_apps.Catalog): the
   tsp, jacobi and coloring subcommands are generated from their entries,
   and analyze, watch and top look the workload up there.

   Every subcommand accepts the observability flags:

     --trace-out FILE     Chrome trace_event JSON (chrome://tracing, Perfetto)
     --trace-jsonl FILE   one typed event per line; FILE.gz gzip-compresses
     --metrics-out FILE   stable JSON metrics snapshot
     --metrics-prom FILE  Prometheus text exposition of the metrics registry
     --report             post-mortem per-category / per-stage report
     --health             live watchdog + end-of-run health summary

   For the application subcommands these export the live trace of the run;
   for the table/figure experiments (which run many simulations internally)
   the trace flags are not applicable and --metrics-out / --report operate
   on the experiment's result table. *)

open Cmdliner
open Dsmpm2_sim
open Dsmpm2_core
open Dsmpm2_experiments
module Catalog = Dsmpm2_apps.Catalog

let ppf = Format.std_formatter

(* Prints "<cmd>: <message>" and exits 2: the verdict for a request the
   command cannot serve. *)
let fail cmd fmt = Format.kfprintf (fun _ -> exit 2) ppf ("%s: " ^^ fmt ^^ "@.") cmd

let lookup cmd find known name =
  match find name with
  | Some x -> x
  | None ->
      fail cmd "unknown workload %S (known: %s)" name (String.concat ", " known)

let workload_names = List.map (fun (e : Catalog.entry) -> e.name) Catalog.all
let find_workload cmd = lookup cmd Catalog.find workload_names
let known_workloads = String.concat ", " workload_names

let driver_conv =
  let parse s =
    match Dsmpm2_net.Driver.by_name s with
    | Some d -> Ok d
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown driver %S (known: %s)" s
               (String.concat ", "
                  (List.map (fun d -> d.Dsmpm2_net.Driver.name) Dsmpm2_net.Driver.all))))
  in
  let print fmt d = Format.pp_print_string fmt d.Dsmpm2_net.Driver.name in
  Arg.conv (parse, print)

let driver_arg =
  Arg.(
    value
    & opt driver_conv Dsmpm2_net.Driver.bip_myrinet
    & info [ "driver" ] ~docv:"DRIVER" ~doc:"Network driver (e.g. BIP/Myrinet, SISCI/SCI).")

let nodes_arg =
  Arg.(value & opt int 4 & info [ "nodes" ] ~docv:"N" ~doc:"Cluster size.")

(* The workloads that declare parameter [name], for flag docs. *)
let declaring name =
  List.filter_map
    (fun (e : Catalog.entry) ->
      if List.exists (fun (p : Catalog.param) -> p.name = name) e.params then Some e.name
      else None)
    Catalog.all
  |> String.concat ", "

let seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"SEED"
        ~doc:
          ("Engine tie seed, and the data seed of workloads that have one ("
          ^ declaring "seed"
          ^ ").  Absent, the workload's defaults apply and ties are not \
             perturbed."))

let file_arg name ~doc =
  Arg.(value & opt (some string) None & info [ name ] ~docv:"FILE" ~doc)

(* --- observer configuration, shared by every subcommand --- *)

(* --trace-cap, --sample-pct and --sample-seed: how a run stores its
   trace.  Each subcommand adds the monitor, telemetry and watchdog it
   needs. *)
let observe_term =
  let ring_cap =
    Arg.(
      value
      & opt (some int) None
      & info [ "trace-cap" ] ~docv:"N"
          ~doc:
            "Flight-recorder mode: keep only the newest $(docv) trace events \
             in a bounded ring (evictions are counted, the schedule is \
             unchanged).")
  in
  let sample_pct =
    Arg.(
      value
      & opt (some float) None
      & info [ "sample-pct" ] ~docv:"PCT"
          ~doc:
            "Deterministic head-based trace sampling: store roughly $(docv)% \
             of fault spans (whole spans are kept or dropped together; \
             alerts and injected-fault events are always kept; the schedule \
             and the online telemetry are unchanged).")
  in
  let sample_seed =
    Arg.(
      value & opt int 0
      & info [ "sample-seed" ] ~docv:"SEED"
          ~doc:
            "Seed for $(b,--sample-pct) keep decisions (same seed, same \
             spans kept).")
  in
  Term.(
    const (fun ring_cap sample_pct sample_seed ->
        { Observe.off with ring_cap; sample_pct; sample_seed })
    $ ring_cap $ sample_pct $ sample_seed)

type obs = {
  observe : Observe.config;
  trace_out : string option;
  trace_jsonl : string option;
  trace_dump : string option;
  metrics_out : string option;
  metrics_prom : string option;
  report : bool;
}

let obs_term =
  let trace_out =
    file_arg "trace-out" ~doc:"Write the event trace as Chrome trace_event JSON to $(docv)."
  in
  let trace_jsonl =
    file_arg "trace-jsonl"
      ~doc:"Write the event trace as JSON Lines (one event per line) to $(docv)."
  in
  let trace_dump =
    file_arg "trace-dump"
      ~doc:
        "Auto-dump the trace ring as JSONL to $(docv) the first time a \
         critical alert is recorded (a .gz suffix gzip-compresses)."
  in
  let metrics_out =
    file_arg "metrics-out" ~doc:"Write a JSON metrics snapshot to $(docv)."
  in
  let metrics_prom =
    file_arg "metrics-prom"
      ~doc:"Write the metrics registry in Prometheus text exposition format to $(docv)."
  in
  let report =
    Arg.(
      value & flag
      & info [ "report" ] ~doc:"Print the post-mortem monitoring report after the run.")
  in
  let health =
    Arg.(
      value & flag
      & info [ "health" ]
          ~doc:
            "Attach the live watchdog (invariant audits, deadlock/stall/thrash \
             detection) and print its health summary after the run.")
  in
  Term.(
    const
      (fun observe trace_out trace_jsonl trace_dump metrics_out metrics_prom
           report health ->
        let monitor =
          trace_out <> None || trace_jsonl <> None || trace_dump <> None || report
        in
        let watchdog = if health then Some Watchdog.default_config else None in
        {
          observe = { observe with Observe.monitor; watchdog };
          trace_out;
          trace_jsonl;
          trace_dump;
          metrics_out;
          metrics_prom;
          report;
        })
    $ observe_term $ trace_out $ trace_jsonl $ trace_dump $ metrics_out
    $ metrics_prom $ report $ health)

let to_formatter file f =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let fmt = Format.formatter_of_out_channel oc in
      f fmt;
      Format.pp_print_flush fmt ())

(* Dumps everything the observability flags asked for after an
   application run. *)
let export obs ~name ~protocol dsm watchdog =
  let tr = Monitor.trace dsm in
  Option.iter (fun file -> to_formatter file (fun fmt -> Trace.to_chrome fmt tr))
    obs.trace_out;
  Option.iter (fun file -> Trace.save_jsonl file tr) obs.trace_jsonl;
  Option.iter
    (fun file ->
      let meta = Monitor.run_meta ~protocol ~case:name dsm in
      Json.to_file file (Monitor.to_json ~experiment:name ~meta dsm))
    obs.metrics_out;
  Option.iter
    (fun file -> to_formatter file (fun fmt -> Monitor.to_prometheus fmt dsm))
    obs.metrics_prom;
  if obs.report then Monitor.report ppf dsm;
  Option.iter (fun w -> Format.fprintf ppf "%a@." Watchdog.pp_summary w) watchdog;
  if Trace.autodump_fired tr then
    Format.fprintf ppf
      "flight recorder: critical alert — dumped trace ring to %s@."
      (Option.value ~default:"?" (Trace.autodump_path tr))

(* The table/figure experiments run many simulations internally, so there is
   no single trace to export; --metrics-out and --report operate on the
   result table instead. *)
let experiment_obs obs ~name json =
  if obs.trace_out <> None || obs.trace_jsonl <> None || obs.trace_dump <> None
     || obs.observe.ring_cap <> None || obs.observe.sample_pct <> None
     || obs.metrics_prom <> None || obs.observe.watchdog <> None
  then
    Format.fprintf ppf
      "%s: --trace-out/--trace-jsonl/--trace-cap/--trace-dump/--metrics-prom/\
       --health only apply to application subcommands (tsp, jacobi, coloring); \
       ignoring@."
      name;
  Option.iter (fun file -> Json.to_file file json) obs.metrics_out;
  if obs.report then Format.fprintf ppf "%a@." Json.pp json

(* Each table/figure experiment runs once, prints its table and exports
   the table's JSON. *)
let experiment name doc run print to_json =
  let run obs =
    let t = run () in
    print ppf t;
    experiment_obs obs ~name (to_json t)
  in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ obs_term)

let experiments =
  [
    experiment "micro" "PM2 micro-benchmarks (paper section 2.1)." Micro.run
      Micro.print Micro.to_json;
    experiment "table2" "Protocol inventory (paper Table 2)." Table2_inventory.run
      Table2_inventory.print Table2_inventory.to_json;
    experiment "table3" "Read-fault breakdown, page transfer (paper Table 3)."
      (fun () -> Fault_cost.run Fault_cost.Page_transfer)
      Fault_cost.print Fault_cost.to_json;
    experiment "table4" "Read-fault breakdown, thread migration (paper Table 4)."
      (fun () -> Fault_cost.run Fault_cost.Thread_migration)
      Fault_cost.print Fault_cost.to_json;
    experiment "fig4" "TSP protocol comparison (paper Figure 4)."
      (fun () -> Fig4_tsp.run ()) Fig4_tsp.print Fig4_tsp.to_json;
    experiment "fig5" "Java consistency comparison (paper Figure 5)."
      (fun () -> Fig5_coloring.run ()) Fig5_coloring.print Fig5_coloring.to_json;
    experiment "splash" "SPLASH-style kernel study (paper section 5)." Splash.run
      Splash.print Splash.to_json;
    experiment "ablation" "Stack-size and sync-frequency ablations." Ablation.run
      Ablation.print Ablation.to_json;
    experiment "litmus" "Memory-model litmus tests across all protocols." Litmus.run
      Litmus.print Litmus.to_json;
    experiment "patterns" "Sharing-pattern study across all protocols."
      Sharing_patterns.run Sharing_patterns.print Sharing_patterns.to_json;
  ]

(* --- running a workload from the table --- *)

(* Where and how a workload runs: the flags every workload subcommand
   shares, plus the table parameters given explicitly. *)
type setup = {
  protocol : string option;
  nodes : int;
  driver : Dsmpm2_net.Driver.t;
  seed : int option;
  given : Catalog.params;
}

(* A flag per table parameter; [absent] defaults to the entry's default. *)
let param_arg ?absent (p : Catalog.param) =
  match p.default with
  | Catalog.Int d ->
      let absent = Option.value absent ~default:(string_of_int d) in
      Term.(
        const (Option.map (fun v -> (p.name, Catalog.Int v)))
        $ Arg.(value & opt (some int) None & info [ p.name ] ~docv:"N" ~absent ~doc:p.doc))
  | Catalog.Flag _ ->
      Term.(
        const (fun b -> if b then Some (p.name, Catalog.Flag true) else None)
        $ Arg.(value & flag & info [ p.name ] ~doc:p.doc))

let setup_term ?protocol_absent
    ?(protocol_doc = "Consistency protocol (default: the workload's own default).")
    params =
  let protocol =
    Arg.(
      value
      & opt (some string) None
      & info [ "protocol" ] ~docv:"PROTO" ?absent:protocol_absent ~doc:protocol_doc)
  in
  let given =
    List.fold_right
      (fun arg acc -> Term.(const (fun p l -> Option.to_list p @ l) $ arg $ acc))
      params (Term.const [])
  in
  Term.(
    const (fun protocol nodes driver seed given ->
        { protocol; nodes; driver; seed; given })
    $ protocol $ nodes_arg $ driver_arg $ seed_arg $ given)

type run = {
  outcome : Catalog.outcome option;  (** [None]: the run deadlocked *)
  dsm : Dsm.t;
  watchdog : Watchdog.t option;
  protocol : string;
}

(* The one place the CLI runs an application.  [on_attach] sees the
   runtime and its watchdog after [config] is attached, before any thread
   starts. *)
let run_workload ~cmd ?(on_attach = fun _ _ -> ()) (entry : Catalog.entry) s
    config =
  let params =
    match Catalog.resolve entry ~nodes:s.nodes ?seed:s.seed s.given with
    | Ok p -> p
    | Error msg -> fail cmd "%s" msg
  in
  let protocol = Option.value s.protocol ~default:entry.protocol in
  if not (List.mem protocol Dsmpm2_protocols.Builtin.names) then
    fail cmd "unknown protocol %S (registered: %s)" protocol
      (String.concat ", " Dsmpm2_protocols.Builtin.names);
  let attached = ref None in
  let observe dsm =
    let w = Observe.attach config dsm in
    attached := Some (dsm, w);
    on_attach dsm w
  in
  let outcome =
    match
      entry.run ~nodes:s.nodes ~driver:s.driver ~protocol ~seed:s.seed
        ~observe:(Some observe) params
    with
    | o -> Some o
    | exception Engine.Stalled live ->
        Format.fprintf ppf "%s: run deadlocked with %d live fiber(s)@." cmd live;
        None
  in
  let dsm, watchdog = Option.get !attached in
  { outcome; dsm; watchdog; protocol }

(* tsp, jacobi and coloring: one subcommand per table entry, with a flag
   per parameter (the data seed rides on --seed). *)
let app_cmd (entry : Catalog.entry) =
  let run s obs =
    let on_attach dsm _ =
      Option.iter (Trace.set_autodump (Monitor.trace dsm)) obs.trace_dump
    in
    let r = run_workload ~cmd:entry.name ~on_attach entry s obs.observe in
    Option.iter
      (fun o -> Format.fprintf ppf "%s@." (Lazy.force o.Catalog.summary))
      r.outcome;
    export obs ~name:entry.name ~protocol:r.protocol r.dsm r.watchdog;
    if r.outcome = None then exit 1
  in
  let params =
    List.filter_map
      (fun (p : Catalog.param) -> if p.name = "seed" then None else Some (param_arg p))
      entry.params
  in
  Cmd.v
    (Cmd.info entry.name ~doc:entry.doc)
    Term.(
      const run
      $ setup_term ~protocol_absent:entry.protocol
          ~protocol_doc:"Consistency protocol name." params
      $ obs_term)

let app_cmds =
  List.map (fun w -> app_cmd (Option.get (Catalog.find w))) [ "tsp"; "jacobi"; "coloring" ]

(* --- dsm analyze: the post-mortem trace analyzer --- *)

let analyze_cmd =
  let run workload trace_jsonl s observe top out folded_file =
    let trace, meta =
      match (trace_jsonl, workload) with
      | Some file, _ -> (
          (* A dump re-loaded from disk carries no identity metadata. *)
          match Trace.load_jsonl file with
          | Ok t -> (t, None)
          | Error msg -> fail "analyze" "%s" msg)
      | None, Some w ->
          let r =
            run_workload ~cmd:"analyze" (find_workload "analyze" w) s
              { observe with Observe.monitor = true }
          in
          ( Monitor.trace r.dsm,
            Some (Monitor.run_meta ~protocol:r.protocol ~case:w r.dsm) )
      | None, None ->
          fail "analyze" "give a workload (%s) or --trace-jsonl FILE" known_workloads
    in
    let a = Analyze.analyze ~top trace in
    Analyze.report ppf a;
    Option.iter (fun file -> Json.to_file file (Analyze.to_json ?meta a)) out;
    Option.iter
      (fun file -> to_formatter file (fun fmt -> Analyze.folded fmt a))
      folded_file
  in
  let workload =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"WORKLOAD"
          ~doc:("Application to run and analyze live: " ^ known_workloads ^ "."))
  in
  let trace_jsonl =
    file_arg "trace-jsonl"
      ~doc:"Analyze a previously exported JSONL trace instead of running."
  in
  let top =
    Arg.(
      value & opt int 5
      & info [ "top" ] ~docv:"K" ~doc:"How many slowest fault spans to detail.")
  in
  let out = file_arg "out" ~doc:"Write the analysis as stable JSON to $(docv)." in
  let folded_file =
    file_arg "folded" ~doc:"Write folded-stack lines (flamegraph.pl input) to $(docv)."
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Post-mortem trace analysis: fault critical paths, per-page sharing \
          patterns, lock/barrier contention, protocol advice.")
    Term.(
      const run $ workload $ trace_jsonl $ setup_term [] $ observe_term
      $ top $ out $ folded_file)

let check_cmd =
  let run seeds protocols workload replay verbose faults loss crashes explain
      expect_vulnerable obs =
    let protocols =
      match protocols with [] -> Conformance.all_protocols | ps -> ps
    in
    let workload_list =
      match workload with
      | None -> Conformance.workloads
      | Some w ->
          [
            lookup "check" Conformance.workload_by_name
              (List.map Conformance.workload_name Conformance.workloads)
              w;
          ]
    in
    if faults then begin
      (* The same grid under seeded crash/loss schedules.  With
         --expect-vulnerable the sweep is the CI smoke for the legacy
         protocols: it succeeds only when every swept protocol visibly
         fails (stall or typed crash) AND the watchdog attributed the
         failure with a typed fault alert — loud failure, never silent
         corruption. *)
      let spec =
        {
          Conformance.default_fault_spec with
          Conformance.f_loss_pct = loss;
          f_crashes = crashes;
        }
      in
      let progress =
        if verbose then fun cell -> Format.fprintf ppf "  done %s@." cell
        else fun _ -> ()
      in
      (* With --explain every failing outcome's violations are run through
         the blame engine; explanations land next to the run as
         explain_<proto>_<workload>_seed<N>.json/.dot artifacts.  An
         explanation whose causal chain is empty means the forensics lost
         the thread back to the injected fault — that is itself a failure. *)
      let empty_chains = ref [] in
      let on_failure protocol (o : Conformance.fault_outcome) =
        match o.Conformance.fo_explanations with
        | [] -> ()
        | xs ->
            let base =
              Printf.sprintf "explain_%s_%s_seed%d" protocol
                o.Conformance.fo_workload o.Conformance.fo_seed
            in
            Json.to_file (base ^ ".json")
              (Json.List (List.map Explain.to_json xs));
            to_formatter (base ^ ".dot") (fun fmt ->
                Explain.to_dot fmt (List.hd xs));
            List.iter
              (fun x ->
                if verbose then Format.fprintf ppf "%a@." Explain.to_text x;
                if Explain.causes x = [] then
                  empty_chains :=
                    (protocol, o.Conformance.fo_seed) :: !empty_chains)
              xs;
            Format.fprintf ppf "explain: wrote %s.json and %s.dot (%d explanation(s))@."
              base base (List.length xs)
      in
      let verdicts =
        Conformance.fault_sweep ~protocols ~workload_list ~spec ~progress
          ~explain ~on_failure ~seeds ()
      in
      Conformance.print_faults ppf verdicts;
      experiment_obs obs ~name:"check-faults"
        (Conformance.faults_to_json verdicts);
      if explain && !empty_chains <> [] then begin
        List.iter
          (fun (p, s) ->
            Format.fprintf ppf
              "explain: %s seed %d: violation with an empty causal chain — \
               the blame engine reached no injected fault@."
              p s)
          (List.rev !empty_chains);
        exit 1
      end;
      if expect_vulnerable then begin
        let fault_kinds =
          [ "node.dead"; "node.restart"; "node.partitioned"; "rpc.retry_storm" ]
        in
        let shielded =
          List.filter
            (fun v ->
              v.Conformance.fv_failures = 0
              || not
                   (List.exists
                      (fun k -> List.mem k v.Conformance.fv_alert_kinds)
                      fault_kinds))
            verdicts
        in
        match shielded with
        | [] ->
            Format.fprintf ppf
              "all %d protocols failed visibly with typed fault alerts, as \
               expected@."
              (List.length verdicts)
        | vs ->
            List.iter
              (fun v ->
                Format.fprintf ppf
                  "%s: expected a visible fault-induced failure with a typed \
                   alert, got %d failures (alerts: %s)@."
                  v.Conformance.fv_protocol v.Conformance.fv_failures
                  (String.concat ", " v.Conformance.fv_alert_kinds))
              vs;
            exit 1
      end
      else if Conformance.faults_failed verdicts then exit 1
    end
    else
    match replay with
    | Some seed ->
        (* Replay one seed across the selected grid and dump each failing
           outcome in full — the debugging entry point for a sweep failure. *)
        let any = ref false in
        List.iter
          (fun protocol ->
            List.iter
              (fun driver ->
                List.iter
                  (fun workload ->
                    let o = Conformance.run_one ~protocol ~driver ~workload ~seed in
                    if Conformance.outcome_failed o || verbose then begin
                      Format.fprintf ppf "%s / %s / %s / seed %d: %s@." protocol
                        driver.Dsmpm2_net.Driver.name
                        (Conformance.workload_name workload)
                        seed
                        (if Conformance.outcome_failed o then "FAIL" else "pass");
                      if Conformance.outcome_failed o then begin
                        any := true;
                        (match o.Conformance.o_wrong_result with
                        | Some msg -> Format.fprintf ppf "  wrong result: %s@." msg
                        | None -> ());
                        List.iter
                          (fun v ->
                            Format.fprintf ppf "  %s@."
                              (History.violation_to_string v))
                          o.Conformance.o_violations;
                        (* Re-run the same schedule with monitoring on and
                           show what the failing run actually did: its fault
                           critical paths and per-page profiles. *)
                        let _, dsm =
                          Conformance.run_one_traced ~protocol ~driver ~workload
                            ~seed
                        in
                        Analyze.report
                          ~sections:[ `Alerts; `Critical; `Pages ]
                          ppf
                          (Analyze.analyze ~top:3 (Monitor.trace dsm))
                      end
                    end)
                  workload_list)
              Dsmpm2_net.Driver.all)
          protocols;
        if !any then exit 1
    | None ->
        let progress =
          if verbose then fun cell -> Format.fprintf ppf "  done %s@." cell
          else fun _ -> ()
        in
        let verdicts =
          Conformance.sweep ~protocols ~workload_list ~progress ~seeds ()
        in
        Conformance.print ppf verdicts;
        experiment_obs obs ~name:"check" (Conformance.to_json verdicts);
        if Conformance.failed verdicts then exit 1
  in
  let seeds =
    Arg.(
      value & opt int 25
      & info [ "seeds" ] ~docv:"N" ~doc:"Number of perturbation seeds per cell.")
  in
  let protocols =
    Arg.(
      value
      & opt_all string []
      & info [ "protocol" ] ~docv:"PROTO"
          ~doc:"Check only $(docv) (repeatable; default: all builtins).")
  in
  let workload =
    Arg.(
      value
      & opt (some string) None
      & info [ "workload" ] ~docv:"NAME" ~doc:"Run a single workload by name.")
  in
  let replay =
    Arg.(
      value
      & opt (some int) None
      & info [ "replay" ] ~docv:"SEED"
          ~doc:"Replay one seed and print failing traces instead of sweeping.")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose" ] ~doc:"Print per-cell progress.")
  in
  let faults =
    Arg.(
      value & flag
      & info [ "faults" ]
          ~doc:
            "Sweep seeded fault schedules (crash/restart windows plus \
             message loss) instead of fault-free perturbation.")
  in
  let loss =
    Arg.(
      value & opt float 1.0
      & info [ "loss" ] ~docv:"PCT"
          ~doc:"Cross-node message loss percentage for $(b,--faults).")
  in
  let crashes =
    Arg.(
      value & opt int 2
      & info [ "crashes" ] ~docv:"N"
          ~doc:"Crash windows per fault schedule for $(b,--faults).")
  in
  let explain =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "With $(b,--faults): run the causal blame engine over every \
             checker violation, print each cause, and write \
             explain_*.json/.dot artifacts.  Fails (exit 1) if any \
             explanation has an empty causal chain.")
  in
  let expect_vulnerable =
    Arg.(
      value & flag
      & info [ "expect-vulnerable" ]
          ~doc:
            "Invert the $(b,--faults) verdict: succeed only when every swept \
             protocol fails visibly (stall or crash) with a typed watchdog \
             fault alert — the CI smoke for non-fault-tolerant protocols.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Conformance-check every protocol against its declared consistency \
          model under perturbed schedules, optionally with fault injection.")
    Term.(
      const run $ seeds $ protocols $ workload $ replay $ verbose $ faults
      $ loss $ crashes $ explain $ expect_vulnerable $ obs_term)


(* --- dsm watch and dsm top: a workload under the live watchdog ---

   Both run the workload with the watchdog attached, print a frame on each
   of its schedule-neutral sampling ticks (repainting in place on a
   terminal, one frame per tick when piped), then the end-of-run summary,
   and exit 1 on a critical alert.  They differ only in the frame and in
   the --out payload: `dsm watch` shows health (rates, audits, alerts) and
   writes the health report; `dsm top` shows the memory (the online
   telemetry engine's cluster fault-latency sketch percentiles,
   per-protocol and per-node fault counts, and the hottest pages with
   their streaming sharing classification and protocol advice) and writes
   the telemetry snapshot.  Telemetry reads the trace observer stream, so
   it stays exact under --trace-cap rings and --sample-pct sampling. *)

let live ~cmd ~frame ?last ~payload workload s observe watchdog out quiet =
  let tty = Unix.isatty Unix.stdout in
  let clear () = if tty then Format.fprintf ppf "\027[H\027[2J" in
  let on_attach _ w =
    if not quiet then
      Option.iter
        (fun w ->
          Watchdog.set_on_sample w (fun sample ->
              clear ();
              Format.fprintf ppf "%a@." frame (w, sample)))
        w
  in
  let r =
    run_workload ~cmd ~on_attach (find_workload cmd workload) s
      { observe with Observe.watchdog = Some watchdog }
  in
  let w = Option.get r.watchdog in
  Option.iter
    (fun last ->
      if not quiet then clear ();
      Format.fprintf ppf "%a@." last w)
    last;
  Format.fprintf ppf "%a@." Watchdog.pp_summary w;
  Option.iter (fun file -> Json.to_file file (payload w)) out;
  let _, _, critical = Watchdog.alert_counts w in
  if critical > 0 then exit 1

let live_workload_arg ~doc =
  Arg.(
    value & opt string "jacobi"
    & info [ "workload" ] ~docv:"NAME" ~doc:(doc ^ ": " ^ known_workloads ^ "."))

let interval_arg ~doc =
  Arg.(
    value
    & opt float (Time.to_us Watchdog.default_config.Watchdog.interval)
    & info [ "interval" ] ~docv:"US" ~doc)

let quiet_arg ~doc = Arg.(value & flag & info [ "quiet" ] ~doc)

let watch_cmd =
  let run workload s observe interval_us stall_us out quiet =
    let watchdog =
      Watchdog.
        {
          default_config with
          interval = Time.of_us interval_us;
          stall = Time.of_us stall_us;
        }
    in
    live ~cmd:"watch" ~frame:Watchdog.pp_sample ~payload:Watchdog.health_json
      workload s observe watchdog out quiet
  in
  let stall_us =
    Arg.(
      value
      & opt float (Time.to_us Watchdog.default_config.Watchdog.stall)
      & info [ "stall-us" ] ~docv:"US"
          ~doc:"Report threads blocked longer than $(docv) simulated microseconds.")
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:
         "Run an application under the live watchdog: periodic invariant \
          audits, deadlock/stall detection, thrash detection and a \
          refreshing rate dashboard.  Exits non-zero on critical alerts.")
    Term.(
      const run
      $ live_workload_arg ~doc:"Application to watch"
      $ setup_term [] $ observe_term
      $ interval_arg ~doc:"Sampling period in simulated microseconds."
      $ stall_us
      $ file_arg "out" ~doc:"Write the stable JSON health report to $(docv)."
      $ quiet_arg ~doc:"Skip the live dashboard; print only the final summary.")

let top_cmd =
  let run workload s observe interval_us top out quiet =
    let telemetry fmt w = Telemetry.pp_top ~top fmt (Watchdog.telemetry w) in
    live ~cmd:"top"
      ~frame:(fun fmt (w, _) -> telemetry fmt w)
      ~last:telemetry
      ~payload:(fun w -> Telemetry.to_json (Watchdog.telemetry w))
      workload s observe
      { Watchdog.default_config with interval = Time.of_us interval_us }
      out quiet
  in
  (* Workload parameters top accepts; a workload that does not declare the
     one given rejects the run. *)
  let params =
    List.map
      (param_arg ~absent:"the workload's own")
      [
        { Catalog.name = "size"; doc = "Grid or matrix side (" ^ declaring "size" ^ ").";
          default = Int 0 };
        { name = "iterations"; doc = "Sweeps (" ^ declaring "iterations" ^ ").";
          default = Int 0 };
      ]
  in
  let top =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"K" ~doc:"Hottest pages shown per frame.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Run an application under the online telemetry engine and show live \
          hierarchical rollups: cluster fault-latency sketch percentiles, \
          per-protocol and per-node fault counts, and the hottest pages with \
          streaming sharing classifications and protocol advice.  Exact even \
          under $(b,--trace-cap) and $(b,--sample-pct).  Exits non-zero on \
          critical alerts.")
    Term.(
      const run
      $ live_workload_arg ~doc:"Application to profile"
      $ setup_term params $ observe_term
      $ interval_arg ~doc:"Refresh period in simulated microseconds."
      $ top
      $ file_arg "out" ~doc:"Write the stable JSON telemetry snapshot to $(docv)."
      $ quiet_arg ~doc:"Skip the live frames; print only the final one.")

(* --- dsm bench: the seeded macro-benchmark observatory --- *)

let bench_cmd =
  let run seeds filter quick out quiet =
    let seeds = match seeds with [] -> Bench_suite.default_seeds | s -> s in
    let selected =
      Bench_suite.filter_cases ?filter ~quick (Bench_suite.cases ())
    in
    if selected = [] then fail "bench" "no case matches the filter";
    let progress cr =
      if not quiet then
        Format.fprintf ppf "bench: done %s (%d seeds)@."
          cr.Bench_suite.cr_case.Bench_suite.c_id
          (List.length cr.Bench_suite.cr_samples)
    in
    let t = Bench_suite.run ~seeds ?filter ~quick ~progress () in
    Bench_suite.print ppf t;
    Option.iter
      (fun file ->
        (* write_file gzip-compresses when the path ends in .gz *)
        Gzip.write_file file
          (Json.to_string_pretty (Bench_suite.to_json t) ^ "\n");
        if not quiet then Format.fprintf ppf "bench: wrote %s@." file)
      out
  in
  let seeds =
    Arg.(
      value
      & opt_all int []
      & info [ "seeds" ] ~docv:"SEED"
          ~doc:
            "Engine tie seed (repeatable; default: the suite's committed \
             seed list).  Baselines are only comparable over the same seeds.")
  in
  let filter =
    Arg.(
      value
      & opt (some string) None
      & info [ "filter" ] ~docv:"SUBSTR"
          ~doc:"Run only cases whose id contains $(docv), e.g. jacobi or hbrc_mw.")
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"Run only the CI smoke subset of the matrix.")
  in
  let out =
    file_arg "out"
      ~doc:
        "Write the BENCH_macro.json snapshot to $(docv) (a .gz suffix \
         gzip-compresses)."
  in
  let quiet =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Skip per-case progress lines.")
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Run the seeded macro-benchmark suite: every application kernel \
          under a fixed protocol/driver matrix, recording simulated time, \
          traffic, faults and fault-latency tails.  Deterministic per tie \
          seed, so snapshots diff exactly across code revisions.")
    Term.(const run $ seeds $ filter $ quick $ out $ quiet)

(* --- dsm diff: differential comparison of two runs --- *)

let diff_cmd =
  let run baseline fresh threshold force format out =
    let load what path =
      match Rundiff.load_source path with
      | Ok s -> s
      | Error msg -> fail "diff" "%s: %s" what msg
    in
    let b = load "baseline" baseline and f = load "fresh" fresh in
    match Rundiff.diff ~threshold_pct:threshold ~force ~baseline:b ~fresh:f () with
    | Error msg -> fail "diff" "%s" msg
    | Ok d ->
        let render fmt =
          match format with
          | `Text -> Rundiff.pp_text fmt d
          | `Markdown -> Rundiff.pp_markdown fmt d
          | `Json -> Format.fprintf fmt "%a@." Json.pp (Rundiff.to_json d)
        in
        (match out with
        | None -> render ppf
        | Some file ->
            to_formatter file render;
            Format.fprintf ppf "diff: wrote %s@." file);
        List.iter
          (fun line -> Format.fprintf ppf "regression: %s@." line)
          (Rundiff.regressions d);
        if Rundiff.significant_regression d then exit 1
  in
  let baseline =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BASELINE"
          ~doc:"Baseline artifact: a BENCH_macro.json snapshot or a JSONL \
                trace dump (gzip-transparent).")
  in
  let fresh =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"FRESH" ~doc:"The artifact to compare against the baseline.")
  in
  let threshold =
    Arg.(
      value
      & opt float Rundiff.default_threshold_pct
      & info [ "threshold" ] ~docv:"PCT"
          ~doc:"Relative significance threshold in percent.")
  in
  let force =
    Arg.(
      value & flag
      & info [ "force" ]
          ~doc:
            "Compare even when the run metadata disagrees (different seeds, \
             drivers, protocols or node counts).")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json); ("markdown", `Markdown) ]) `Text
      & info [ "format" ] ~docv:"FMT" ~doc:"Output format: text, json or markdown.")
  in
  let out = file_arg "out" ~doc:"Write the report to $(docv) instead of stdout." in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two observability artifacts — macro-bench snapshots or \
          trace dumps — and report per-case metric deltas (with seed-noise \
          bounds), critical-path stage shifts, sharing-pattern drift and \
          alert changes.  Exits 1 on a significant regression, 2 on \
          incomparable inputs.")
    Term.(const run $ baseline $ fresh $ threshold $ force $ format $ out)

(* --- dsm explain: causal forensics over a trace dump --- *)

let explain_cmd =
  let run file json_out dot_out =
    match Trace.load_jsonl file with
    | Error msg -> fail "explain" "%s" msg
    | Ok trace ->
        let xs = Explain.explain_trace trace in
        (match xs with
        | [] ->
            Format.fprintf ppf
              "explain: no critical alert in %s — nothing to explain@." file
        | xs ->
            List.iter (fun x -> Format.fprintf ppf "%a@." Explain.to_text x) xs);
        Option.iter
          (fun f -> Json.to_file f (Json.List (List.map Explain.to_json xs)))
          json_out;
        Option.iter
          (fun f ->
            match xs with
            | [] ->
                Format.fprintf ppf "explain: no explanation to render as DOT@."
            | x :: _ -> to_formatter f (fun fmt -> Explain.to_dot fmt x))
          dot_out
  in
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE"
          ~doc:
            "A JSONL trace dump (gzip-transparent), e.g. a --trace-jsonl \
             export or a flight-recorder auto-dump.")
  in
  let json_out =
    file_arg "json" ~doc:"Write the explanations as stable JSON to $(docv)."
  in
  let dot_out =
    file_arg "dot"
      ~doc:
        "Write the first explanation's causal graph as Graphviz DOT to \
         $(docv)."
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Causal forensics: slice a trace dump backward from each critical \
          alert to the injected faults (dropped/blackholed messages, crash \
          windows, retry storms) that explain it.")
    Term.(const run $ file $ json_out $ dot_out)


let () =
  let info =
    Cmd.info "dsm-cli" ~version:"1.0.0"
      ~doc:"DSM-PM2 reproduction: experiments and applications."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          (experiments @ app_cmds
          @ [ analyze_cmd; check_cmd; explain_cmd; watch_cmd; top_cmd;
              bench_cmd; diff_cmd ])))
