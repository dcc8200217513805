(** One observer configuration for a workload run.

    Every caller that runs an application — [dsm bench], the application
    subcommands, [dsm analyze], [dsm watch] and [dsm top] — describes what
    to attach to the runtime with one {!config} and attaches it with
    {!attach} from the application's [observe] hook, before any thread
    starts.  None of the attachments changes a seeded run's schedule. *)

type config = {
  monitor : bool;
      (** record the trace and metrics ({!Monitor.enable}); implied by
          every other field, which all read the trace *)
  ring_cap : int option;
      (** flight-recorder mode: keep only the newest [n] trace events
          ({!Dsmpm2_sim.Trace.set_capacity}) *)
  sample_pct : float option;
      (** head-based trace sampling: store roughly this share of fault
          spans ({!Dsmpm2_sim.Trace.set_sampling}) *)
  sample_seed : int;  (** keep decisions of [sample_pct] *)
  telemetry : bool;  (** attach the online telemetry engine *)
  watchdog : Watchdog.config option;
      (** attach the live watchdog, which brings its own telemetry engine *)
}

val off : config
(** Nothing attached, monitoring off: the application's plain run. *)

val attach : config -> Runtime.t -> Watchdog.t option
(** Applies [config] to a runtime, in the order monitor, ring, sampling,
    watchdog (or telemetry alone), and returns the watchdog it attached.
    The monitor is enabled when any field asks for something.
    The telemetry engine is found again with {!Telemetry.find}. *)
