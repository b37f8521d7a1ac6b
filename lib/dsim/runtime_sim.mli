(** The simulator as an {!Runtime.Etx_runtime} backend.

    This is the runtime adapter: the one place where the backend-agnostic
    protocol stack meets [Dsim.Engine]. Orchestration code builds the
    engine, wraps it here, and threads the capability through the protocol
    [config] records; the engine handle stays available on the side for
    trace analysis, [crash_at] fault scripts and [now_of]. {!Runtime_live}
    reuses it with its own wall-clock [run_until]. [notes] replays
    [Trace.Note] entries, so the engine must be created with
    [~tracing:true] for note-based checks ([Spec]). *)

val of_engine : Engine.t -> Runtime.Etx_runtime.t
