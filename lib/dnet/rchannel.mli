(** Reliable channel endpoints: retransmission + duplicate suppression.

    The paper assumes reliable channels with {e termination} (a message sent
    between two processes that stay up is eventually delivered) and
    {e integrity} (every message delivered at most once, and only if it was
    sent). In practice — the paper notes — "the abstraction of reliable
    channels is implemented by retransmitting messages and tracking
    duplicates"; this module is exactly that implementation.

    An endpoint lives inside one simulated process. Outgoing payloads get a
    per-destination sequence number and are retransmitted (with exponential
    back-off) until acknowledged; incoming data messages are acknowledged,
    deduplicated by [(source, sequence)] and handed to the owning process's
    mailbox via [Etx_runtime.redeliver], so protocol code above receives
    ordinary messages and stays oblivious to this layer.

    Endpoint state is volatile: it dies with the process, which is the
    correct semantics — a crashed process forgets what it sent, and the
    paper's protocols tolerate exactly that. *)

open Runtime

type t

val create : unit -> t
(** Must be called from inside the owning fiber. Each unacked message is
    first retransmitted after 10 ms, the delay doubling up to a cap of
    200 ms. A destination is {e silent} once one of its messages has
    reached the cap and the latest ack received from it was sent more than
    200 ms ago (or none has arrived). Then only its first capped message,
    the probe, keeps retransmitting every 200 ms; later capped messages are
    parked without a timer. Any ack from the destination re-sends every
    parked message at once, so once a crashed destination is back up its
    messages are delivered within one probe period plus one round trip. *)

val start : t -> unit
(** Forks the receive-handler and retransmitter fibers. Call once, from the
    owning process, after [create]. *)

val send : t -> Types.proc_id -> Types.payload -> unit
(** Reliable send: at-least-once transmission, exactly-once delivery at a
    receiver endpoint while both processes stay up. Non-blocking. *)

val broadcast : t -> Types.proc_id list -> Types.payload -> unit

val pending : t -> int
(** Number of not-yet-acknowledged outgoing messages (for tests). *)

val inner_payload : Types.payload -> Types.payload option
(** [Some p] when the payload is a reliable-channel data frame carrying [p];
    [None] otherwise. Trace analyses use this to count protocol messages
    rather than channel frames. *)

val is_overhead : Types.payload -> bool
(** Channel bookkeeping (acks, kicks) that message-count analyses should
    ignore. *)
