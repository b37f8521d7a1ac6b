(** Reliable channel endpoints: retransmission + duplicate suppression.

    The paper assumes reliable channels with {e termination} (a message sent
    between two processes that stay up is eventually delivered) and
    {e integrity} (every message delivered at most once, and only if it was
    sent). In practice — the paper notes — "the abstraction of reliable
    channels is implemented by retransmitting messages and tracking
    duplicates"; this module is exactly that implementation.

    An endpoint lives inside one simulated process. Outgoing payloads get a
    per-destination sequence number and are retransmitted (with exponential
    back-off) until acknowledged or no longer needed: the protocol above
    may set a rule ({!retire_when}) that retires a message nobody waits
    for any more, such as a request whose result the client already holds.
    Incoming data messages are acknowledged, deduplicated by
    [(source, sequence)] and handed to the owning process's mailbox via
    [Etx_runtime.redeliver], so protocol code above receives ordinary
    messages and stays oblivious to this layer.

    Endpoint state is volatile: it dies with the process, which is the
    correct semantics — a crashed process forgets what it sent, and the
    paper's protocols tolerate exactly that. *)

open Runtime

type t

val create : ?on_silent:(Types.proc_id -> Types.payload -> unit) -> unit -> t
(** Must be called from inside the owning fiber. Each unacked message is
    first retransmitted after 10 ms, the delay doubling up to a cap of
    200 ms. A destination is {e silent} once one of its messages has
    reached the cap and the latest ack received from it was sent more than
    200 ms ago (or none has arrived). Then only its first capped message,
    the probe, keeps retransmitting every 200 ms; later capped messages are
    parked without a timer. Any ack from the destination re-sends every
    parked message at once, so once a crashed destination is back up its
    messages are delivered within one probe period plus one round trip.

    [on_silent dst p] is called once for a message [p] at its third
    retransmission, 70 ms after its send, if [dst] has acked nothing since
    the send (counted as [rc.silent]). It runs in the retransmitter's timer
    ({!Etx_runtime.timer}) and must not block. *)

val start : t -> unit
(** Registers the frame handler ({!Etx_runtime.on_message}), which acks,
    deduplicates and hands on each data frame and applies each ack inside
    its delivery event, and arms the retransmitter, a runtime timer that
    is armed only while a message is unacked. Call once, from
    the owning process, after [create]. *)

val send : t -> Types.proc_id -> Types.payload -> unit
(** Reliable send: at-least-once transmission; exactly-once delivery at a
    receiver endpoint while both processes stay up, unless the owner
    retires the message first ({!retire_when}). Non-blocking. *)

val retire_when : t -> (Types.proc_id -> Types.payload -> bool) -> unit
(** [retire_when t rule] sets the channel's retirement rule, replacing any
    earlier one (the layer that owns the channel sets it). When an unacked
    message [p] to [dst] falls due for retransmission and [rule dst p]
    holds, the message is retired instead of resent (counted as
    [rc.retire]): it leaves the outbox as if acknowledged, so it may never
    be delivered. A retired probe hands its role to the oldest parked
    message to the same destination, which is retransmitted at once. The
    rule runs in the retransmitter's timer, never for a message acked within
    its first 10 ms, and must not block. *)

val on_ack : t -> (Types.proc_id -> Types.payload -> unit) -> unit
(** [on_ack t hook] sets the channel's ack hook, replacing any earlier one
    (the layer that owns the channel sets it): [hook dst p] runs when the
    destination acknowledges message [p], once per message; a message the
    rule of {!retire_when} retired is never reported. It runs in the
    frame handler, inside the ack's delivery event, and must not block.
    Sends carry nothing extra for it. *)

val broadcast : t -> Types.proc_id list -> Types.payload -> unit

val pending : t -> int
(** Number of not-yet-acknowledged outgoing messages (for tests). *)

val out_of_order : t -> int
(** Number of incoming sequence numbers held for duplicate suppression
    above a stream's delivered prefix, over all streams (for tests). Each
    data frame carries its stream's low-water mark, so this stays bounded
    by the frames in flight, also at a receiver that recovered mid-stream. *)

val inner_payload : Types.payload -> Types.payload option
(** [Some p] when the payload is a reliable-channel data frame carrying [p];
    [None] otherwise. Trace analyses use this to count protocol messages
    rather than channel frames. *)

val is_overhead : Types.payload -> bool
(** Channel bookkeeping (acks) that message-count analyses should
    ignore. *)
