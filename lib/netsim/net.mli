(** Synchronous point-to-point network simulator.

    This is the substrate every protocol in the library runs on.  It models
    exactly the paper's network: [n] parties, a complete graph of private
    point-to-point channels, lockstep synchronous rounds, and {e no}
    broadcast primitive.  A party "broadcasting" must pay [n-1] separate
    messages — which is the entire subject of the paper.

    The simulator accounts, per party:
    - bits sent and received (message payloads, 8 bits per byte),
    - the set of distinct peers communicated with ({b locality}),
    - message counts and round counts.

    Communication complexity is defined as in §3.1 of the paper: the total
    number of bits sent by all parties {e when following the protocol
    honestly}; the experiment harness therefore measures cost on
    honest runs, and separately exercises adversarial runs for the
    correctness/abort properties.

    Performance contract: mailboxes are bucketed by sender, so {!send} is
    O(1) amortized, {!step} delivers without sorting (it walks sender ids
    in ascending order, which realizes the documented delivery order
    directly), {!recv} is linear in the messages returned, and
    {!recv_from} is linear in the messages from that one sender rather
    than in the whole inbox.  {!locality} is O(1); {!peers} rebuilds the
    set on demand (it is a reporting call, not a hot one).

    Memory is O(touched parties + peers + undrained messages) plus one
    pointer per party.  A party's state is created by the first
    {!send} to or from it; until then it shares one empty record.  Each
    party keeps one peer table mapping a peer to the queue of undrained
    messages from it, which serves both as its locality set and as its
    per-sender inbox index.  The table is an open-addressing hash sized
    to the party's degree (at least 64 slots), and becomes a direct n-slot array once its
    degree makes the two the same size.  A party that talks to
    everyone thus gets O(1) array indexing, and the sparse-graph
    protocols (Algorithms 5–7) run at n = 10⁵–10⁶ in memory that grows
    with their traffic, not with n².  The layout is decided by each
    table's observed size; there is no option to select it.

    Domain-safety contract: a [t] is single-owner mutable state with no
    internal locking.  Two domains must never touch the same instance;
    one domain may freely own many.  The bench harness's parallel
    scheduler ([Util.Pool]) relies on this: every job creates its own
    network (plus its own [Util.Prng.t] — same contract), which is
    sufficient because no protocol module in the library keeps mutable
    state that outlives a single [run] call.

    {!run_round} extends the contract {e inside} one instance for the
    duration of its compute phase: ownership of [t] is temporarily
    partitioned by party.  A worker domain that has been handed a shard
    of parties exclusively owns those parties' inboxes (the only state
    {!Party.recv}/{!Party.recv_from}/{!Party.peek} mutate) and their
    private outboxes, and it never creates party state or queues: those
    are created only by {!send} and {!step}, which run on the calling
    domain.  The network-global state — pending queues, bit and
    locality counters, the round clock — is owned by {e nobody} during
    the compute phase and only mutated by the sequential commit phase on
    the calling domain.  Party step functions must therefore reach the
    network exclusively through their {!Party.p} handle (never through
    the raw [t]), and must not share mutable state with other parties'
    steps; per-party slots of a caller-owned array (index [i] written
    only by party [i]'s step) are safe, as is any immutable or freshly
    allocated state.  {!Util.Pool.map_jobs} supplies the happens-before
    edges between the phases. *)

type t

(** Raised by {!step} when the round clock reaches a [max_rounds] bound
    (set at [create] or tightened by {!with_round_limit}) — the livelock
    watchdog for adversarial runs.  The clock it counts is the same
    virtual clock the transports tick on (one tick per {!step}), so
    under {!Event_net} this is a virtual-time bound on the whole
    delivery schedule, not just on lockstep rounds. *)
exception Livelock of { rounds : int; max_rounds : int }

(** [create ?transport ?max_rounds n] — a fresh network of parties
    [0 .. n-1].  Up front it allocates one pointer per party (and the
    default transport one empty queue per party); everything else is
    allocated as traffic arrives.

    [transport] is the delivery schedule ({!Transport.t}); it defaults
    to the lockstep transport [Transport.sync_dense ~n], which preserves
    the historical semantics bit-for-bit.  Pass [Event_net.transport]
    for asynchronous delivery with latency, reordering, and adversarial
    scheduling.

    With [~max_rounds:m] (must be positive), the [m+1]-th {!step} raises
    {!Livelock} instead of advancing, so a protocol driven into an
    unbounded loop by a fault schedule fails with a diagnosable exception
    rather than hanging.  Default: no bound, exactly the old behavior. *)
val create : ?transport:Transport.t -> ?max_rounds:int -> int -> t

val n : t -> int

(** {1 Sending and receiving} *)

(** [send t ~src ~dst payload] enqueues a message for delivery at the next
    {!step}.  Self-sends are free and forbidden ([Invalid_argument]). *)
val send : t -> src:int -> dst:int -> bytes -> unit

(** [step t] advances the round clock by one tick, delivering whatever
    the transport releases for that tick.  Under the default synchronous
    transports that is {e all} pending messages, readable by their
    recipients in arrival order (deterministic: sorted by sender id,
    then send order); under an event transport, only the messages whose
    schedule says they are due. *)
val step : t -> unit

(** [in_flight t] — messages sent but not yet delivered.  Always zero
    after {!step} on the synchronous transports; may stay positive for
    up to [Event_net.span] ticks on an event transport. *)
val in_flight : t -> int

(** [step_until_quiet ?deadline t] — {!step} once, then keep stepping
    while messages remain in flight, up to [deadline] steps total
    (default 1; must be >= 1).  This is the protocol-level round-timeout
    knob: on a synchronous transport the network quiesces after one step
    so any [deadline] behaves identically to plain {!step} (accounting
    and round counts unchanged), while on an event transport a phase
    that allows [deadline >= Event_net.span cfg] steps observes every
    message sent before the phase began, and a smaller deadline makes
    late messages surface as the protocol's own abort path (missing
    value / failed check) rather than a livelock. *)
val step_until_quiet : ?deadline:int -> t -> unit

(** [steps_remaining t] — how many more {!step}s the watchdog allows
    ([max_int] when unbounded).  Round-driving loops use this to stop
    {e before} tripping {!Livelock} when they have a graceful-degrade
    path. *)
val steps_remaining : t -> int

(** [with_round_limit t ~extra f] runs [f ()] with the watchdog
    tightened to [rounds t + extra] (never loosened: an existing tighter
    bound stays authoritative), restoring the previous bound on exit.
    This is how a protocol with a local round cap (gossip) expresses it
    through the one shared {!Livelock} mechanism instead of a private
    counter.  [extra] must be positive. *)
val with_round_limit : t -> extra:int -> (unit -> 'a) -> 'a

(** [recv t ~dst] drains and returns party [dst]'s inbox as
    [(sender, payload)] pairs. *)
val recv : t -> dst:int -> (int * bytes) list

(** [recv_from t ~dst ~src] — only the messages from [src] (drains just
    those). *)
val recv_from : t -> dst:int -> src:int -> bytes list

(** [recv_one t ~dst ~src] is [Some payload] iff exactly one message from
    [src] is pending (draining the queue in every case, like
    {!recv_from}) — the allocation-free form of matching {!recv_from}
    against a one-element list, for lockstep hot loops. *)
val recv_one : t -> dst:int -> src:int -> bytes option

(** [peek t ~dst] — inbox contents without draining. *)
val peek : t -> dst:int -> (int * bytes) list

(** {1 Intra-round parallel party stepping}

    One protocol round ("every party drains its mailbox, thinks, and
    posts next round's messages") as a two-phase bulk operation: a
    compute phase that may run party steps concurrently on a
    {!Util.Pool}, and a sequential commit phase that realizes the sends.
    The committed state is bit-identical at any domain count — see the
    determinism argument in EXPERIMENTS.md and the domain-safety
    contract above. *)

module Party : sig
  (** A party's capability during a {!run_round} compute phase: its own
      mailbox plus a private outbox.  Handles are only valid inside the
      step function they are passed to. *)
  type p

  val id : p -> int

  (** Same semantics as the network-level {!recv}/{!recv_from}/{!peek},
      restricted to this party's own inbox. *)

  val recv : p -> (int * bytes) list

  val recv_from : p -> src:int -> bytes list
  val recv_one : p -> src:int -> bytes option
  val peek : p -> (int * bytes) list

  (** [send p ~dst payload] buffers a send from this party.  Argument
      validation (range, self-send) happens immediately, with the same
      exceptions as the network-level {!val-send}; the message itself is
      enqueued, metered, and made deliverable only at commit. *)
  val send : p -> dst:int -> bytes -> unit
end

(** [run_round ?pool t ~parties f] steps every party in [parties]
    through [f] and returns the results in list order.

    Compute phase: with [?pool] absent, steps run sequentially in list
    order — today's plain per-party loop.  With [~pool], [parties] is cut
    into one shard per pool domain (the calling domain included), and
    shards run concurrently; each party may drain its own inbox and
    buffer sends through its {!Party.p} handle, touching no shared state.

    {b Size-aware sharding.}  Shards are not contiguous equal-count
    blocks: each party is weighted by its undrained inbox size and the
    parties are greedy-bin-packed ([Util.Pool.pack_bins], heaviest first
    into the lightest shard), so a hot party — one addressed by everyone
    this round — ends up isolated in its own shard instead of
    serializing a whole contiguous block behind it.  The packing is a
    deterministic function of the inbox sizes (themselves identical at
    any jobs count) and is unobservable in the output: results land at
    each party's own index in the returned list and the commit below
    orders by party id, never by shard.

    Commit phase (always sequential, on the calling domain): outboxes
    are replayed through {!val-send} in ascending {e sender id}, each in
    send order.  Since delivery is bucketed per sender and all counter
    updates commute, every observable — delivery order, per-party bit
    counters, locality sets, message and round counts — is identical to
    the sequential run at any domain count.

    [run_round] does not advance the round clock; call {!step} to
    deliver the committed messages, as after plain {!val-send}s.

    Raises [Invalid_argument] on an out-of-range or duplicated party.
    If a step raises, the exception propagates deterministically (the
    first offending party in list order when sequential; the first
    offending shard in shard order under a pool) and {e no} sends are
    committed. *)
val run_round : ?pool:Util.Pool.t -> t -> parties:int list -> (Party.p -> 'a) -> 'a list

(** {1 Accounting} *)

val rounds : t -> int

(** [bits_sent t i] — total payload bits sent by party [i] so far. *)
val bits_sent : t -> int -> int

val bits_received : t -> int -> int

(** [total_bits t] — sum over all parties of bits sent. *)
val total_bits : t -> int

(** [total_bits_of t parties] — bits sent by the given parties only (used to
    report honest-only communication). *)
val total_bits_of : t -> int list -> int

(** [peers t i] — the set of parties [i] has sent to or received from. *)
val peers : t -> int -> Util.Iset.t

(** [locality t i] — [|peers t i|]. *)
val locality : t -> int -> int

(** [max_locality t] — the protocol's locality in the paper's sense. *)
val max_locality : t -> int

val messages_sent : t -> int

(** [active_parties t] — the ids of parties with at least one undrained
    delivered message, in increasing order: the frontier a round-driving
    loop should iterate instead of [0 .. n-1].  Cost is one pointer read
    per party.  A party whose step is a no-op on an empty inbox
    is unobservable either way, so restricting a round to this frontier
    is exact, not an approximation. *)
val active_parties : t -> int list

(** [snapshot t] captures current counters; [diff_snapshot] subtracts two
    snapshots so a protocol phase can be metered in isolation. *)
type snapshot = { snap_bits : int; snap_msgs : int; snap_rounds : int }

val snapshot : t -> snapshot
val diff_snapshot : before:snapshot -> after:snapshot -> snapshot
