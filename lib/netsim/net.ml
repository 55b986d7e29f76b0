(* High-throughput core.

   Traffic is bucketed by sender at both ends:

   - Sent-but-undelivered messages live in a {!Transport.t} (per-sender
     FIFOs for the lockstep transport).  [send] is O(1) and the lockstep
     [advance] delivers by walking sender ids in increasing order, which
     IS the documented delivery order (sender id, then send order), so no
     sort is ever needed.  [Net] keeps mailboxes, accounting, and the
     round clock; the transport keeps only the in-flight buffer and the
     delivery schedule, so an event-queue transport (Event_net) can delay
     and reorder under identical protocol code.
   - Each recipient keeps an arrival-order [log] (growable array of
     cells) plus per-sender FIFOs of the same cells.  [recv] walks the
     log once; [recv_from] pops only that sender's queue, so it is
     O(messages from that sender) and repeated polling of an empty pair
     costs O(1).  A cell drained by one view is marked dead so the other
     view skips it.

   Memory is one pointer per party plus O(touched parties + peers +
   undrained messages): [states] is an n-slot array whose untouched slots
   all point at one shared [absent] record, and a party's record is
   created by the first [send] to or from it.  Each record holds ONE peer
   table, mapping peer id to the FIFO of undrained cells from that peer,
   which is both the locality set and the per-sender delivery index:
   peers are symmetric and every delivery follows its metered [send], so
   the sender of a delivered cell is already in the receiver's table.  A
   table starts as open addressing over [keys]/[qs] (load <= 3/4, at
   least [min_slots] slots); once growing it would make the two arrays as
   large as a direct n-slot array, it converts to a peer bitmap plus an
   n-slot queue array indexed by peer id.  All-to-all parties thus end up
   with the direct O(1) layout, and sparse-graph parties (Algs 5-7 at
   n = 10^5-10^6) with tables sized to their degree.

   Delivery order, accounting, and the external API are identical to the
   original list-based implementation (test_netsim's model-equivalence
   property) and to the two representations this layout replaced
   (test_net_sparse's golden pins). *)

(* [c_q] is the per-sender queue holding the cell while it is undrained,
   and [no_queue] once drained, so a full [recv] clears each sender's
   queue without looking it up. *)
type cell = { c_src : int; c_payload : bytes; mutable c_q : cell Queue.t }

(* The queue of a peer nothing has been delivered from yet, and of every
   drained cell.  Never pushed to or cleared. *)
let no_queue : cell Queue.t = Queue.create ()

let dummy_cell = { c_src = -1; c_payload = Bytes.empty; c_q = no_queue }

type pstate = {
  mutable log : cell array; (* arrival order; indices < log_len are valid *)
  mutable log_len : int;
  mutable live : int; (* undrained cells in the log *)
  mutable sent_bits : int;
  mutable recv_bits : int;
  (* The peer table: [npeers] entries, hashed while [bitmap] is empty
     ([keys]: peer id or -1 per slot), direct once it is not (bit j set
     iff j is a peer; slot j is peer j's).  [qs] is parallel to the slots
     and stays [||] until the first delivery. *)
  mutable npeers : int;
  mutable keys : int array;
  mutable bitmap : bytes;
  mutable qs : cell Queue.t array;
}

let fresh_pstate () =
  {
    log = [||];
    log_len = 0;
    live = 0;
    sent_bits = 0;
    recv_bits = 0;
    npeers = 0;
    keys = [||];
    bitmap = Bytes.empty;
    qs = [||];
  }

(* Every untouched party's state.  Only [send] and delivery create
   records, and both replace this one first, so it is never mutated and
   reads of it are the zero state. *)
let absent = fresh_pstate ()

exception Livelock of { rounds : int; max_rounds : int }

let () =
  Printexc.register_printer (function
    | Livelock { rounds; max_rounds } ->
      Some
        (Printf.sprintf "Netsim.Net.Livelock: round clock hit %d (max_rounds = %d)" rounds
           max_rounds)
    | _ -> None)

type t = {
  num_parties : int;
  mutable max_rounds : int option; (* mutable for [with_round_limit] *)
  transport : Transport.t; (* owns sent-but-undelivered messages *)
  deliver : src:int -> dst:int -> bytes -> unit; (* into [states]' mailboxes *)
  mutable round : int;
  mutable total_messages : int;
  mutable total_sent_bits : int; (* running sum: [total_bits] is O(1) *)
  states : pstate array;
}

let n t = t.num_parties

let check_party t i name =
  if i < 0 || i >= t.num_parties then
    invalid_arg (Printf.sprintf "Net.%s: party %d out of range" name i)

(* ---- Peer table ------------------------------------------------------ *)

(* The smallest hashed table: growing through smaller ones cost the
   small-n bench rows (n = 64..256) more time than their memory saves. *)
let min_slots = 64

(* Multiply-xorshift, so that strided peer ids (every 64th party, say)
   still spread over the low bits. *)
let[@inline] hash j mask =
  let h = j * 0x3E3779B97F4A7C15 in
  (h lxor (h lsr 29)) land mask

let[@inline] bit_set b j = Char.code (Bytes.unsafe_get b (j lsr 3)) land (1 lsl (j land 7)) <> 0

let[@inline] set_bit b j =
  let k = j lsr 3 in
  Bytes.unsafe_set b k (Char.unsafe_chr (Char.code (Bytes.unsafe_get b k) lor (1 lsl (j land 7))))

(* Where [j] is or would go in the hashed [keys]: the slot holding [j],
   else the first free slot of its probe run.  Load <= 3/4 guarantees
   one exists. *)
let probe keys j =
  let mask = Array.length keys - 1 in
  let i = ref (hash j mask) in
  while
    let k = Array.unsafe_get keys !i in
    k <> j && k >= 0
  do
    i := (!i + 1) land mask
  done;
  !i

(* The slot of peer [j] in [p]'s table, or -1 if [j] is not a peer. *)
let slot p j =
  if Bytes.length p.bitmap > 0 then if bit_set p.bitmap j then j else -1
  else if Array.length p.keys = 0 then -1
  else begin
    let i = probe p.keys j in
    if Array.unsafe_get p.keys i = j then i else -1
  end

(* Rehash into [cap] slots, or into the direct layout once two [cap]-slot
   arrays would be as large as one n-slot array.  Queued cells move with
   their peer. *)
let resize p ~n cap =
  let old_keys = p.keys and old_qs = p.qs in
  let has_qs = Array.length old_qs > 0 in
  if 2 * cap >= n then begin
    let bitmap = Bytes.make ((n + 7) / 8) '\000' in
    let qs = if has_qs then Array.make n no_queue else [||] in
    for s = 0 to Array.length old_keys - 1 do
      let j = old_keys.(s) in
      if j >= 0 then begin
        set_bit bitmap j;
        if has_qs then qs.(j) <- old_qs.(s)
      end
    done;
    p.bitmap <- bitmap;
    p.keys <- [||];
    p.qs <- qs
  end
  else begin
    let keys = Array.make cap (-1) in
    let qs = if has_qs then Array.make cap no_queue else [||] in
    for s = 0 to Array.length old_keys - 1 do
      let j = old_keys.(s) in
      if j >= 0 then begin
        let s' = probe keys j in
        keys.(s') <- j;
        if has_qs then qs.(s') <- old_qs.(s)
      end
    done;
    p.keys <- keys;
    p.qs <- qs
  end

(* [add_peer p ~n j] adds [j] to [p]'s table; true iff it was not there. *)
let add_peer p ~n j =
  if Bytes.length p.bitmap > 0 then
    bit_set p.bitmap j
    || begin
         set_bit p.bitmap j;
         p.npeers <- p.npeers + 1;
         true
       end
  else begin
    let cap = Array.length p.keys in
    let i = if cap = 0 then 0 else probe p.keys j in
    if cap > 0 && p.keys.(i) = j then false
    else begin
      if 4 * (p.npeers + 1) <= 3 * cap then p.keys.(i) <- j
      else begin
        resize p ~n (max min_slots (2 * cap));
        if Bytes.length p.bitmap > 0 then set_bit p.bitmap j else p.keys.(probe p.keys j) <- j
      end;
      p.npeers <- p.npeers + 1;
      true
    end
  end

(* The FIFO of undrained cells from the peer in slot [s] ([no_queue] when
   there is none). *)
let[@inline] queue p s = if s < 0 || Array.length p.qs = 0 then no_queue else p.qs.(s)

(* ---- Sending --------------------------------------------------------- *)

let state t i =
  let p = t.states.(i) in
  if p != absent then p
  else begin
    let p = fresh_pstate () in
    t.states.(i) <- p;
    p
  end

let send t ~src ~dst payload =
  check_party t src "send";
  check_party t dst "send";
  if src = dst then invalid_arg "Net.send: self-send";
  let bits = 8 * Bytes.length payload in
  let ps = state t src and pd = state t dst in
  ps.sent_bits <- ps.sent_bits + bits;
  pd.recv_bits <- pd.recv_bits + bits;
  (* Tables are symmetric: [dst] already in [src]'s means [src] in [dst]'s. *)
  if add_peer ps ~n:t.num_parties dst then ignore (add_peer pd ~n:t.num_parties src);
  (* Metering happens at send time regardless of when (or in what order)
     the transport chooses to deliver — cost is a property of what the
     protocol said, not of the schedule. *)
  t.transport.Transport.submit ~src ~dst payload;
  t.total_sent_bits <- t.total_sent_bits + bits;
  t.total_messages <- t.total_messages + 1

(* ---- Delivery -------------------------------------------------------- *)

let deliver states ~n ~src ~dst payload =
  let p = states.(dst) in
  let s = slot p src in
  if s < 0 then invalid_arg "Net: transport delivered a message that was never sent";
  if Array.length p.qs = 0 then
    p.qs <- Array.make (if Bytes.length p.bitmap > 0 then n else Array.length p.keys) no_queue;
  let q = p.qs.(s) in
  let q =
    if q != no_queue then q
    else begin
      let q = Queue.create () in
      p.qs.(s) <- q;
      q
    end
  in
  let cell = { c_src = src; c_payload = payload; c_q = q } in
  (if p.log_len = Array.length p.log then begin
     let grown = Array.make (max 8 (2 * p.log_len)) dummy_cell in
     Array.blit p.log 0 grown 0 p.log_len;
     p.log <- grown
   end);
  p.log.(p.log_len) <- cell;
  p.log_len <- p.log_len + 1;
  p.live <- p.live + 1;
  Queue.push cell q

let create ?transport ?max_rounds num_parties =
  if num_parties <= 0 then invalid_arg "Net.create: need at least one party";
  (match max_rounds with
  | Some m when m <= 0 -> invalid_arg "Net.create: max_rounds must be positive"
  | _ -> ());
  let states = Array.make num_parties absent in
  let transport =
    match transport with Some tr -> tr | None -> Transport.sync_dense ~n:num_parties
  in
  {
    num_parties;
    max_rounds;
    transport;
    deliver = deliver states ~n:num_parties;
    round = 0;
    total_messages = 0;
    total_sent_bits = 0;
    states;
  }

let step t =
  (* Livelock watchdog: a fuzzed adversary that keeps a protocol loop
     alive forever should fail diagnosably, not hang CI.  The clock a
     [max_rounds] bound counts is the same virtual clock the transports
     tick on (one tick per [step]), so under the event transport this is
     a virtual-time bound on the whole schedule, not just on lockstep
     rounds.  Checked before delivery so the raise leaves the clock and
     mailboxes untouched. *)
  (match t.max_rounds with
  | Some m when t.round >= m -> raise (Livelock { rounds = t.round; max_rounds = m })
  | _ -> ());
  (* One transport tick.  The lockstep transport delivers everything in
     flight in the canonical order (ascending sender id, then send
     order); the event transport releases whatever its schedule says is
     due.  Skipped entirely when nothing is in flight. *)
  if t.transport.Transport.in_flight () > 0 then t.transport.Transport.advance ~deliver:t.deliver;
  t.round <- t.round + 1

let in_flight t = t.transport.Transport.in_flight ()

let step_until_quiet ?(deadline = 1) t =
  if deadline < 1 then invalid_arg "Net.step_until_quiet: deadline must be >= 1";
  step t;
  let steps = ref 1 in
  while !steps < deadline && in_flight t > 0 do
    step t;
    incr steps
  done

let steps_remaining t =
  match t.max_rounds with Some m -> max 0 (m - t.round) | None -> max_int

let with_round_limit t ~extra f =
  if extra <= 0 then invalid_arg "Net.with_round_limit: extra must be positive";
  let saved = t.max_rounds in
  let cap = t.round + extra in
  (* Only ever tighten: a create-time bound stays authoritative. *)
  t.max_rounds <- Some (match saved with Some m -> min m cap | None -> cap);
  Fun.protect ~finally:(fun () -> t.max_rounds <- saved) f

(* ---- Receiving ------------------------------------------------------- *)

(* Drop drained cells so their payloads can be collected.  Writes nothing
   to an empty log, so [absent] stays untouched. *)
let clear_log p =
  if p.log_len > 0 then begin
    Array.fill p.log 0 p.log_len dummy_cell;
    p.log_len <- 0;
    p.live <- 0
  end

let recv t ~dst =
  check_party t dst "recv";
  let p = t.states.(dst) in
  let acc = ref [] in
  if p.live > 0 then
    for k = p.log_len - 1 downto 0 do
      let c = p.log.(k) in
      if c.c_q != no_queue then begin
        Queue.clear c.c_q;
        c.c_q <- no_queue;
        acc := (c.c_src, c.c_payload) :: !acc
      end
    done;
  clear_log p;
  !acc

let recv_from t ~dst ~src =
  check_party t dst "recv_from";
  check_party t src "recv_from";
  let p = t.states.(dst) in
  let q = queue p (slot p src) in
  let k = Queue.length q in
  if k = 0 then []
  else begin
    let acc = ref [] in
    while not (Queue.is_empty q) do
      let c = Queue.pop q in
      c.c_q <- no_queue;
      acc := c.c_payload :: !acc
    done;
    p.live <- p.live - k;
    if p.live = 0 then clear_log p;
    List.rev !acc
  end

(* [Some payload] iff exactly one message is queued — the lockstep common
   case — draining the queue either way, so network state afterwards is
   identical to [recv_from] matched against [[v]], without the per-call
   list build. *)
let recv_one t ~dst ~src =
  check_party t dst "recv_one";
  check_party t src "recv_one";
  let p = t.states.(dst) in
  let q = queue p (slot p src) in
  let k = Queue.length q in
  if k = 0 then None
  else begin
    let result =
      if k = 1 then begin
        let c = Queue.pop q in
        c.c_q <- no_queue;
        Some c.c_payload
      end
      else begin
        while not (Queue.is_empty q) do
          (Queue.pop q).c_q <- no_queue
        done;
        None
      end
    in
    p.live <- p.live - k;
    if p.live = 0 then clear_log p;
    result
  end

let peek t ~dst =
  check_party t dst "peek";
  let p = t.states.(dst) in
  let acc = ref [] in
  for k = p.log_len - 1 downto 0 do
    let c = p.log.(k) in
    if c.c_q != no_queue then acc := (c.c_src, c.c_payload) :: !acc
  done;
  !acc

(* ---- Accounting ------------------------------------------------------ *)

let rounds t = t.round

let bits_sent t i =
  check_party t i "bits_sent";
  t.states.(i).sent_bits

let bits_received t i =
  check_party t i "bits_received";
  t.states.(i).recv_bits

let total_bits t = t.total_sent_bits
let total_bits_of t parties = List.fold_left (fun acc i -> acc + bits_sent t i) 0 parties

(* Rebuilt on demand: [peers] is a reporting call (end of run), while
   [send] is the hot loop. *)
let peers t i =
  check_party t i "peers";
  let p = t.states.(i) in
  Util.Iset.of_list
    (if Bytes.length p.bitmap > 0 then
       List.filter (bit_set p.bitmap) (List.init t.num_parties Fun.id)
     else List.filter (fun j -> j >= 0) (Array.to_list p.keys))

let locality t i =
  check_party t i "locality";
  t.states.(i).npeers

let max_locality t = Array.fold_left (fun acc p -> max acc p.npeers) 0 t.states
let messages_sent t = t.total_messages

let active_parties t =
  let acc = ref [] in
  for i = t.num_parties - 1 downto 0 do
    if t.states.(i).live > 0 then acc := i :: !acc
  done;
  !acc

(* ---- Intra-round parallel party stepping ---------------------------- *)

(* [run_round] splits one protocol round into two phases:

   - a {e compute} phase in which every listed party runs its step
     function.  A step may drain its own inbox ([Party.recv],
     [Party.recv_from], [Party.peek] reach only the party's own mailbox —
     state no other party touches) and buffers its sends into a private
     outbox, so concurrent steps share {e no} mutable state and the phase
     can be sharded across pool domains;

   - a sequential {e commit} phase on the calling domain that replays the
     outboxes through [send] in ascending sender id, each outbox in send
     order.

   Because [pending] is already bucketed per sender and every counter
   update is commutative (sums, set unions), the committed network state
   is a pure function of {i which} messages each party produced — not of
   shard count or scheduling — so delivery order, bit/locality/message
   accounting, and all later [recv]s are bit-identical at any domain
   count.  See test_net_parallel's differential property.

   Worker domains never race on [states]: [Party.recv]/[recv_from]/
   [recv_one]/[peek] only read the slot array and mutate the record of
   the party their shard owns, and they write nothing to a party with an
   empty inbox, so the shared [absent] record is never touched.  Records
   and queues are created only in [send] (commit phase, sequential) and
   delivery ([step], sequential), never from a compute phase. *)

module Party = struct
  type p = { net : t; me : int; outbox : (int * bytes) Queue.t }

  let id p = p.me
  let recv p = recv p.net ~dst:p.me
  let recv_from p ~src = recv_from p.net ~dst:p.me ~src
  let recv_one p ~src = recv_one p.net ~dst:p.me ~src
  let peek p = peek p.net ~dst:p.me

  let send p ~dst payload =
    (* Validate eagerly (same checks as [send]) so a bad destination
       faults inside the offending party's step, but touch nothing
       shared: the real send happens at commit. *)
    check_party p.net dst "send";
    if p.me = dst then invalid_arg "Net.send: self-send";
    Queue.push (dst, payload) p.outbox
end

let run_round ?pool t ~parties f =
  let ps = Array.of_list parties in
  let len = Array.length ps in
  (* Shard ownership must be exclusive: a duplicated party would be
     stepped by two domains at once.  The membership structure is sized
     to the frontier, not to n — an O(n) scratch array per call would
     dominate at n = 10⁶ with a 100-party frontier. *)
  let check_dup =
    if t.num_parties <= 1 lsl 16 then begin
      let seen = Array.make t.num_parties false in
      fun i ->
        if seen.(i) then invalid_arg "Net.run_round: duplicate party";
        seen.(i) <- true
    end
    else begin
      let seen = Hashtbl.create (2 * max 1 len) in
      fun i ->
        if Hashtbl.mem seen i then invalid_arg "Net.run_round: duplicate party";
        Hashtbl.add seen i ()
    end
  in
  Array.iter
    (fun i ->
      check_party t i "run_round";
      check_dup i)
    ps;
  let handles =
    Array.map (fun me -> { Party.net = t; me; outbox = Queue.create () }) ps
  in
  (* Compute phase. *)
  let results =
    match pool with
    | None ->
      (* Explicit ascending loop: party steps run in list order, exactly
         the pre-run_round sequential code path. *)
      let out = Array.make len None in
      for k = 0 to len - 1 do
        out.(k) <- Some (f handles.(k))
      done;
      Array.map Option.get out
    | Some pool ->
      let nshards = max 1 (min len (Util.Pool.num_domains pool + 1)) in
      (* Size-aware sharding: weight each party by its undrained inbox
         (+1 so empty-inbox parties still count), then greedy-bin-pack so
         a single hot party no longer drags a whole contiguous block onto
         one worker.  Shard composition is deterministic (pure function of
         the inbox sizes, which are jobs-independent) and invisible to the
         output: results land at each party's own index and the commit
         below orders by party id, not by shard. *)
      let weights = Array.map (fun me -> 1 + t.states.(me).live) ps in
      let shards = Util.Pool.pack_bins ~weights ~bins:nshards in
      let out = Array.make len None in
      let (_ : unit array) =
        Util.Pool.map_jobs pool shards (fun shard ->
            Array.iter (fun j -> out.(j) <- Some (f handles.(j))) shard)
      in
      Array.map Option.get out
  in
  (* Commit phase: ascending sender id, each outbox in send order. *)
  let order = Array.init len (fun k -> k) in
  Array.sort (fun a b -> compare ps.(a) ps.(b)) order;
  Array.iter
    (fun k ->
      let h = handles.(k) in
      Queue.iter (fun (dst, payload) -> send t ~src:h.Party.me ~dst payload) h.Party.outbox)
    order;
  Array.to_list results

type snapshot = { snap_bits : int; snap_msgs : int; snap_rounds : int }

let snapshot t =
  { snap_bits = total_bits t; snap_msgs = t.total_messages; snap_rounds = t.round }

let diff_snapshot ~before ~after =
  {
    snap_bits = after.snap_bits - before.snap_bits;
    snap_msgs = after.snap_msgs - before.snap_msgs;
    snap_rounds = after.snap_rounds - before.snap_rounds;
  }
