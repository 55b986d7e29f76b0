type adv = {
  equivocate : (me:int -> origin:int -> dst:int -> bytes -> bytes option) option;
  forge : (me:int -> (int * bytes) list) option;
  drop : (me:int -> origin:int -> dst:int -> bool) option;
  spread_warning : bool;
}

let honest_adv = { equivocate = None; forge = None; drop = None; spread_warning = true }

(* Wire format: everything a party says to one neighbor in one round rides
   in a single batched message instead of many tiny ones.  A batch is a
   varint item count, a {!Bitpack}ed item-kind bitmap (bit k set = item k
   is a warning, clear = rumor), then the rumor bodies (varint origin,
   length-prefixed value) in item order.  The per-item tag byte of the old
   one-message-per-rumor format becomes one bit, and per-round message
   counts drop from O(rumors x degree) to O(degree). *)
type item = Rumor of int * bytes | Warning

(* Received items carry zero-copy views into the delivered payload: a
   rumor's body is only copied out ([view_to_bytes]) the first time a
   party hears it.  Every later duplicate — and with degree d each rumor
   arrives ~d times, so duplicates carry about (d-1)/d of all gossip
   bytes — is compared eight bytes at a time ([view_equal_bytes]) and
   dropped without materializing.  Payloads are immutable by convention,
   so the views stay valid for the whole drain (see the Codec ownership
   contract). *)
type rx_item = Rx_rumor of int * Util.Codec.view | Rx_warning

type parsed = Batch of rx_item list | Garbage

(* Writes [v] at [pos] in {!Util.Codec.write_varint}'s encoding and
   returns the position after it. *)
let rec put_varint buf pos v =
  let rest = v lsr 7 in
  if rest = 0 then begin
    Bytes.unsafe_set buf pos (Char.unsafe_chr v);
    pos + 1
  end
  else begin
    Bytes.unsafe_set buf pos (Char.unsafe_chr (v land 0x7F lor 0x80));
    put_varint buf (pos + 1) rest
  end

(* Sized first, then written straight into the one [bytes] that goes on
   the wire: no growing buffer and no final copy.  The layout is the one
   described above, and [parse] reads it back. *)
let encode_batch items =
  let count = ref 0 and body = ref 0 in
  List.iter
    (fun it ->
      incr count;
      match it with
      | Warning -> ()
      | Rumor (origin, value) ->
        let len = Bytes.length value in
        body := !body + Util.Codec.varint_size origin + Util.Codec.varint_size len + len)
    items;
  let count = !count in
  let hdr = Util.Codec.varint_size count and kinds = (count + 7) / 8 in
  let size = hdr + kinds + !body in
  let buf = Bytes.create size in
  ignore (put_varint buf 0 count);
  Bytes.fill buf hdr kinds '\000';
  let pos = ref (hdr + kinds) in
  List.iteri
    (fun k it ->
      match it with
      | Warning ->
        let at = hdr + (k / 8) in
        Bytes.set buf at (Char.chr (Char.code (Bytes.get buf at) lor (1 lsl (k mod 8))))
      | Rumor (origin, value) ->
        let len = Bytes.length value in
        pos := put_varint buf (put_varint buf !pos origin) len;
        Bytes.blit value 0 buf !pos len;
        pos := !pos + len)
    items;
  assert (!pos = size);
  buf

let parse payload =
  match
    Util.Codec.decode
      (fun r ->
        let count = Util.Codec.read_varint r in
        if count < 0 || count > 8 * Bytes.length payload then
          raise (Util.Codec.Decode_error "bad batch count");
        let kinds = Bitpack.unpack (Util.Codec.read_raw r ((count + 7) / 8)) ~nbits:count in
        let items = ref [] in
        for k = 0 to count - 1 do
          let it =
            if kinds.(k) then Rx_warning
            else begin
              let origin = Util.Codec.read_varint r in
              let value = Util.Codec.read_bytes_view r in
              Rx_rumor (origin, value)
            end
          in
          items := it :: !items
        done;
        List.rev !items)
      payload
  with
  | items -> Batch items
  | exception Util.Codec.Decode_error _ -> Garbage

(* Cost phases (see Analysis.Costs) for an honest run whose rumor values
   are all [len] bytes.  Gossip traffic depends on the sampled graph, so
   the spec is written over structural observables recorded by [run]
   under [pre]: [batches] (messages), [rounds], [rumors] (rumor items
   summed over all batches), [hdr_bytes] (Σ varint(item count)),
   [bitmap_bytes] (Σ ⌈count/8⌉ kind bitmaps) and [origin_bytes]
   (Σ varint(origin)).  The observables are item counts and id widths —
   never payload lengths — so the byte reconstruction below still checks
   the wire format of [encode_batch]. *)
let cost_phases ~pre ~len =
  let open Analysis.Costs in
  let jn s = if pre = "" then s else pre ^ "." ^ s in
  let v s = Var (jn s) in
  [
    exact ~label:(jn "batches") ~edge:"graph-neighbors"
      ~bits:
        (Cost_expr.bits
           (Add
              [
                v "hdr_bytes";
                v "bitmap_bytes";
                v "origin_bytes";
                Mul [ v "rumors"; Add [ varint_e len; len ] ];
              ]))
      ~messages:(v "batches") ~rounds:(v "rounds");
  ]

let cost_spec ~len =
  {
    Analysis.Costs.name = "gossip.run";
    phases = cost_phases ~pre:"" ~len;
    (* Exact when every party hears at least one rumor (connected graph,
       ≥ 1 honest source): a party that hears forwards to {e all} its
       graph neighbors, so its peer set is exactly its neighbor set and
       the max locality is the graph's max degree — recorded by [run] as
       the structural observable [graph_degmax]. *)
    max_locality = Some (Var "graph_degmax");
  }

let run ?pool ?(deadline = 1) ?obs net _rng _params ~graph ~sources ~corruption ~adv =
  if deadline < 1 then invalid_arg "Gossip.run: deadline must be >= 1";
  let n = Netsim.Net.n net in
  if Array.length graph <> n then invalid_arg "Gossip.run: graph arity";
  let is_corrupt i = Netsim.Corruption.is_corrupted corruption i in
  let heard : (int, bytes) Hashtbl.t array = Array.init n (fun _ -> Hashtbl.create 8) in
  let forwarded = Array.init n (fun _ -> Hashtbl.create 8) in
  let warned = Array.make n false in
  let warning_sent = Array.make n false in
  let neighbors i = Util.Iset.to_sorted_list graph.(i) in
  (* A round's outgoing traffic is a list of (src, dst, payload) batches:
     everything [src] says to [dst] in the round rides in one encoded
     message.  Batches produced by one round are sent at the top of the
     next — a batch produced when the round cap strikes is dropped
     unsent, exactly as the pre-parallel queue-based implementation
     dropped its unflushed queue. *)
  let batch_up src items =
    (* Group (dst, item) records per dst, preserving first-enqueue dst
       order and per-dst item order. *)
    let per_dst : (int, item list ref) Hashtbl.t = Hashtbl.create 8 in
    let order = ref [] in
    List.iter
      (fun (dst, item) ->
        match Hashtbl.find_opt per_dst dst with
        | Some items -> items := item :: !items
        | None ->
          Hashtbl.add per_dst dst (ref [ item ]);
          order := dst :: !order)
      items;
    List.map
      (fun dst -> (src, dst, encode_batch (List.rev !(Hashtbl.find per_dst dst))))
      (List.rev !order)
  in
  (* [forward_rumor] and [send_warning] write only party [me]'s slots of
     the state arrays and enqueue through the caller-supplied [enqueue] —
     shard-safe when run inside a [Net.run_round] compute phase. *)
  let forward_rumor enqueue me origin value =
    if not (Hashtbl.mem forwarded.(me) origin) then begin
      Hashtbl.replace forwarded.(me) origin ();
      List.iter
        (fun dst ->
          if dst <> me then begin
            let dropped =
              is_corrupt me
              && match adv.drop with Some f -> f ~me ~origin ~dst | None -> false
            in
            if not dropped then begin
              let v =
                if is_corrupt me then
                  match adv.equivocate with
                  | Some f -> ( match f ~me ~origin ~dst value with Some v -> v | None -> value)
                  | None -> value
                else value
              in
              enqueue dst (Rumor (origin, v))
            end
          end)
        (neighbors me)
    end
  in
  let send_warning enqueue me =
    if not warning_sent.(me) then begin
      warning_sent.(me) <- true;
      if (not (is_corrupt me)) || adv.spread_warning then
        List.iter (fun dst -> if dst <> me then enqueue dst Warning) (neighbors me)
    end
  in
  (* Round 0 (calling domain): sources inject their own rumors; corrupted
     parties may also forge rumors for arbitrary origins.  All round-0
     enqueues share one queue so that a party that is both a source and a
     forger still emits a single batch per destination. *)
  let round0_queue = ref [] in
  (* (src, dst, item), newest first *)
  List.iter
    (fun (origin, value) ->
      Hashtbl.replace heard.(origin) origin value;
      forward_rumor
        (fun dst item -> round0_queue := (origin, dst, item) :: !round0_queue)
        origin origin value)
    sources;
  for i = 0 to n - 1 do
    if is_corrupt i then
      match adv.forge with
      | Some f ->
        List.iter
          (fun (origin, value) ->
            (* Forged rumors bypass the "heard" bookkeeping: the forger
               just transmits them. *)
            List.iter
              (fun dst ->
                if dst <> i then
                  round0_queue := (i, dst, Rumor (origin, value)) :: !round0_queue)
              (neighbors i))
          (f ~me:i)
      | None -> ()
  done;
  let round0 =
    let msgs = List.rev !round0_queue in
    let per_pair : (int * int, item list ref) Hashtbl.t = Hashtbl.create 64 in
    let order = ref [] in
    List.iter
      (fun (src, dst, item) ->
        match Hashtbl.find_opt per_pair (src, dst) with
        | Some items -> items := item :: !items
        | None ->
          Hashtbl.add per_pair (src, dst) (ref [ item ]);
          order := (src, dst) :: !order)
      msgs;
    ref
      (List.map
         (fun (src, dst) ->
           (src, dst, encode_batch (List.rev !(Hashtbl.find per_pair (src, dst)))))
         (List.rev !order))
  in
  (* Gossip rounds until quiescence, bounded by (2n + 2) · deadline as a
     safety net.  The bound used to be a private loop counter; it now
     rides the shared [Net] watchdog via [with_round_limit] (below), so
     it is enforced — and, if ever overrun by a bug, reported via
     [Net.Livelock]'s registered printer — in one place.  The loop stops
     {e before} tripping the watchdog ([steps_remaining] guard): hitting
     the cap degrades gracefully to whatever each party heard, exactly
     the old local-counter behavior.  The deadline factor covers event
     transports, where one flood hop can take up to [span] ticks instead
     of one.

     Each iteration sends the previous round's batches, steps, then runs
     the {e active frontier}'s drain-and-forward steps — sharded across
     domains when a pool is supplied; batch contents and ordering are
     independent of the domain count.  Iterating [Net.active_parties]
     instead of [0 .. n-1] is exact, not an approximation: a party with
     an empty inbox drains nothing, mutates nothing, and batches nothing,
     so skipping it is unobservable — while at n = 10⁶ with degree ~40
     it is the difference between O(frontier) and O(n) work per round. *)
  let cap = ((2 * n) + 2) * deadline in
  let round = ref 0 in
  let batches = ref !round0 in
  (* Observable recording happens here on the calling domain (never inside
     the sharded compute closures): each outgoing batch is re-parsed for
     its structural item counts.  [parse] only extracts structure — the
     predicted byte count is reconstructed arithmetically by the cost
     spec, so a framing change in [encode_batch] still shows up as a
     mismatch against the measured accounting.  The counts go into local
     refs and reach [obs] once, when the run ends: an [Obs.add] per item
     would cost a key concatenation and two hash lookups on the hot path. *)
  let batches_n = ref 0 and hdr_bytes = ref 0 and bitmap_bytes = ref 0 in
  let rumors = ref 0 and origin_bytes = ref 0 and value_bytes = ref 0 in
  let observe_batch =
    match obs with
    | None -> fun _ -> ()
    | Some _ ->
      fun payload ->
        incr batches_n;
        (match parse payload with
        | Garbage -> ()
        | Batch items ->
          let count = List.length items in
          hdr_bytes := !hdr_bytes + Util.Codec.varint_size count;
          bitmap_bytes := !bitmap_bytes + ((count + 7) / 8);
          List.iter
            (function
              | Rx_warning -> ()
              | Rx_rumor (origin, v) ->
                incr rumors;
                origin_bytes := !origin_bytes + Util.Codec.varint_size origin;
                let len = v.Util.Codec.len in
                value_bytes := !value_bytes + Util.Codec.varint_size len + len)
            items)
  in
  (match obs with
  | None -> ()
  | Some o ->
    (* Structural max degree of the routing graph (self-loops excluded —
       parties never message themselves).  Derived from the graph alone,
       never from wire traffic, so the spec's locality formula is a
       genuine structure-vs-accounting cross-check. *)
    let degmax = ref 0 in
    Array.iteri
      (fun i s ->
        let d = Util.Iset.cardinal s - (if Util.Iset.mem i s then 1 else 0) in
        if d > !degmax then degmax := d)
      graph;
    Analysis.Costs.Obs.set o "graph_degmax" !degmax);
  Netsim.Net.with_round_limit net ~extra:cap (fun () ->
  (* The loop also keeps spinning while messages are still in flight
     (event transports deliver a hop over several ticks): exiting with
     traffic en route would silently drop rumors.  On the synchronous
     transports [in_flight] is always 0 here, so the condition — and the
     iteration count — is exactly the historical one. *)
  while (!batches <> [] || Netsim.Net.in_flight net > 0)
        && Netsim.Net.steps_remaining net > 0 do
    incr round;
    List.iter
      (fun (src, dst, payload) ->
        observe_batch payload;
        Netsim.Net.send net ~src ~dst payload)
      !batches;
    Netsim.Net.step net;
    let produced =
      Netsim.Net.run_round ?pool net ~parties:(Netsim.Net.active_parties net) (fun p ->
          let me = Netsim.Net.Party.id p in
          let inbox = Netsim.Net.Party.recv p in
          let out = ref [] in
          let enqueue dst item = out := (dst, item) :: !out in
          let on_item = function
            | Rx_warning ->
              if not warned.(me) then begin
                warned.(me) <- true;
                send_warning enqueue me
              end
            | Rx_rumor (origin, v) ->
              if not warned.(me) then begin
                match Hashtbl.find_opt heard.(me) origin with
                | None ->
                  (* First hearing: copy out of the payload window, since
                     the stored rumor outlives this round's buffers. *)
                  let value = Util.Codec.view_to_bytes v in
                  Hashtbl.replace heard.(me) origin value;
                  forward_rumor enqueue me origin value
                | Some prev ->
                  if not (Util.Codec.view_equal_bytes v prev) then begin
                    (* Equivocation detected: warn and abort. *)
                    warned.(me) <- true;
                    send_warning enqueue me
                  end
              end
          in
          List.iter
            (fun (_, payload) ->
              match parse payload with
              | Batch items -> List.iter on_item items
              | Garbage ->
                if not warned.(me) then begin
                  warned.(me) <- true;
                  send_warning enqueue me
                end)
            inbox;
          batch_up me (List.rev !out))
    in
    batches := List.concat produced
  done);
  (match obs with
  | None -> ()
  | Some o ->
    (* Every counter is added, zeros included, so quiescent runs still
       have all spec variables defined. *)
    List.iter
      (fun (k, v) -> Analysis.Costs.Obs.add o k !v)
      [
        ("batches", batches_n);
        ("hdr_bytes", hdr_bytes);
        ("bitmap_bytes", bitmap_bytes);
        ("rumors", rumors);
        ("origin_bytes", origin_bytes);
        ("value_bytes", value_bytes);
      ];
    Analysis.Costs.Obs.set o "rounds" !round);
  Array.init n (fun i ->
      if warned.(i) then Outcome.Abort (Outcome.Equivocation "conflicting rumor or warning")
      else
        Outcome.Output
          (Hashtbl.fold (fun origin value acc -> (origin, value) :: acc) heard.(i) []
          |> List.sort compare))
