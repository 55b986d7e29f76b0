(* Tests for Algorithm 5 (SparseNetwork, Claim 20) and Algorithm 6
   (Gossip / responsible gossip, Claim 21). *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let params ?(alpha = 3) n h = Mpc.Params.make ~n ~h ~lambda:8 ~alpha ()

(* ---- SparseNetwork ---- *)

let test_sparse_honest_no_abort () =
  let n = 40 and h = 20 in
  let corruption = Netsim.Corruption.none ~n in
  for seed = 1 to 10 do
    let net = Netsim.Net.create n in
    let rng = Util.Prng.create seed in
    let outs = Mpc.Sparse_network.run net rng (params n h) ~corruption ~adv:Mpc.Sparse_network.honest_adv in
    Array.iteri
      (fun i o ->
        match o with
        | Mpc.Outcome.Output _ -> ()
        | Mpc.Outcome.Abort r ->
          Alcotest.failf "party %d aborted honestly: %s" i (Mpc.Outcome.reason_to_string r))
      outs
  done

let test_sparse_degree_bound () =
  (* Claim 20: max degree O(α n log n / h). *)
  let n = 60 and h = 30 in
  let corruption = Netsim.Corruption.none ~n in
  let p = params n h in
  for seed = 1 to 10 do
    let net = Netsim.Net.create n in
    let rng = Util.Prng.create seed in
    let outs = Mpc.Sparse_network.run net rng p ~corruption ~adv:Mpc.Sparse_network.honest_adv in
    let bound = Mpc.Params.sparse_degree p * 4 in
    checkb "degree bounded" true (Mpc.Sparse_network.max_degree outs <= bound)
  done

let test_sparse_honest_connectivity () =
  (* Claim 20: the honest subgraph is connected w.h.p. *)
  let n = 50 and h = 25 in
  let rng0 = Util.Prng.create 77 in
  let failures = ref 0 in
  for seed = 1 to 20 do
    let corruption = Netsim.Corruption.random rng0 ~n ~h in
    let net = Netsim.Net.create n in
    let rng = Util.Prng.create seed in
    let outs = Mpc.Sparse_network.run net rng (params n h) ~corruption ~adv:Mpc.Sparse_network.honest_adv in
    if not (Mpc.Sparse_network.honest_subgraph_connected outs corruption) then incr failures
  done;
  checki "always connected at alpha=3" 0 !failures

let test_sparse_flood_attack_detected () =
  (* All corrupted parties target one victim: its inbox exceeds 2d and it
     aborts (the DDoS detection of §2.3). *)
  let n = 40 and h = 8 in
  let victim = 5 in
  let rng0 = Util.Prng.create 88 in
  let corruption = Netsim.Corruption.targeting rng0 ~n ~h ~victim in
  let net = Netsim.Net.create n in
  let rng = Util.Prng.create 1 in
  (* Use alpha=1 so 32 floods clearly exceed 2d. *)
  let p = params ~alpha:1 n n in
  (* h=n in params makes d tiny: d = ln n ≈ 4, bound 8 < 32 corrupted. *)
  let outs = Mpc.Sparse_network.run net rng p ~corruption ~adv:(Mpc.Attacks.flood_victim ~victim) in
  checkb "victim aborts" true (Mpc.Outcome.is_abort outs.(victim))

let test_sparse_locality () =
  (* Each party talks to O(d) peers only. *)
  let n = 60 and h = 30 in
  let corruption = Netsim.Corruption.none ~n in
  let p = params n h in
  let net = Netsim.Net.create n in
  let rng = Util.Prng.create 4 in
  ignore (Mpc.Sparse_network.run net rng p ~corruption ~adv:Mpc.Sparse_network.honest_adv);
  checkb "locality O(d)" true (Netsim.Net.max_locality net <= 4 * Mpc.Params.sparse_degree p)

(* ---- Gossip ---- *)

let build_graph ?(seed = 9) ~n ~h () =
  let corruption = Netsim.Corruption.none ~n in
  let net = Netsim.Net.create n in
  let rng = Util.Prng.create seed in
  let outs = Mpc.Sparse_network.run net rng (params n h) ~corruption ~adv:Mpc.Sparse_network.honest_adv in
  Array.map
    (function Mpc.Outcome.Output s -> s | Mpc.Outcome.Abort _ -> Util.Iset.empty)
    outs

let test_gossip_honest_delivery () =
  let n = 30 and h = 15 in
  let graph = build_graph ~n ~h () in
  let corruption = Netsim.Corruption.none ~n in
  let net = Netsim.Net.create n in
  let rng = Util.Prng.create 2 in
  let sources = List.init n (fun i -> (i, Bytes.of_string (Printf.sprintf "rumor-%d" i))) in
  let outs = Mpc.Gossip.run net rng (params n h) ~graph ~sources ~corruption ~adv:Mpc.Gossip.honest_adv in
  Array.iteri
    (fun i o ->
      match o with
      | Mpc.Outcome.Output rumors ->
        checki (Printf.sprintf "party %d heard all" i) n (List.length rumors);
        List.iter
          (fun (origin, v) ->
            checkb "correct rumor" true
              (Bytes.equal v (Bytes.of_string (Printf.sprintf "rumor-%d" origin))))
          rumors
      | Mpc.Outcome.Abort r -> Alcotest.failf "party %d: %s" i (Mpc.Outcome.reason_to_string r))
    outs

let test_gossip_subset_sources () =
  let n = 20 and h = 10 in
  let graph = build_graph ~n ~h () in
  let corruption = Netsim.Corruption.none ~n in
  let net = Netsim.Net.create n in
  let rng = Util.Prng.create 3 in
  let sources = [ (3, Bytes.of_string "a"); (7, Bytes.of_string "b") ] in
  let outs = Mpc.Gossip.run net rng (params n h) ~graph ~sources ~corruption ~adv:Mpc.Gossip.honest_adv in
  Array.iter
    (fun o ->
      match o with
      | Mpc.Outcome.Output rumors -> checki "exactly two rumors" 2 (List.length rumors)
      | Mpc.Outcome.Abort _ -> Alcotest.fail "abort in honest gossip")
    outs

let test_gossip_forward_once_cost () =
  (* Claim 21: total bits O(k · d · n · ℓ) — forwarding once per origin. *)
  let n = 24 and h = 12 in
  let graph = build_graph ~n ~h () in
  let corruption = Netsim.Corruption.none ~n in
  let cost k =
    let net = Netsim.Net.create n in
    let rng = Util.Prng.create 4 in
    let sources = List.init k (fun i -> (i, Bytes.make 50 'r')) in
    ignore (Mpc.Gossip.run net rng (params n h) ~graph ~sources ~corruption ~adv:Mpc.Gossip.honest_adv);
    Netsim.Net.total_bits net
  in
  let c1 = cost 4 and c2 = cost 8 in
  (* Linear in the number of sources. *)
  let ratio = float_of_int c2 /. float_of_int c1 in
  checkb "linear in sources" true (ratio > 1.5 && ratio < 2.6)

let test_gossip_equivocation_aborts () =
  let n = 24 and h = 12 in
  let graph = build_graph ~n ~h () in
  let rng0 = Util.Prng.create 5 in
  let corruption = Netsim.Corruption.random rng0 ~n ~h in
  let net = Netsim.Net.create n in
  let rng = Util.Prng.create 6 in
  let sources = List.init n (fun i -> (i, Bytes.of_string (string_of_int i))) in
  let outs =
    Mpc.Gossip.run net rng (params n h) ~graph ~sources ~corruption ~adv:Mpc.Attacks.gossip_equivocate
  in
  (* Safety: honest parties that produced output agree on every origin. *)
  let honest_outputs =
    List.filter_map
      (fun i ->
        match outs.(i) with Mpc.Outcome.Output r -> Some r | Mpc.Outcome.Abort _ -> None)
      (Netsim.Corruption.honest_list corruption)
  in
  (match honest_outputs with
  | [] -> ()
  | first :: rest ->
    List.iter
      (fun other ->
        List.iter
          (fun (origin, v) ->
            match List.assoc_opt origin first with
            | Some v' -> checkb "consistent value" true (Bytes.equal v v')
            | None -> ())
          other)
      rest);
  checkb "ran" true (Array.length outs = n)

let test_gossip_forged_conflict_detected () =
  (* A corrupted party forges a rumor for an honest origin whose true rumor
     also circulates: honest parties seeing both must abort, and no honest
     party may end holding ONLY the forged value while another outputs the
     true one. *)
  let n = 24 and h = 20 in
  let graph = build_graph ~n ~h () in
  let rng0 = Util.Prng.create 7 in
  let corruption = Netsim.Corruption.random rng0 ~n ~h in
  let honest0 = List.hd (Netsim.Corruption.honest_list corruption) in
  let net = Netsim.Net.create n in
  let rng = Util.Prng.create 8 in
  let sources = List.init n (fun i -> (i, Bytes.of_string (Printf.sprintf "true-%d" i))) in
  let outs =
    Mpc.Gossip.run net rng (params n h) ~graph ~sources ~corruption
      ~adv:(Mpc.Attacks.gossip_forge ~origin:honest0 ~value:(Bytes.of_string "forged"))
  in
  let honest_values =
    List.filter_map
      (fun i ->
        match outs.(i) with
        | Mpc.Outcome.Output r -> List.assoc_opt honest0 r
        | Mpc.Outcome.Abort _ -> None)
      (Netsim.Corruption.honest_list corruption)
  in
  (* All surviving honest parties agree on origin honest0's value. *)
  (match honest_values with
  | [] -> ()
  | first :: rest -> List.iter (fun v -> checkb "no split" true (Bytes.equal v first)) rest);
  checkb "ran" true (Array.length outs = n)

let test_gossip_warning_suppression_still_safe () =
  (* Corrupted parties refuse to forward warnings; the honest subgraph
     still floods them. *)
  let n = 24 and h = 16 in
  let graph = build_graph ~n ~h () in
  let rng0 = Util.Prng.create 9 in
  let corruption = Netsim.Corruption.random rng0 ~n ~h in
  let net = Netsim.Net.create n in
  let rng = Util.Prng.create 10 in
  let sources = List.init n (fun i -> (i, Bytes.of_string (string_of_int i))) in
  let adv =
    {
      Mpc.Attacks.gossip_equivocate with
      Mpc.Gossip.spread_warning = false;
    }
  in
  let outs = Mpc.Gossip.run net rng (params n h) ~graph ~sources ~corruption ~adv in
  let honest_outputs =
    List.filter_map
      (fun i ->
        match outs.(i) with Mpc.Outcome.Output r -> Some r | Mpc.Outcome.Abort _ -> None)
      (Netsim.Corruption.honest_list corruption)
  in
  (match honest_outputs with
  | [] -> ()
  | first :: rest ->
    List.iter
      (fun other ->
        List.iter
          (fun (origin, v) ->
            match List.assoc_opt origin first with
            | Some v' -> checkb "no divergent outputs" true (Bytes.equal v v')
            | None -> ())
          other)
      rest);
  checkb "ran" true (Array.length outs = n)

(* ---- Golden pins: adversarial gossip traffic ----

   The honest cost spec (test_costs) checks [encode_batch] byte for byte,
   but only on batches whose kind bitmap is all zero.  These pins freeze
   the exact accounting and per-party outcomes of runs whose batches mix
   warnings and rumors, so any change to the batch encoder or to the
   warning path shows up as a diff against fixed values. *)

(* One char per party: ['A'] for an abort, ['.'] for an output; then the
   first 16 hex digits of the SHA-256 over every output's (origin, value)
   pairs, in party order. *)
let outcome_fingerprint outs =
  let pattern =
    String.init (Array.length outs) (fun i -> if Mpc.Outcome.is_abort outs.(i) then 'A' else '.')
  in
  let ctx = Crypto.Sha256.init () in
  Array.iteri
    (fun i o ->
      match o with
      | Mpc.Outcome.Abort _ -> ()
      | Mpc.Outcome.Output rumors ->
        List.iter
          (fun (origin, v) ->
            Crypto.Sha256.update_string ctx (Printf.sprintf "%d:%d:%d:" i origin (Bytes.length v));
            Crypto.Sha256.update ctx v)
          rumors)
    outs;
  (pattern, String.sub (Crypto.Sha256.to_hex (Crypto.Sha256.finalize ctx)) 0 16)

type pin = {
  wire : string;  (** SHA-256 prefix over every sent (src, dst, payload) *)
  bits : int;
  messages : int;
  rounds : int;
  locality : int;
  aborts : string;
  outputs : string;
}

(* Circulant graph on offsets ±1 and ±3: degree 4 and diameter about n/8,
   so rumors and warnings travel many hops and share batches on the way. *)
let circulant n =
  Array.init n (fun i ->
      Util.Iset.of_list (List.map (fun d -> (i + d + n) mod n) [ -3; -1; 1; 3 ]))

let run_pinned ~n ~h ~corruption_seed ~adv_of =
  let graph = circulant n in
  let corruption = Netsim.Corruption.random (Util.Prng.create corruption_seed) ~n ~h in
  (* The default lockstep transport, with every submitted message hashed. *)
  let sync = Netsim.Transport.sync_dense ~n in
  let wire = Crypto.Sha256.init () in
  let submit ~src ~dst payload =
    Crypto.Sha256.update_string wire (Printf.sprintf "%d>%d:%d:" src dst (Bytes.length payload));
    Crypto.Sha256.update wire payload;
    sync.Netsim.Transport.submit ~src ~dst payload
  in
  let net = Netsim.Net.create ~transport:{ sync with submit } n in
  let rng = Util.Prng.create (corruption_seed + 1) in
  let sources = List.init n (fun i -> (i, Bytes.of_string (Printf.sprintf "value-%d" i))) in
  let outs =
    Mpc.Gossip.run net rng (params n h) ~graph ~sources ~corruption ~adv:(adv_of corruption)
  in
  let aborts, outputs = outcome_fingerprint outs in
  {
    wire = String.sub (Crypto.Sha256.to_hex (Crypto.Sha256.finalize wire)) 0 16;
    bits = Netsim.Net.total_bits net;
    messages = Netsim.Net.messages_sent net;
    rounds = Netsim.Net.rounds net;
    locality = Netsim.Net.max_locality net;
    aborts;
    outputs;
  }

let check_pin name expected got =
  if Sys.getenv_opt "PRINT_PINS" <> None then
    Printf.printf "%s: wire=%S bits=%d messages=%d rounds=%d locality=%d aborts=%S outputs=%S\n%!"
      name got.wire got.bits got.messages got.rounds got.locality got.aborts got.outputs;
  Alcotest.(check string) (name ^ " wire digest") expected.wire got.wire;
  checki (name ^ " bits") expected.bits got.bits;
  checki (name ^ " messages") expected.messages got.messages;
  checki (name ^ " rounds") expected.rounds got.rounds;
  checki (name ^ " max locality") expected.locality got.locality;
  Alcotest.(check string) (name ^ " abort pattern") expected.aborts got.aborts;
  Alcotest.(check string) (name ^ " outputs digest") expected.outputs got.outputs

let test_pin_equivocate () =
  check_pin "equivocate"
    {
      wire = "2505eaf5fc917988";
      bits = 284352;
      messages = 968;
      rounds = 7;
      locality = 4;
      aborts = "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA";
      outputs = "e3b0c44298fc1c14";
    }
    (run_pinned ~n:64 ~h:56 ~corruption_seed:5 ~adv_of:(fun _ -> Mpc.Attacks.gossip_equivocate))

let test_pin_forge () =
  check_pin "forge"
    {
      wire = "c188e09303f9180b";
      bits = 685888;
      messages = 1816;
      rounds = 13;
      locality = 4;
      aborts = "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA";
      outputs = "e3b0c44298fc1c14";
    }
    (run_pinned ~n:64 ~h:48 ~corruption_seed:7 ~adv_of:(fun corruption ->
         Mpc.Attacks.gossip_forge
           ~origin:(List.hd (Netsim.Corruption.honest_list corruption))
           ~value:(Bytes.of_string "forged")))

let test_pin_drop () =
  let adv =
    {
      Mpc.Gossip.honest_adv with
      Mpc.Gossip.drop = Some (fun ~me ~origin ~dst -> (me + origin + dst) mod 3 <> 0);
    }
  in
  check_pin "drop"
    {
      wire = "33e8fc0dbcaf0e1c";
      bits = 903712;
      messages = 4066;
      rounds = 26;
      locality = 4;
      aborts = "................................................................";
      outputs = "b93845cafd5139a0";
    }
    (run_pinned ~n:64 ~h:32 ~corruption_seed:11 ~adv_of:(fun _ -> adv))

let test_pin_suppress_warnings () =
  let adv = { Mpc.Attacks.gossip_equivocate with Mpc.Gossip.spread_warning = false } in
  check_pin "no spread_warning"
    {
      wire = "00e045860c1591a0";
      bits = 431776;
      messages = 1260;
      rounds = 9;
      locality = 4;
      aborts = "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA";
      outputs = "e3b0c44298fc1c14";
    }
    (run_pinned ~n:64 ~h:60 ~corruption_seed:9 ~adv_of:(fun _ -> adv))

let () =
  Alcotest.run "sparse_gossip"
    [
      ( "sparse_network",
        [
          Alcotest.test_case "honest no abort" `Quick test_sparse_honest_no_abort;
          Alcotest.test_case "degree bound" `Quick test_sparse_degree_bound;
          Alcotest.test_case "honest connectivity" `Quick test_sparse_honest_connectivity;
          Alcotest.test_case "flood attack detected" `Quick test_sparse_flood_attack_detected;
          Alcotest.test_case "locality" `Quick test_sparse_locality;
        ] );
      ( "gossip",
        [
          Alcotest.test_case "honest delivery" `Quick test_gossip_honest_delivery;
          Alcotest.test_case "subset sources" `Quick test_gossip_subset_sources;
          Alcotest.test_case "cost linear in sources" `Quick test_gossip_forward_once_cost;
          Alcotest.test_case "equivocation safe" `Quick test_gossip_equivocation_aborts;
          Alcotest.test_case "forged conflict" `Quick test_gossip_forged_conflict_detected;
          Alcotest.test_case "warning suppression" `Quick test_gossip_warning_suppression_still_safe;
        ] );
      ( "gossip_pins",
        [
          Alcotest.test_case "equivocate" `Quick test_pin_equivocate;
          Alcotest.test_case "forge" `Quick test_pin_forge;
          Alcotest.test_case "drop" `Quick test_pin_drop;
          Alcotest.test_case "no spread_warning" `Quick test_pin_suppress_warnings;
        ] );
    ]
