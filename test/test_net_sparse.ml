(* Golden pins for the network simulator on the sparse protocol family
   (Algorithm 5, gossip, committee election, LocalCommitteeElect,
   Theorem 2), honest and adversarial, at every jobs count; plus the giant
   tier's streaming union-find connectivity verdict against the BFS
   reference and run_iter against run.

   Each pin fixes bits, messages, rounds and max_locality, and a SHA-256
   prefix over every other observable: per-party bits sent and received,
   sorted peer lists, the active-party frontier, and the normalized
   outcomes.  The values were captured from the original dense network
   representation, so they keep checking that the single layout meters
   and delivers exactly as the dense one did.  Set PRINT_PINS=1 to print
   the measured values. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let pool1 = lazy (Util.Pool.create ~num_domains:1 ())
let pool7 = lazy (Util.Pool.create ~num_domains:7 ())
let all_pools () = [ None; Some (Lazy.force pool1); Some (Lazy.force pool7) ]

type pin = { bits : int; messages : int; rounds : int; locality : int; digest : string }

let ints l = String.concat "," (List.map string_of_int l)
let iset s = ints (Util.Iset.to_sorted_list s)

(* One line per party: the output through [show], or the abort reason. *)
let outcomes show outs =
  String.concat "\n"
    (Array.to_list
       (Array.map
          (function
            | Mpc.Outcome.Output v -> "O " ^ show v
            | Mpc.Outcome.Abort r -> "A " ^ Mpc.Outcome.reason_to_string r)
          outs))

(* Everything observable about a finished run, as one pin.  Peer sets go
   in as sorted lists: set shape is not an observable. *)
let measure net outs =
  let n = Netsim.Net.n net in
  let ctx = Crypto.Sha256.init () in
  let add s = Crypto.Sha256.update_string ctx s in
  for i = 0 to n - 1 do
    add
      (Printf.sprintf "%d:%d:%d:%s;" i (Netsim.Net.bits_sent net i)
         (Netsim.Net.bits_received net i) (iset (Netsim.Net.peers net i)))
  done;
  add ("active:" ^ ints (Netsim.Net.active_parties net) ^ "\n");
  add outs;
  {
    bits = Netsim.Net.total_bits net;
    messages = Netsim.Net.messages_sent net;
    rounds = Netsim.Net.rounds net;
    locality = Netsim.Net.max_locality net;
    digest = String.sub (Crypto.Sha256.to_hex (Crypto.Sha256.finalize ctx)) 0 16;
  }

let check_pin name expected got =
  if Sys.getenv_opt "PRINT_PINS" <> None then
    Printf.printf "%s: bits = %d; messages = %d; rounds = %d; locality = %d; digest = %S\n%!" name
      got.bits got.messages got.rounds got.locality got.digest;
  checki (name ^ " bits") expected.bits got.bits;
  checki (name ^ " messages") expected.messages got.messages;
  checki (name ^ " rounds") expected.rounds got.rounds;
  checki (name ^ " max locality") expected.locality got.locality;
  Alcotest.(check string) (name ^ " observables digest") expected.digest got.digest

(* Run a protocol on a fresh net per jobs count, same seed everywhere,
   and check each run against the pin. *)
let pinned ~name ~n expected (f : pool:Util.Pool.t option -> Netsim.Net.t -> Util.Prng.t -> string)
    =
  List.iter
    (fun pool ->
      let net = Netsim.Net.create n in
      let outs = f ~pool net (Util.Prng.create 42) in
      check_pin name expected (measure net outs))
    (all_pools ())

let params ?(alpha = 3) n h = Mpc.Params.make ~n ~h ~lambda:8 ~alpha ()

let rumors l = String.concat "," (List.map (fun (o, v) -> Printf.sprintf "%d=%S" o (Bytes.to_string v)) l)
let view v = ints v.Mpc.Committee.committee ^ if v.Mpc.Committee.elected then " elected" else ""

let test_sparse_network () =
  let n = 48 and h = 16 in
  let rng0 = Util.Prng.create 9 in
  let corruption = Netsim.Corruption.random rng0 ~n ~h in
  pinned ~name:"sparse_network honest" ~n
    { bits = 13440; messages = 1680; rounds = 1; locality = 47; digest = "505b6fd45e8923fc" }
    (fun ~pool net rng ->
      outcomes iset
        (Mpc.Sparse_network.run ?pool net rng (params n h) ~corruption
           ~adv:Mpc.Sparse_network.honest_adv))

let test_sparse_network_flood () =
  (* The flooding adversary trips the 2d inbox bound, so the abort paths
     and the Flooded reason strings are pinned too. *)
  let n = 40 and h = 8 in
  let victim = 5 in
  let rng0 = Util.Prng.create 88 in
  let corruption = Netsim.Corruption.targeting rng0 ~n ~h ~victim in
  pinned ~name:"sparse_network flood" ~n
    { bits = 12480; messages = 1560; rounds = 1; locality = 39; digest = "03343d0ac8f632be" }
    (fun ~pool net rng ->
      outcomes iset
        (Mpc.Sparse_network.run ?pool net rng (params n h) ~corruption
           ~adv:(Mpc.Attacks.flood_victim ~victim)))

let ring_graph n degree =
  Array.init n (fun i -> Util.Iset.of_list (List.init degree (fun k -> (i + k + 1) mod n)))

let test_gossip () =
  let n = 32 and h = 16 in
  let graph = ring_graph n 4 in
  let sources = [ (0, Bytes.of_string "alpha"); (7, Bytes.of_string "beta") ] in
  let corruption = Netsim.Corruption.none ~n in
  pinned ~name:"gossip honest" ~n
    { bits = 17408; messages = 256; rounds = 9; locality = 8; digest = "afeb07b2200d48c4" }
    (fun ~pool net rng ->
      outcomes rumors
        (Mpc.Gossip.run ?pool net rng (params n h) ~graph ~sources ~corruption
           ~adv:Mpc.Gossip.honest_adv))

let test_gossip_adversarial () =
  let n = 32 and h = 8 in
  let graph = ring_graph n 4 in
  let sources = [ (0, Bytes.of_string "alpha"); (3, Bytes.of_string "beta") ] in
  let rng0 = Util.Prng.create 17 in
  let corruption = Netsim.Corruption.random rng0 ~n ~h in
  List.iter
    (fun (label, expected, adv) ->
      pinned ~name:("gossip " ^ label) ~n expected (fun ~pool net rng ->
          outcomes rumors
            (Mpc.Gossip.run ?pool net rng (params n h) ~graph ~sources ~corruption ~adv)))
    [
      ("equivocate",
        { bits = 13888; messages = 200; rounds = 9; locality = 8; digest = "64f246727d8cb8af" },
        Mpc.Attacks.gossip_equivocate);
      ("forge",
        { bits = 24928; messages = 408; rounds = 9; locality = 8; digest = "6bc561301fc442d8" },
        Mpc.Attacks.gossip_forge ~origin:0 ~value:(Bytes.of_string "forged"));
    ]

let test_committee () =
  let n = 64 and h = 32 in
  let rng0 = Util.Prng.create 5 in
  let corruption = Netsim.Corruption.random rng0 ~n ~h in
  List.iter
    (fun (label, expected, adv) ->
      pinned ~name:("committee " ^ label) ~n expected (fun ~pool net rng ->
          outcomes view (Mpc.Committee.run ?pool net rng (params ~alpha:2 n h) ~corruption ~adv)))
    [
      ("honest",
        { bits = 13376; messages = 639; rounds = 3; locality = 63; digest = "36b490c1d44cca32" },
        Mpc.Committee.honest_adv);
      ("claim-all",
        { bits = 24776; messages = 3097; rounds = 3; locality = 63; digest = "8cab67fc7922f3a9" },
        Mpc.Attacks.claim_all);
    ]

let test_local_committee () =
  let n = 36 and h = 18 in
  let rng0 = Util.Prng.create 11 in
  let corruption = Netsim.Corruption.random rng0 ~n ~h in
  pinned ~name:"local_committee" ~n
    { bits = 967832; messages = 4386; rounds = 6; locality = 35; digest = "9e415111b2c69d06" }
    (fun ~pool net rng ->
      let r =
        Mpc.Local_committee.run ?pool net rng (params ~alpha:2 n h) ~corruption
          ~adv:Mpc.Local_committee.honest_adv
      in
      outcomes view r.Mpc.Local_committee.views
      ^ "\ngraph:"
      ^ String.concat ";" (Array.to_list (Array.map iset r.Mpc.Local_committee.graph)))

let test_theorem2 () =
  (* The deepest stack over the network: routing + two gossip phases +
     threshold decryption, end to end. *)
  let n = 24 and h = 12 in
  let config =
    {
      Mpc.Local_mpc.params = params ~alpha:2 n h;
      pke = (module Crypto.Pke.Regev : Crypto.Pke.S);
      circuit = Circuit.parity ~n;
      input_width = 1;
    }
  in
  let inputs = Array.init n (fun i -> i land 1) in
  let rng0 = Util.Prng.create 23 in
  let corruption = Netsim.Corruption.random rng0 ~n ~h in
  pinned ~name:"theorem2" ~n
    { bits = 29954256; messages = 3012; rounds = 7; locality = 22; digest = "1e93da2cfb72d06e" }
    (fun ~pool net rng ->
      outcomes
        (fun b -> Printf.sprintf "%S" (Bytes.to_string b))
        (Mpc.Local_mpc.run_theorem2 ?pool net rng config ~corruption ~inputs
           ~adv:Mpc.Local_mpc.honest_theorem2_adv))

let test_at_scale () =
  (* One honest Algorithm 5 execution at n = 2048, the largest n the
     dense representation handled comfortably. *)
  let n = 2048 and h = 512 in
  let corruption = Netsim.Corruption.none ~n in
  let net = Netsim.Net.create n in
  let outs =
    Mpc.Sparse_network.run net (Util.Prng.create 7) (params ~alpha:2 n h) ~corruption
      ~adv:Mpc.Sparse_network.honest_adv
  in
  check_pin "n=2048"
    { bits = 999424; messages = 124928; rounds = 1; locality = 148; digest = "be1dd65ce6c1280f" }
    (measure net (outcomes iset outs))

(* ---- Streaming connectivity vs the BFS reference ------------------ *)

(* The giant tier replaces [honest_subgraph_connected]'s BFS (which needs
   all n outcomes live) with a streaming union-find that unions each
   undirected edge at its higher-id endpoint.  Correctness leans on hop
   symmetry for honest non-aborted pairs; this pins the two procedures
   against each other across random corruptions and a flooding adversary
   (whose aborts are exactly the case where naive edge-unioning would
   bridge dead components). *)
let uf_connected outs corruption =
  let n = Array.length outs in
  let parent = Array.init n (fun i -> i) in
  let find i =
    let r = ref i in
    while parent.(!r) <> !r do
      r := parent.(!r)
    done;
    let j = ref i in
    while parent.(!j) <> !r do
      let next = parent.(!j) in
      parent.(!j) <- !r;
      j := next
    done;
    !r
  in
  let aborted = Array.map (fun o -> Mpc.Outcome.is_abort o) outs in
  let honest i = Netsim.Corruption.is_honest corruption i in
  let first_active = ref (-1) in
  Array.iteri
    (fun i out ->
      match out with
      | Mpc.Outcome.Abort _ -> ()
      | Mpc.Outcome.Output s ->
        if honest i then begin
          if !first_active < 0 then first_active := i;
          Util.Iset.iter
            (fun j ->
              if j < i && honest j && not aborted.(j) then begin
                let ri = find i and rj = find j in
                if ri <> rj then parent.(ri) <- rj
              end)
            s
        end)
    outs;
  if !first_active < 0 then true
  else begin
    let root = find !first_active in
    let ok = ref true in
    for i = 0 to n - 1 do
      if honest i && not aborted.(i) && find i <> root then ok := false
    done;
    !ok
  end

let test_union_find_matches_bfs () =
  let n = 200 in
  let rng0 = Util.Prng.create 31 in
  let cases =
    List.concat_map
      (fun h ->
        List.map
          (fun seed -> (h, seed, Netsim.Corruption.random rng0 ~n ~h))
          [ 1; 2; 3; 4; 5; 6; 7; 8 ])
      [ 8; 50; 100 ]
    @ List.map
        (fun seed -> (20, seed, Netsim.Corruption.targeting rng0 ~n ~h:20 ~victim:3))
        [ 9; 10; 11 ]
  in
  List.iter
    (fun (h, seed, corruption) ->
      let net = Netsim.Net.create n in
      let rng = Util.Prng.create seed in
      let adv =
        if Netsim.Corruption.num_corrupted corruption > 0 && seed mod 3 = 0 then
          Mpc.Attacks.flood_victim ~victim:3
        else Mpc.Sparse_network.honest_adv
      in
      let outs = Mpc.Sparse_network.run net rng (params n h) ~corruption ~adv in
      checkb
        (Printf.sprintf "uf = bfs at h=%d seed=%d" h seed)
        (Mpc.Sparse_network.honest_subgraph_connected outs corruption)
        (uf_connected outs corruption))
    cases

(* run_iter's streaming order and contents against the materialized
   array, both pooled and not. *)
let test_run_iter_matches_run () =
  let n = 60 and h = 20 in
  let rng0 = Util.Prng.create 13 in
  let corruption = Netsim.Corruption.random rng0 ~n ~h in
  let reference =
    let net = Netsim.Net.create n in
    let rng = Util.Prng.create 3 in
    outcomes iset
      (Mpc.Sparse_network.run net rng (params n h) ~corruption
         ~adv:Mpc.Sparse_network.honest_adv)
  in
  List.iter
    (fun pool ->
      let net = Netsim.Net.create n in
      let rng = Util.Prng.create 3 in
      let seen = ref [] in
      Mpc.Sparse_network.run_iter ?pool net rng (params n h) ~corruption
        ~adv:Mpc.Sparse_network.honest_adv ~f:(fun i out -> seen := (i, out) :: !seen);
      let ordered = List.rev !seen in
      checkb "run_iter visits 0..n-1 in order" true (List.map fst ordered = List.init n Fun.id);
      checkb "run_iter outcomes match run" true
        (outcomes iset (Array.of_list (List.map snd ordered)) = reference))
    (all_pools ())

let () =
  Alcotest.run "net_sparse"
    [
      ( "protocols",
        [
          Alcotest.test_case "sparse_network honest" `Quick test_sparse_network;
          Alcotest.test_case "sparse_network flood" `Quick test_sparse_network_flood;
          Alcotest.test_case "gossip honest" `Quick test_gossip;
          Alcotest.test_case "gossip adversarial" `Quick test_gossip_adversarial;
          Alcotest.test_case "committee" `Quick test_committee;
          Alcotest.test_case "local committee" `Quick test_local_committee;
          Alcotest.test_case "theorem2" `Quick test_theorem2;
          Alcotest.test_case "n=2048 at scale" `Slow test_at_scale;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "union-find = BFS" `Quick test_union_find_matches_bfs;
          Alcotest.test_case "run_iter = run" `Quick test_run_iter_matches_run;
        ] );
    ]
