(* Benchmark executable.  [perfbench/run.py] drives it: it starts one
   fresh process per protocol execution, so every execution pays its own
   set-up, and its peak memory is its own, never inherited from an
   earlier execution or workload.

     perfbench.exe exec --workload W --seed S --spawn-ts T --epoch E --exec-id K --trace 0|1
     perfbench.exe layers --epoch E

   [exec] sets up one workload, runs one honest execution, checks it and
   prints one JSON line.  With [--trace 1] the network is built over a
   wrapped [Netsim.Transport.t] that records one span per round.
   [layers] times direct calls into each layer on inputs shaped like the
   workloads' and prints one JSON line.  Span timestamps are microseconds
   since [--epoch], the start of run.py's run, so the spans of all
   processes of one run share a time axis. *)

module J = Analysis.Json
module Net = Netsim.Net
module Costs = Analysis.Costs

let now = Unix.gettimeofday

(* The bench's non-giant GC settings (bench/main.ml). *)
let gc_settings () =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 23; Gc.space_overhead = 200 }

let lambda = 8

(* ---- workloads ---- *)

(* The outcome of one execution's checks. *)
type verdict = {
  failure : string option;  (** abort, exception or wrong output *)
  cost_ok : bool;  (** [Analysis.Costs.check] against the protocol's spec *)
}

(* A workload after set-up: [execute net] runs one honest execution on
   [net] and returns the checks of its results, which run untimed. *)
type prepared = { n : int; execute : Net.t -> unit -> verdict }

type workload = {
  name : string;
  coins : int;
      (** protocol coin seed, fixed per workload: it fixes the committee
          and gossip graph, so every run repeats the same exact counts *)
  domains : int;
  committed : (int * int * int) option;
      (** bits, messages and rounds of the committed bench row that the
          default seed reproduces *)
  prepare : pool:Util.Pool.t option -> seed:int -> prepared;
      (** [seed] draws the parties' inputs *)
}

let check_spec ~env ~spec net =
  (Costs.check ~locality:(Net.max_locality net) env spec ~bits:(Net.total_bits net)
     ~messages:(Net.messages_sent net) ~rounds:(Net.rounds net))
    .Costs.ok

let first_failure outs ~expected =
  let bad = ref None in
  Array.iteri
    (fun i o ->
      if !bad = None then
        match o with
        | Mpc.Outcome.Abort r ->
          bad := Some (Printf.sprintf "party %d aborted: %s" i (Mpc.Outcome.reason_to_string r))
        | Mpc.Outcome.Output v ->
          if not (Bytes.equal v (expected i)) then
            bad := Some (Printf.sprintf "party %d: wrong output" i))
    outs;
  !bad

(* Inputs are drawn from the seed, except at the workload's default seed
   ([coins]), where they are the inputs of the committed bench row the
   workload reproduces.  Bits depend slightly on input values (through
   the fingerprint residues' varint widths); messages and rounds do not. *)
let parity_inputs ~coins ~seed n =
  if seed = coins then Array.init n (fun i -> i land 1)
  else
    let rng = Util.Prng.create seed in
    Array.init n (fun _ -> Util.Prng.int rng 2)

let sim_pke coins =
  Crypto.Pke.make_simulated ~lwe_params:Crypto.Pke.bench_lwe_params ~seed:coins ()

let thm1_alg3 =
  let coins = 2048 in
  let prepare ~pool ~seed =
    let n = 2048 and h = 512 in
    let params = Mpc.Params.make ~n ~h ~lambda ~alpha:2 () in
    let pke = sim_pke coins in
    let circuit = Circuit.parity ~n in
    let config = { Mpc.Mpc_abort.params; pke; circuit; input_width = 1 } in
    let inputs = parity_inputs ~coins ~seed n in
    let expected = Mpc.Mpc_abort.expected_output config ~inputs in
    let spec =
      Mpc.Mpc_abort.cost_spec ~pke
        ~depth:(Const (Circuit.depth circuit))
        ~input_width:(Const 1)
        ~out_bits:(Const (Circuit.num_outputs circuit))
        ~n:(Const n) ~lambda:(Const lambda)
    in
    let execute net =
      let obs = Costs.Obs.create () in
      let outs =
        Mpc.Mpc_abort.run ?pool ~deadline:1 ~obs net (Util.Prng.create coins) config
          ~corruption:(Netsim.Corruption.none ~n) ~inputs ~adv:Mpc.Mpc_abort.honest_adv
      in
      fun () ->
        {
          failure = first_failure outs ~expected:(fun _ -> expected);
          cost_ok = check_spec ~env:(Costs.env ~obs []) ~spec net;
        }
    in
    { n; execute }
  in
  {
    name = "thm1-alg3";
    coins;
    domains = 1;
    (* BENCH_HUGE_2026-08-08.json, E1 n = 2048 *)
    committed = Some (2_436_154_080, 516_060, 16);
    prepare;
  }

let thm2_gossip =
  let coins = 128 in
  let prepare ~pool ~seed =
    let n = 128 and h = 32 in
    let params = Mpc.Params.make ~n ~h ~lambda ~alpha:2 () in
    let circuit = Circuit.parity ~n in
    let config = { Mpc.Local_mpc.params; pke = sim_pke coins; circuit; input_width = 1 } in
    let inputs = parity_inputs ~coins ~seed n in
    let expected = Mpc.Local_mpc.expected_output config ~inputs in
    let spec =
      Mpc.Local_mpc.cost_spec_theorem2 ~n:(Const n) ~h:(Const h) ~lambda:(Const lambda)
        ~alpha:(Const 2)
        ~depth:(Const (Circuit.depth circuit))
        ~input_width:(Const 1)
        ~out_bits:(Const (Circuit.num_outputs circuit))
    in
    let execute net =
      let obs = Costs.Obs.create () in
      let outs =
        Mpc.Local_mpc.run_theorem2 ?pool ~obs net (Util.Prng.create coins) config
          ~corruption:(Netsim.Corruption.none ~n) ~inputs
          ~adv:Mpc.Local_mpc.honest_theorem2_adv
      in
      fun () ->
        {
          failure = first_failure outs ~expected:(fun _ -> expected);
          cost_ok = check_spec ~env:(Costs.env ~obs []) ~spec net;
        }
    in
    { n; execute }
  in
  {
    name = "thm2-gossip";
    coins;
    domains = 1;
    (* BENCH_2026-08-08.json, E2 n = 128 *)
    committed = Some (3_268_189_808, 55_608, 7);
    prepare;
  }

let a2a_len = 64

let a2a_fp =
  let coins = 1024 in
  let prepare ~pool ~seed =
    let n = 1024 in
    let params = Mpc.Params.make ~n ~h:(n / 2) ~lambda ~alpha:2 () in
    let participants = List.init n Fun.id in
    let inputs =
      Array.init n (fun i ->
          Crypto.Kdf.expand ~key:(Bytes.of_string (string_of_int i))
            ~info:(if seed = coins then "e9" else Printf.sprintf "perfbench/%d" seed)
            a2a_len)
    in
    let expected = List.mapi (fun i v -> (i, v)) (Array.to_list inputs) in
    let variant = Mpc.All_to_all.Fingerprinted in
    let spec =
      Mpc.All_to_all.cost_spec ~variant ~k:(Const n)
        ~idsum:(Const (Costs.varint_sum_ids participants))
        ~len:(Const a2a_len) ~n:(Const n) ~lambda:(Const lambda)
    in
    let execute net =
      let outs =
        Mpc.All_to_all.run ?pool net (Util.Prng.create coins) params ~variant ~participants
          ~input:(fun i -> inputs.(i))
          ~corruption:(Netsim.Corruption.none ~n) ~adv:Mpc.All_to_all.honest_adv
      in
      fun () ->
        let same (i, v) (j, w) = i = j && Bytes.equal v w in
        let failure =
          List.find_map
            (fun (p, o) ->
              match o with
              | Mpc.Outcome.Abort r ->
                Some (Printf.sprintf "party %d aborted: %s" p (Mpc.Outcome.reason_to_string r))
              | Mpc.Outcome.Output l ->
                if List.equal same l expected then None
                else Some (Printf.sprintf "party %d: wrong output" p))
            outs
        in
        { failure; cost_ok = check_spec ~env:(Costs.env []) ~spec net }
    in
    { n; execute }
  in
  {
    name = "a2a-fp";
    coins;
    domains = 2;
    (* BENCH_HUGE_2026-08-08.json, E9 fingerprinted n = 1024 *)
    committed = Some (888_324_096, 2_095_104, 3);
    prepare;
  }

(* Per-party maximum of 4-bit bids: test_multi_output's
   test_honest_shared_output circuit. *)
let max_circuit n width =
  let maxi = Circuit.maximum ~n ~width in
  Circuit.make ~num_inputs:(n * width)
    ~outputs:(List.concat (List.init n (fun _ -> maxi.Circuit.outputs)))

let alg4_multi =
  let coins = 1 in
  let prepare ~pool:_ ~seed =
    let n = 10 and h = 5 and width = 4 in
    let config =
      {
        Mpc.Multi_output.params = Mpc.Params.make ~n ~h ~lambda ~alpha:2 ();
        pke = (module Crypto.Pke.Regev : Crypto.Pke.S);
        circuit = max_circuit n width;
        input_width = width;
        output_width = width;
      }
    in
    let inputs =
      if seed = coins then Array.init n (fun i -> i * 5 mod 16)
      else
        let rng = Util.Prng.create seed in
        Array.init n (fun _ -> Util.Prng.int rng (1 lsl width))
    in
    let expected = Mpc.Multi_output.expected_outputs config ~inputs in
    (* Alg 4 has no cost spec yet: its counts are gated only by the
       exact bits/messages/rounds metrics. *)
    let execute net =
      let outs =
        Mpc.Multi_output.run net (Util.Prng.create coins) config
          ~corruption:(Netsim.Corruption.none ~n) ~inputs ~adv:Mpc.Multi_output.honest_adv
      in
      fun () -> { failure = first_failure outs ~expected:(fun i -> expected.(i)); cost_ok = true }
    in
    { n; execute }
  in
  { name = "alg4-multi"; coins; domains = 1; committed = None; prepare }

let workloads = [ thm1_alg3; thm2_gossip; a2a_fp; alg4_multi ]

(* ---- tracing ---- *)

(* Spans are kept in memory as Chrome trace-event records and printed
   with the process's result. *)
let epoch = ref 0.0
let us t = J.Float (1e6 *. (t -. !epoch))

let span ~name ~id ~parent ~exec ~t0 ~t1 args =
  J.Obj
    [
      ("name", J.String name);
      ("ph", J.String "X");
      ("ts", us t0);
      ("dur", J.Float (1e6 *. (t1 -. t0)));
      ("pid", J.Int 1);
      ("tid", J.Int exec);
      ( "args",
        J.Obj
          ([ ("id", J.String id);
             ("parent", match parent with None -> J.Null | Some p -> J.String p);
             ("exec", J.Int exec) ]
          @ args) );
    ]

(* One round as seen from the transport seam: its compute interval runs
   from the end of the previous [advance] (for the first round, from the
   first [submit]) to the start of this one, and its delivery interval
   is the [advance] itself. *)
type round = { r_start : float; d_start : float; r_end : float; released : int }

(* Payload sizes are counted by exact length; payloads this short cover
   every workload's messages except a few huge ones, kept in [big]. *)
let small_size = 1 lsl 16

type tracer = {
  mutable rounds : round list;  (** newest first *)
  mutable round_start : float option;
  mutable submits : int;
  sizes : int array;
  big : (int, int) Hashtbl.t;
}

let tracer () =
  { rounds = []; round_start = None; submits = 0; sizes = Array.make small_size 0;
    big = Hashtbl.create 16 }

let wrap tr (t : Netsim.Transport.t) =
  {
    t with
    Netsim.Transport.submit =
      (fun ~src ~dst payload ->
        if tr.round_start = None then tr.round_start <- Some (now ());
        tr.submits <- tr.submits + 1;
        let len = Bytes.length payload in
        if len < small_size then tr.sizes.(len) <- tr.sizes.(len) + 1
        else Hashtbl.replace tr.big len (1 + Option.value ~default:0 (Hashtbl.find_opt tr.big len));
        t.submit ~src ~dst payload);
    advance =
      (fun ~deliver ->
        let d_start = now () in
        let released = ref 0 in
        t.advance ~deliver:(fun ~src ~dst payload ->
            incr released;
            deliver ~src ~dst payload);
        let r_end = now () in
        let r_start = Option.value tr.round_start ~default:d_start in
        tr.rounds <- { r_start; d_start; r_end; released = !released } :: tr.rounds;
        tr.round_start <- Some r_end);
  }

(* [size_percentile tr p] — the smallest payload length with at least
   [p] of all submitted payloads at or below it. *)
let size_percentile tr p =
  let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int tr.submits))) in
  let small =
    List.filter (fun (_, c) -> c > 0) (List.init small_size (fun len -> (len, tr.sizes.(len))))
  in
  let big = List.sort compare (List.of_seq (Hashtbl.to_seq tr.big)) in
  let rec go seen = function
    | [] -> 0
    | (len, c) :: rest -> if seen + c >= rank then len else go (seen + c) rest
  in
  go 0 (small @ big)

(* ---- exec mode ---- *)

let gc_delta (a : Gc.stat) (b : Gc.stat) =
  [
    ("minor_words", J.Float (b.minor_words -. a.minor_words));
    ("major_words", J.Float (b.major_words -. a.major_words));
    ("minor_collections", J.Int (b.minor_collections - a.minor_collections));
    ("major_collections", J.Int (b.major_collections - a.major_collections));
  ]

let trace_fields tr ~exec ~name ~t0 ~t1 =
  let rounds = List.rev tr.rounds in
  let exec_id = Printf.sprintf "e%d" exec in
  let run_s = t1 -. t0 in
  let spans = ref [ span ~name ~id:exec_id ~parent:None ~exec ~t0 ~t1 [] ] in
  let deliver = ref 0.0 and covered = ref 0.0 and peak = ref 0 in
  let slowest = ref (0, 0.0) in
  List.iteri
    (fun i r ->
      let k = i + 1 in
      let rid = Printf.sprintf "%s.r%d" exec_id k in
      let dur = r.r_end -. r.r_start in
      deliver := !deliver +. (r.r_end -. r.d_start);
      covered := !covered +. dur;
      peak := max !peak r.released;
      if dur > snd !slowest then slowest := (k, dur);
      spans :=
        span ~name:"deliver" ~id:(rid ^ ".d") ~parent:(Some rid) ~exec ~t0:r.d_start ~t1:r.r_end
          [ ("messages", J.Int r.released) ]
        :: span ~name:(Printf.sprintf "round %d" k) ~id:rid ~parent:(Some exec_id) ~exec
             ~t0:r.r_start ~t1:r.r_end
             [ ("compute_s", J.Float (r.d_start -. r.r_start)) ]
        :: !spans)
    rounds;
  [
    ("submits", J.Int tr.submits);
    ("advances", J.Int (List.length rounds));
    ("deliver_s", J.Float !deliver);
    ("peak_step_msgs", J.Int !peak);
    ("msg_bytes_p50", J.Int (size_percentile tr 0.5));
    ("msg_bytes_p99", J.Int (size_percentile tr 0.99));
    ("round_slowest_index", J.Int (fst !slowest));
    ("round_slowest_s", J.Float (snd !slowest));
    ("round_slowest_share", J.Float (snd !slowest /. run_s));
    ("rounds_s", J.Float !covered);
    ("self_s", J.Float (run_s -. !covered));
    ("trace_events", J.List (List.rev !spans));
  ]

let run_exec ~wl ~seed ~spawn_ts ~exec ~traced =
  gc_settings ();
  let pool =
    if wl.domains > 1 then Some (Util.Pool.create ~num_domains:(wl.domains - 1) ()) else None
  in
  let p = wl.prepare ~pool ~seed in
  let tr = if traced then Some (tracer ()) else None in
  let t_ready = now () in
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let net, verdict =
    let net =
      match tr with
      | Some tr -> Net.create ~transport:(wrap tr (Netsim.Transport.sync_dense ~n:p.n)) p.n
      | None -> Net.create p.n
    in
    match p.execute net with
    | check -> (net, check)
    | exception e -> (net, fun () -> { failure = Some (Printexc.to_string e); cost_ok = true })
  in
  let t1 = now () in
  let g1 = Gc.quick_stat () in
  let verdict =
    try verdict () with e -> { failure = Some (Printexc.to_string e); cost_ok = true }
  in
  Option.iter Util.Pool.shutdown pool;
  let counts = (Net.total_bits net, Net.messages_sent net, Net.rounds net) in
  let failure =
    match (verdict.failure, wl.committed) with
    | None, Some row when seed = wl.coins && counts <> row ->
      let b, m, r = row in
      Some
        (Printf.sprintf "counts differ from the committed row (%d bits, %d messages, %d rounds)"
           b m r)
    | f, _ -> f
  in
  let gc = Gc.get () in
  let fields =
    [
      ("workload", J.String wl.name);
      ("seed", J.Int seed);
      ("coins", J.Int wl.coins);
      ("domains", J.Int wl.domains);
      ("setup_s", J.Float (t_ready -. spawn_ts));
      ("run_s", J.Float (t1 -. t0));
      ("ocaml", J.String Sys.ocaml_version);
      ("gc_minor_heap_words", J.Int gc.Gc.minor_heap_size);
      ("gc_space_overhead", J.Int gc.Gc.space_overhead);
      ( "peak_rss_mb",
        match Analysis.Bench_io.peak_rss_mb () with None -> J.Null | Some m -> J.Float m );
      ("failure", match failure with None -> J.Null | Some s -> J.String s);
      ("cost_ok", J.Bool verdict.cost_ok);
      ("bits", J.Int (Net.total_bits net));
      ("messages", J.Int (Net.messages_sent net));
      ("rounds", J.Int (Net.rounds net));
      ("max_locality", J.Int (Net.max_locality net));
      ("gc", J.Obj (gc_delta g0 g1));
    ]
  in
  let fields =
    match tr with
    | Some tr -> fields @ trace_fields tr ~exec ~name:("exec " ^ wl.name) ~t0 ~t1
    | None -> fields
  in
  print_endline (J.to_string (J.Obj fields))

(* ---- layers mode ---- *)

(* [median_time ~reps f] — median wall seconds of [reps] calls of [f]
   after one warm-up call. *)
let median_time ~reps f =
  ignore (Sys.opaque_identity (f ()));
  let ts =
    Array.init reps (fun _ ->
        let t0 = now () in
        ignore (Sys.opaque_identity (f ()));
        now () -. t0)
  in
  Array.sort compare ts;
  ts.(reps / 2)

(* [batch k f] — a thunk calling [f] [k] times, for operations too short
   to time one at a time. *)
let batch k f () =
  for i = 1 to k do
    ignore (Sys.opaque_identity (f i))
  done

(* One round on a default [Net]: [payload] sent over each (src, dst) of
   [pairs], one [step], one [recv_one] per pair.  Returns the seconds per
   message. *)
let net_round ~reps ~n ~pairs ~payload =
  let m = Array.length pairs in
  median_time ~reps (fun () ->
      let net = Net.create n in
      Array.iter (fun (src, dst) -> Net.send net ~src ~dst payload) pairs;
      Net.step net;
      Array.iter (fun (src, dst) -> ignore (Net.recv_one net ~dst ~src)) pairs)
  /. float_of_int m

let run_layers () =
  gc_settings ();
  let spans = ref [] and metrics = ref [] in
  let record name unit value t0 =
    spans :=
      span ~name ~id:name ~parent:None ~exec:0 ~t0 ~t1:(now ()) [ ("value", J.Float value) ]
      :: !spans;
    metrics := (name, J.Obj [ ("value", J.Float value); ("unit", J.String unit) ]) :: !metrics
  in
  let layer name unit f =
    let t0 = now () in
    record name unit (f ()) t0
  in
  let honest n = Netsim.Corruption.none ~n in
  let pool = Util.Pool.create ~num_domains:1 () in
  layer "mpc.equality.pairwise_s" "s" (fun () ->
      let n = 1024 in
      let params = Mpc.Params.make ~n ~h:(n / 2) ~lambda ~alpha:2 () in
      let values =
        Array.init n (fun i ->
            Crypto.Kdf.expand ~key:(Bytes.of_string (string_of_int i)) ~info:"eq" a2a_len)
      in
      median_time ~reps:3 (fun () ->
          Mpc.Equality.pairwise ~pool (Net.create n) (Util.Prng.create 1024) params
            ~members:(List.init n Fun.id) ~value:(fun i -> values.(i)) ~corruption:(honest n)
            ~adv:Mpc.Equality.honest_adv));
  layer "mpc.committee.run_s" "s" (fun () ->
      let n = 2048 in
      let params = Mpc.Params.make ~n ~h:512 ~lambda ~alpha:2 () in
      median_time ~reps:3 (fun () ->
          Mpc.Committee.run (Net.create n) (Util.Prng.create 2048) params ~corruption:(honest n)
            ~adv:Mpc.Committee.honest_adv));
  layer "mpc.sparse_network.run_s" "s" (fun () ->
      let n = 128 in
      let params = Mpc.Params.make ~n ~h:32 ~lambda ~alpha:2 () in
      median_time ~reps:21 (fun () ->
          Mpc.Sparse_network.run (Net.create n) (Util.Prng.create 128) params
            ~corruption:(honest n) ~adv:Mpc.Sparse_network.honest_adv));
  let fingerprint ~n ~len ~calls =
    let rng = Util.Prng.create len in
    let primes =
      Crypto.Fingerprint.sample_primes rng
        (Crypto.Fingerprint.residues_needed ~lambda ~n ~msg_len:len)
    in
    let buf = Util.Prng.bytes rng len in
    1e9
    *. median_time ~reps:5 (batch calls (fun _ -> Crypto.Fingerprint.residues_many buf primes))
    /. float_of_int (calls * len)
  in
  layer "crypto.fingerprint.small_ns_per_byte" "ns/B" (fun () ->
      fingerprint ~n:1024 ~len:64 ~calls:100_000);
  (* thm1-alg3's step-5 views: ~4.5 MB of member ciphertexts. *)
  layer "crypto.fingerprint.large_ns_per_byte" "ns/B" (fun () ->
      fingerprint ~n:2048 ~len:4_500_000 ~calls:1);
  layer "netsim.net.small_ns_per_msg" "ns" (fun () ->
      let n = 1024 in
      let pairs = Array.make (n * (n - 1)) (0, 0) in
      let k = ref 0 in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          if src <> dst then begin
            pairs.(!k) <- (src, dst);
            incr k
          end
        done
      done;
      1e9 *. net_round ~reps:5 ~n ~pairs ~payload:(Bytes.make a2a_len 'x'));
  (* thm2-gossip's largest rounds: ~8.4k messages of ~6 KB at n = 128. *)
  layer "netsim.net.large_ns_per_msg" "ns" (fun () ->
      let n = 128 in
      let pairs = Array.init 8436 (fun t -> (t mod n, (t mod n + 1 + (t / n)) mod n)) in
      1e9 *. net_round ~reps:51 ~n ~pairs ~payload:(Bytes.make 6144 'x'));
  let codec len =
    let payload = Bytes.make len 'c' in
    let w = Util.Codec.writer () in
    let calls = 100_000 in
    1e9
    *. median_time ~reps:5
         (batch calls (fun _ ->
              Util.Codec.reset w;
              Util.Codec.write_bytes w payload;
              Util.Codec.read_bytes_view (Util.Codec.reader (Util.Codec.contents w))))
    /. float_of_int calls
  in
  layer "util.codec.small_ns" "ns" (fun () -> codec a2a_len);
  layer "util.codec.large_ns" "ns" (fun () -> codec 6144);
  layer "util.prng.derive_ns" "ns" (fun () ->
      let rng = Util.Prng.create 7 and calls = 1_000_000 in
      1e9 *. median_time ~reps:5 (batch calls (fun i -> Util.Prng.derive rng ~key:i))
      /. float_of_int calls);
  layer "util.pool.map_jobs_ns_per_job" "ns" (fun () ->
      let jobs = Array.init 1024 Fun.id and calls = 200 in
      1e9
      *. median_time ~reps:5 (batch calls (fun _ -> Util.Pool.map_jobs pool jobs succ))
      /. float_of_int (calls * Array.length jobs));
  layer "crypto.sha256.ns_per_byte" "ns/B" (fun () ->
      let buf = Bytes.make 64 's' and calls = 100_000 in
      1e9 *. median_time ~reps:5 (batch calls (fun _ -> Crypto.Sha256.digest buf))
      /. float_of_int (calls * 64));
  let module R = Crypto.Pke.Regev in
  let rng = Util.Prng.create 11 in
  let pk, sk = R.keygen rng in
  let msg = Bytes.make 16 'm' in
  let ct = R.encrypt rng pk msg in
  layer "crypto.regev.encrypt_ms" "ms" (fun () ->
      1e3 *. median_time ~reps:51 (fun () -> R.encrypt rng pk msg));
  layer "crypto.regev.decrypt_ms" "ms" (fun () ->
      1e3 *. median_time ~reps:51 (batch 10 (fun _ -> R.decrypt sk ct)) /. 10.);
  (* Alg 4 signs one output per party: height 4 covers n = 10. *)
  let seed = Bytes.make 32 'k' and height = 4 in
  layer "crypto.merkle_sig.keygen_ms" "ms" (fun () ->
      1e3 *. median_time ~reps:5 (fun () -> Crypto.Merkle_sig.keygen ~seed ~height));
  let sk, mpk = Crypto.Merkle_sig.keygen ~seed ~height in
  let signature = Crypto.Merkle_sig.sign sk msg in
  layer "crypto.merkle_sig.sign_ms" "ms" (fun () ->
      (* a key signs [2^height] messages; re-key outside the timed call *)
      let keys = Array.init 8 (fun _ -> fst (Crypto.Merkle_sig.keygen ~seed ~height)) in
      let i = ref 0 in
      1e3
      *. median_time ~reps:7 (fun () ->
             let k = keys.(!i mod 8) in
             incr i;
             Crypto.Merkle_sig.sign k msg));
  layer "crypto.merkle_sig.verify_ms" "ms" (fun () ->
      1e3 *. median_time ~reps:51 (fun () -> Crypto.Merkle_sig.verify mpk msg signature));
  Util.Pool.shutdown pool;
  print_endline
    (J.to_string
       (J.Obj
          [ ("metrics", J.Obj (List.rev !metrics)); ("trace_events", J.List (List.rev !spans)) ]))

(* ---- command line ---- *)

let () =
  let mode = ref "" and workload = ref "" and seed = ref None and spawn_ts = ref 0.0 in
  let exec = ref 0 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload");
      ( "--seed",
        Arg.Int (fun s -> seed := Some s),
        "N input seed (default: the workload's coin seed)" );
      ("--spawn-ts", Arg.Set_float spawn_ts, "T time run.py started this process");
      ("--epoch", Arg.Set_float epoch, "T start of run.py's run, the trace's time origin");
      ("--exec-id", Arg.Set_int exec, "K execution id for spans");
      ("--trace", Arg.Set_int trace, "0|1 build the network over the tracing transport");
    ]
  in
  let usage = "perfbench.exe (exec|layers) [options]" in
  Arg.parse spec (fun m -> mode := m) usage;
  match !mode with
  | "exec" -> (
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
    | Some wl ->
      let spawn_ts = if !spawn_ts > 0.0 then !spawn_ts else now () in
      run_exec ~wl ~seed:(Option.value !seed ~default:wl.coins) ~spawn_ts ~exec:!exec
        ~traced:(!trace = 1))
  | "layers" -> run_layers ()
  | _ ->
    prerr_endline usage;
    exit 2
