(* Benchmark harness: regenerates every quantitative claim of the paper
   (there are no empirical tables in the original — it is a theory paper —
   so the "tables and figures" are the theorem bounds; see DESIGN.md §4 and
   EXPERIMENTS.md for the paper-vs-measured record).

     dune exec bench/main.exe                 -- run everything
     dune exec bench/main.exe -- --only E1    -- one experiment
     dune exec bench/main.exe -- --list       -- every experiment's sweeps and points per tier
     dune exec bench/main.exe -- --quick      -- reduced sweeps (CI tier)
     dune exec bench/main.exe -- --huge       -- n up to 2048 for E1/E9/E13 (see below)
     dune exec bench/main.exe -- --giant      -- E7/E8 at n = 10^4..10^6, O(activity) memory
     dune exec bench/main.exe -- --jobs N     -- N parallel executors ("max" = all cores)
     dune exec bench/main.exe -- --json F     -- also write a JSON report to F
     dune exec bench/main.exe -- --max-wall-s S   -- exit 2 if wall-clock > S
     dune exec bench/main.exe -- --max-rss-mb M   -- exit 2 if peak RSS (VmHWM) > M MB
     dune exec bench/main.exe -- --diff A B   -- regression-diff two reports
     dune exec bench/main.exe -- --audit F    -- re-check a saved report against the
                                                 symbolic cost specs (exit 1 on mismatch)
     dune exec bench/main.exe -- --only cost-audit
                                              -- run every cost spec against one honest
                                                 execution; phase tables + extrapolation
     dune exec bench/main.exe -- --seed S     -- replay seed (threaded into every
                                                 experiment RNG/PKE and recorded in
                                                 each run record's "seed" field)
     dune exec bench/main.exe -- --only soak --seed S --schedules K
                                              -- Byzantine fault-injection sweep
     dune exec bench/main.exe -- --only soak --seed S --schedule K
                                              -- replay one fault schedule verbosely
     dune exec bench/main.exe -- --async      -- event-transport rows for E1/E6/E9;
                                                 with --only soak, the sweep runs every
                                                 case on a derived adversarially-
                                                 scheduled transport

   Communication complexity is measured per the paper's definition (§3.1):
   bits sent by all parties in an honest execution.

   Structure: the registry [experiments] below lists every experiment with
   its declared sweeps ([Harness.sweep]): a series and its points per
   axis — full, huge, giant, async — each as a full list and a --quick
   list.  --list prints those declarations, and the default selection of
   each tier is every experiment declaring that tier's scale (all of them
   at the full scale; E1/E9/E13 huge; E7/E8 giant).  An experiment asked
   for with --only at a scale it does not declare runs its full scale.
   Three orthogonal axes are applied by the harness, not the experiments:
   - tier: the scale and --quick pick each sweep's points;
   - executor ([Harness.rows]): full-scale rows fan out over the --jobs
     pool ([Util.Pool.map_jobs], array order kept); huge rows run one
     after another and hand the pool to the protocol, which shards each
     round via [Netsim.Net.run_round]; giant rows run one after another;
   - transport ([Harness.async_rows]): under --async the sweeps declaring
     the async axis re-run on the adversarial event transport.
   Every row builds its own network, RNG and PKE from its seed and runs
   its protocol through the honest-run catalogue (bench/catalogue.ml),
   which pairs each protocol with its cost spec.  Accounting is
   bit-identical at any --jobs value (the run_round contract, enforced by
   test/test_net_parallel.ml), so --diff between a --jobs 1 and a --jobs
   max report must show zero drift.  The cubic baselines' huge sweeps
   (E9 naive, E13 GMW) are capped — the cap is printed, and is itself the
   point: past it only the paper's protocols are feasible. *)

open Harness

type run = Analysis.Bench_io.run

let int = string_of_int
let pair (a, b) = Printf.sprintf "(%d,%d)" a b
let triple (a, b, c) = Printf.sprintf "(%d,%d,%d)" a b c
let with_trials t = List.map (fun (n, h) -> (n, h, t))
let alternating n = Array.init n (fun i -> i land 1)
let wall_s (r : run) = Printf.sprintf "%.1f" (r.wall_ms /. 1000.0)
let wall_ms (r : run) = Printf.sprintf "%.0f" r.wall_ms

(* One honest run of a circuit pipeline on parity(n) with alternating
   inputs and simulated PKE, RNG and transport all from [seed]: its
   outcome, run record and max locality. *)
let parity_point ~experiment ~series ~seed ~n ~h run c =
  let net, rng = open_net c ~seed n in
  let outs, r =
    measure net ~experiment ~series ~h (fun () ->
        run c net rng ~h ~pke:(sim_pke seed) ~circuit:(Circuit.parity ~n) ~inputs:(alternating n))
  in
  (outs, r, Netsim.Net.max_locality net)

(* ------------------------------------------------------------------ *)
(* E1 — Theorem 1: Algorithm 3 communication Õ(n²/h)                   *)
(* ------------------------------------------------------------------ *)

let e1_quarter =
  sweep "n-sweep h=n/4" int
    ~full:([ 64; 128; 256; 384; 512 ], [ 64; 128; 256 ])
    ~huge:([ 512; 1024; 2048 ], [ 512 ])
    ~async:([ 64; 128; 256 ], [ 64; 128 ])

let e1_fixed = sweep "n-sweep h=12" int ~full:([ 48; 96; 192; 288 ], [ 48; 96; 192 ])
let e1_hsweep = sweep "h-sweep n=256" int ~full:([ 16; 32; 64; 128; 224 ], [ 32; 64; 128 ])

let e1 tier =
  let point (s : _ sweep) ~seed ~n ~h c =
    let outs, r, _ =
      parity_point ~experiment:"E1" ~series:s.series ~seed ~n ~h
        (Catalogue.alg3 ~input_width:1) c
    in
    assert (Array.for_all Mpc.Outcome.is_output outs);
    r
  in
  let quarter_point c n = point e1_quarter ~seed:n ~n ~h:(n / 4) c in
  let huge = tier.scale = Huge in
  if huge then begin
    section "E1  (huge tier) Algorithm 3 at n up to 2048";
    Printf.printf
      "same protocol, series, and seeds as the full tier's h = n/4 sweep,\n\
       pushed to n = 2048; each run shards its rounds across the --jobs pool\n\
       via Net.run_round, so records are bit-identical at any --jobs value.\n\n"
  end
  else begin
    section "E1  Theorem 1: Algorithm 3 uses O~(n^2/h) bits";
    Printf.printf "paper: total communication O(n^2 h^-1 poly(lambda, D, log n))\n\n"
  end;
  let r1 = rows tier e1_quarter quarter_point in
  table ~title:"sweep n at fixed ratio h = n/4 (n^2/h = 4n: expect ~linear)"
    ([ "n"; "h"; "bits"; "bits*h/n^2" ] @ if huge then [ "wall ms" ] else [])
    (fun (r : run) ->
      [ int r.n; int r.h; fmt_bits r.bits;
        Printf.sprintf "%.0f"
          (float_of_int r.bits *. float_of_int r.h /. float_of_int (r.n * r.n)) ]
      @ if huge then [ wall_ms r ] else [])
    r1;
  if huge then r1
  else begin
    fit_line "exponent in n at fixed h/n (paper: n^2/h = 4n here, so ~1)"
      (fun (r : run) -> r.n) r1;
    print_newline ();
    let r2 = rows tier e1_fixed (fun c n -> point e1_fixed ~seed:(4000 + n) ~n ~h:12 c) in
    table ~title:"sweep n at fixed h = 12 (expect ~n^2 polylog)" [ "n"; "bits" ]
      (fun (r : run) -> [ int r.n; fmt_bits r.bits ])
      r2;
    fit_line "exponent in n at fixed h (paper: ~2)"
      (fun (r : run) -> r.n) r2;
    print_newline ();
    let r3 = rows tier e1_hsweep (fun c h -> point e1_hsweep ~seed:(1000 + h) ~n:256 ~h c) in
    table ~title:"sweep h (n = 256)" [ "h"; "bits"; "bits*h" ]
      (fun (r : run) -> [ int r.h; fmt_bits r.bits; fmt_bits (r.bits * r.h) ])
      r3;
    fit_line
      "exponent in h at fixed n (paper: ~-1; the committee-internal |C|^2 terms push toward \
       -2 until h >> log^2 n)"
      (fun (r : run) -> r.h) r3;
    r1 @ r2 @ r3
    @ async_rows tier e1_quarter
        ~title:"E1  (--async) Algorithm 3 on the adversarial event transport"
        (fun c n -> [ quarter_point c n ])
  end

(* ------------------------------------------------------------------ *)
(* E2 — Theorem 2: gossip MPC, Õ(n³/h) bits, locality Õ(n/h)           *)
(* ------------------------------------------------------------------ *)

let e2_nsweep = sweep "n-sweep h=n/4" int ~full:([ 32; 64; 96; 128 ], [ 32; 64; 96 ])
let e2_hsweep = sweep "h-sweep n=96" int ~full:([ 12; 24; 48; 80 ], [ 24; 48; 80 ])

let e2 tier =
  section "E2  Theorem 2: gossip MPC uses O~(n^3/h) bits with locality O~(n/h)";
  Printf.printf "paper: O(n^3 h^-1 poly) bits, locality O(lambda n h^-1 log n)\n\n";
  let point (s : _ sweep) ~seed ~n ~h c =
    let outs, r, loc =
      parity_point ~experiment:"E2" ~series:s.series ~seed ~n ~h Catalogue.thm2 c
    in
    assert (Array.for_all Mpc.Outcome.is_output outs);
    (r, loc)
  in
  let r1 = rows tier e2_nsweep (fun c n -> point e2_nsweep ~seed:n ~n ~h:(n / 4) c) in
  table ~title:"sweep n (h = n/4)" [ "n"; "h"; "bits"; "locality"; "(n/h)*ln n" ]
    (fun ((r : run), loc) ->
      [ int r.n; int r.h; fmt_bits r.bits; int loc;
        Printf.sprintf "%.0f" (float_of_int r.n /. float_of_int r.h *. log (float_of_int r.n)) ])
    r1;
  fit_line "bits exponent in n at fixed h/n (paper: n^3/h = 4n^2 here, so ~2)"
    (fun (r : run) -> r.n) (List.map fst r1);
  print_newline ();
  let r2 = rows tier e2_hsweep (fun c h -> point e2_hsweep ~seed:(2000 + h) ~n:96 ~h c) in
  table ~title:"sweep h (n = 96)" [ "h"; "bits"; "locality" ]
    (fun ((r : run), loc) -> [ int r.h; fmt_bits r.bits; int loc ])
    r2;
  fit_line "bits exponent in h at fixed n (paper: ~-1; locality shrinks with h too)"
    (fun (r : run) -> r.h) (List.map fst r2);
  List.map fst (r1 @ r2)

(* ------------------------------------------------------------------ *)
(* E3 — Theorem 4: Algorithm 8, Õ(n³/h^{3/2}) bits, locality Õ(n/√h)   *)
(* ------------------------------------------------------------------ *)

let e3_nsweep = sweep "n-sweep h=n/4" int ~full:([ 32; 64; 96; 128; 160 ], [ 32; 64; 96 ])
let e3_hsweep = sweep "h-sweep n=128" int ~full:([ 16; 32; 64; 100 ], [ 32; 64; 100 ])

let e3 tier =
  section "E3  Theorem 4: Algorithm 8 uses O~(n^3/h^1.5) bits, locality O~(n/sqrt h)";
  Printf.printf
    "paper: O(n^3 h^-3/2 poly) bits, locality O(lambda n h^-1/2 log n)\n\
     note: at simulation scales alpha*log n/sqrt h is near 1, so committees\n\
     are large and the asymptotic regime is only partially visible; the\n\
     h-dependence and the locality gap vs the clique are the reproducible\n\
     shape.\n\n";
  let point (s : _ sweep) ~seed ~n ~h c =
    let _, r, loc =
      parity_point ~experiment:"E3" ~series:s.series ~seed ~n ~h
        (fun c -> Catalogue.thm4 c ~alpha:1) c
    in
    (r, loc)
  in
  let r1 = rows tier e3_nsweep (fun c n -> point e3_nsweep ~seed:n ~n ~h:(n / 4) c) in
  table ~title:"sweep n (h = n/4)" [ "n"; "h"; "bits"; "locality"; "clique" ]
    (fun ((r : run), loc) -> [ int r.n; int r.h; fmt_bits r.bits; int loc; int (r.n - 1) ])
    r1;
  fit_line
    "bits exponent in n at fixed h/n (paper: n^3/h^1.5 = 8n^1.5 here; committee saturation \
     inflates it)"
    (fun (r : run) -> r.n) (List.map fst r1);
  print_newline ();
  let r2 = rows tier e3_hsweep (fun c h -> point e3_hsweep ~seed:(3000 + h) ~n:128 ~h c) in
  table ~title:"sweep h (n = 128)" [ "h"; "bits"; "locality"; "n/sqrt(h)" ]
    (fun ((r : run), loc) ->
      [ int r.h; fmt_bits r.bits; int loc;
        Printf.sprintf "%.0f" (128.0 /. sqrt (float_of_int r.h)) ])
    r2;
  fit_line "bits exponent in h at fixed n (paper: ~-1.5)"
    (fun (r : run) -> r.h) (List.map fst r2);
  List.map fst (r1 @ r2)

(* ------------------------------------------------------------------ *)
(* E4 — Theorem 3: lower bound via the isolation attack                *)
(* ------------------------------------------------------------------ *)

(* One Monte Carlo batch per (h, degree, trials) point. *)
let e4_attack =
  let points trials =
    List.concat_map (fun h -> List.map (fun d -> (h, d, trials)) [ 1; 2; 4; 8; 16; 32 ]) [ 4; 12 ]
  in
  sweep "isolation attack at n=96: (h, degree, trials)" triple ~full:(points 400, points 80)

let e4 tier =
  section "E4  Theorem 3: Omega(n^2/h) bits / Omega(n/h) locality are necessary";
  let n = 96 in
  Printf.printf
    "paper: any protocol where some party talks to < n/8(h-1) peers admits an\n\
     adversary that isolates it and forces disagreement WITHOUT abort.\n\
     strawman: d-local gossip broadcast without verification; sweep d.\n\n";
  let rates =
    rows tier e4_attack (fun _ (h, degree, trials) ->
        ( (h, degree),
          Mpc.Lower_bound.measure (prng (n + h + degree)) ~n ~h ~degree ~trials
            ~victim_is_sender:false ))
  in
  List.iter
    (fun h ->
      Printf.printf "n = %d, h = %d, threshold n/8(h-1) = %.1f\n" n h
        (Mpc.Lower_bound.threshold ~n ~h);
      table [ "degree"; "isolation rate"; "attack success"; "analytic isolation" ]
        (fun ((_, degree), (r : Mpc.Lower_bound.rates)) ->
          [ int degree; Analysis.Table.fmt_prob r.isolation_rate;
            Analysis.Table.fmt_prob r.success_rate;
            Analysis.Table.fmt_prob
              (Mpc.Lower_bound.isolation_probability_bound ~n ~h ~degree:(2 * degree)) ])
        (List.filter (fun ((h', _), _) -> h' = h) rates);
      print_newline ())
    (List.sort_uniq compare (List.map (fun ((h, _), _) -> h) rates));
  Printf.printf "shape check: success is constant below the threshold and dies above it.\n";
  []

(* ------------------------------------------------------------------ *)
(* E5 — Lemma 5: succinct equality testing                             *)
(* ------------------------------------------------------------------ *)

let e5_lambda =
  sweep "soundness: lambda, 1000 near-equal pairs at n=64" int ~full:(same [ 2; 4; 8 ])

let e5_len =
  sweep "bits vs message bytes (lambda=8, n=64)" int
    ~full:(same [ 100; 1_000; 10_000; 100_000; 1_000_000 ])

let e5 tier =
  section "E5  Lemma 5: equality testing with O(lambda log n) bits";
  Printf.printf "paper: detect m1 <> m2 w.p. >= 1 - n^-lambda with O(lambda log n) bits\n\n";
  let soundness =
    rows tier e5_lambda (fun _ lambda ->
        let n = 64 in
        let params = Mpc.Params.make ~n ~h:32 ~lambda ~alpha:2 () in
        let rng = prng lambda in
        let net = Netsim.Net.create 2 in
        let trials = 1000 in
        let fa = ref 0 in
        for _ = 1 to trials do
          let len = 64 + Util.Prng.int rng 192 in
          let m1 = Util.Prng.bytes rng len in
          let m2 = Bytes.copy m1 in
          let pos = Util.Prng.int rng len in
          Bytes.set m2 pos (Char.chr (Char.code (Bytes.get m2 pos) lxor 0x5A));
          let f1, _ = Mpc.Equality.run net rng params ~p1:0 ~p2:1 ~m1 ~m2 in
          if f1 then incr fa
        done;
        let _, hi = Util.Stats.binomial_ci ~successes:!fa ~trials in
        (lambda, !fa, hi, float_of_int n ** float_of_int (-lambda)))
  in
  table ~title:"soundness (1000 near-equal pairs each)"
    [ "lambda"; "false accepts"; "95% CI upper"; "paper bound n^-lambda" ]
    (fun (lambda, fa, hi, bound) ->
      [ int lambda; int fa; Analysis.Table.fmt_prob hi; Printf.sprintf "%.2e" bound ])
    soundness;
  print_newline ();
  let params = Mpc.Params.make ~n:64 ~h:32 ~lambda:8 ~alpha:2 () in
  let comm =
    rows tier e5_len (fun _ len ->
        let rng = prng len in
        let net = Netsim.Net.create 2 in
        let m = Util.Prng.bytes rng len in
        ignore (Mpc.Equality.run net rng params ~p1:0 ~p2:1 ~m1:m ~m2:(Bytes.copy m));
        (len, Netsim.Net.total_bits net))
  in
  table ~title:"communication vs message size (lambda=8, n=64)"
    [ "message bytes"; "bits exchanged" ]
    (fun (len, bits) -> [ int len; int bits ])
    comm;
  Printf.printf "shape check: bits grow (sub-)logarithmically in |m|, never linearly.\n";
  []

(* ------------------------------------------------------------------ *)
(* E6 — Claims 12/14: committee election                               *)
(* ------------------------------------------------------------------ *)

let e6_trials =
  sweep "k-trial total: (n, h, trials)" triple
    ~full:
      ( with_trials 20 [ (64, 16); (128, 32); (256, 64); (512, 128) ],
        with_trials 5 [ (64, 16); (128, 32); (256, 64) ] )

(* Under --async: one honest election per (n, h) on the event transport.
   Single-trial — the point is the rounds-vs-closed-form delta, not
   abort statistics. *)
let e6_single =
  sweep "single-trial" pair ~async:([ (64, 16); (128, 32); (256, 64) ], [ (64, 16); (128, 32) ])

let e6 tier =
  section "E6  Claims 12 & 14: CommitteeElect";
  Printf.printf
    "paper: O~(n^2/h) bits; w.h.p. >= 1 honest member, consistent views,\n\
     |C| <= 2pn, and honest runs abort with negligible probability.\n\n";
  (* One job per (n, h) row: the trials share an RNG stream, so they stay
     sequential inside the job and the row totals are seed-deterministic. *)
  let rs =
    rows tier e6_trials (fun c (n, h, trials) ->
        let rng0 = prng (n * h) in
        let size = ref 0 and member_ok = ref 0 and consistent = ref 0 and aborts = ref 0 in
        let run =
          trial_total ~experiment:"E6" ~series:(Printf.sprintf "%d-trial total" trials) ~n ~h
            ~trials (fun seed ->
              let corruption = Netsim.Corruption.random rng0 ~n ~h in
              let net, rng = open_net c ~seed n in
              let outs, chk = Catalogue.committee c net rng ~h ~corruption in
              if Mpc.Outcome.some_honest_aborted outs corruption then incr aborts;
              (match Mpc.Committee.consistent_committee outs corruption with
              | Some cm ->
                incr consistent;
                size := !size + List.length cm;
                if List.exists (Netsim.Corruption.is_honest corruption) cm then incr member_ok
              | None -> ());
              (counts net, chk.totals))
        in
        let bound = Mpc.Params.committee_bound (Mpc.Params.make ~n ~h ~lambda:8 ~alpha:2 ()) in
        (run, (trials, !size, !consistent, !member_ok, !aborts, bound)))
  in
  let frac k trials = Printf.sprintf "%d/%d" k trials in
  table
    ~title:
      (Printf.sprintf "%d trials per row (random corruption, honest behavior)"
         (match rs with (_, (t, _, _, _, _, _)) :: _ -> t | [] -> 0))
    [ "n"; "h"; "bits"; "E[|C|]"; "bound 2pn"; "honest member"; "consistent"; "aborts" ]
    (fun ((r : run), (trials, size, consistent, member_ok, aborts, bound)) ->
      [ int r.n; int r.h; fmt_bits (r.bits / trials); int (size / max 1 consistent); int bound;
        frac member_ok trials; frac consistent trials; frac aborts trials ])
    rs;
  List.map fst rs
  @ async_rows tier e6_single
      ~title:"E6  (--async) CommitteeElect on the adversarial event transport"
      (fun c (n, h) ->
        let net, rng = open_net c ~seed:(n * h) n in
        let outs, r =
          measure net ~experiment:"E6" ~series:e6_single.series ~h (fun () ->
              Catalogue.committee c net rng ~h ~corruption:(Netsim.Corruption.none ~n))
        in
        assert (Array.length outs = n);
        [ r ])

(* ------------------------------------------------------------------ *)
(* E7 — Claim 20: the sparse routing network                           *)
(* ------------------------------------------------------------------ *)

let e7_trials =
  sweep "k-trial total, alpha = 3: (n, h, trials)" triple
    ~full:
      ( with_trials 20 [ (64, 16); (128, 32); (256, 64); (512, 256) ],
        with_trials 5 [ (64, 16); (128, 32); (256, 64) ] )

let e7_streamed =
  sweep "giant k-trial total, alpha = 2, streamed outcomes: (n, h, trials)" triple
    ~giant:
      ( [ (10_000, 2_500, 2); (100_000, 50_000, 1); (1_000_000, 1_000_000, 1) ],
        [ (10_000, 2_500, 1) ] )

(* Full-scale trials: the catalogue run keeps every party's outcome,
   which the connectivity BFS walks. *)
let e7_point c (n, h, trials) =
  let rng0 = prng (7 * n) in
  let connected = ref 0 and aborts = ref 0 and maxdeg = ref 0 in
  let run =
    trial_total ~experiment:"E7" ~series:(Printf.sprintf "%d-trial total" trials) ~n ~h ~trials
      (fun seed ->
        let corruption = Netsim.Corruption.random rng0 ~n ~h in
        let net, rng = open_net c ~seed n in
        let outs, chk = Catalogue.sparse c net rng ~h ~alpha:3 ~corruption in
        maxdeg := max !maxdeg (Mpc.Sparse_network.max_degree outs);
        if Mpc.Sparse_network.honest_subgraph_connected outs corruption then incr connected;
        if
          List.exists
            (fun i -> Mpc.Outcome.is_abort outs.(i))
            (Netsim.Corruption.honest_list corruption)
        then incr aborts;
        (counts net, chk.totals))
  in
  let d = Mpc.Params.sparse_degree (Mpc.Params.make ~n ~h ~lambda:8 ~alpha:3 ()) in
  (run, (trials, !connected, !aborts, !maxdeg, d))

(* Giant-scale trials exercise the network's O(activity) memory shape:
   [Net] allocates party state on first touch with peer tables sized to
   each party's degree, [Sparse_network.run_iter] streams outcomes so the
   n-element [Iset] array (gigabytes at n = 10⁶) is never materialized,
   and connectivity is decided by a streaming union-find over the same
   edge set the full-scale BFS walks.  Honest hop relations are symmetric
   (i samples j ⟹ i notifies j ⟹ i ∈ outs(j) unless j aborted), so
   unioning each undirected edge at its higher-id endpoint — by which
   time the lower endpoint's abort status is known — yields the BFS
   verdict exactly; test_net_sparse checks the two against each other. *)
let e7_streamed_point c (n, h, trials) =
  let params = Mpc.Params.make ~n ~h ~lambda:8 ~alpha:2 () in
  let rng0 = prng (7 * n) in
  let connected = ref 0 and aborts = ref 0 and maxdeg = ref 0 in
  let run =
    trial_total ~experiment:"E7" ~series:(Printf.sprintf "giant %d-trial total" trials) ~n ~h
      ~trials (fun seed ->
        let corruption = Netsim.Corruption.random rng0 ~n ~h in
        let net, rng = open_net c ~seed n in
        (* Union-find scaffolding: one int per party plus an abort byte —
           9n bytes, versus the n Iset outcomes the full-scale path
           retains. *)
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
        let aborted = Bytes.make n '\000' in
        let honest_abort = ref false in
        let first_active = ref (-1) in
        Mpc.Sparse_network.run_iter net rng params ~corruption ~adv:Mpc.Sparse_network.honest_adv
          ~f:(fun i out ->
            match out with
            | Mpc.Outcome.Abort _ ->
              Bytes.set aborted i '\001';
              if Netsim.Corruption.is_honest corruption i then honest_abort := true
            | Mpc.Outcome.Output s ->
              maxdeg := max !maxdeg (Util.Iset.cardinal s);
              if Netsim.Corruption.is_honest corruption i then begin
                if !first_active < 0 then first_active := i;
                Util.Iset.iter
                  (fun j ->
                    if
                      j < i
                      && Netsim.Corruption.is_honest corruption j
                      && Bytes.get aborted j = '\000'
                    then begin
                      let ri = find i and rj = find j in
                      if ri <> rj then parent.(ri) <- rj
                    end)
                  s
              end);
        let chk = verify c (Catalogue.sparse_spec ~n ~h ~alpha:2) net in
        let all_connected = ref true in
        if !first_active >= 0 then begin
          let root = find !first_active in
          for i = 0 to n - 1 do
            if
              Netsim.Corruption.is_honest corruption i
              && Bytes.get aborted i = '\000'
              && find i <> root
            then all_connected := false
          done
        end;
        if !all_connected then incr connected;
        if !honest_abort then incr aborts;
        (counts net, chk.totals))
  in
  (run, (trials, !connected, !aborts, !maxdeg, Mpc.Params.sparse_degree params))

let e7 tier =
  let giant = tier.scale = Giant in
  if giant then begin
    section "E7  (giant tier) SparseNetwork with O(activity) memory, n up to 10^6";
    Printf.printf
      "same protocol as the full tier: network party state is allocated on\n\
       first touch and outcomes stream through run_iter, so n = 10^5\n\
       fits comfortably under 2 GB peak RSS and n = 10^6 completes.\n\n"
  end
  else begin
    section "E7  Claim 20: SparseNetwork degree bound and honest connectivity";
    Printf.printf "paper: max degree O(alpha n log n / h); honest subgraph connected w.h.p.\n\n"
  end;
  let rs = rows tier e7_trials e7_point @ rows tier e7_streamed e7_streamed_point in
  let frac k trials = Printf.sprintf "%d/%d" k trials in
  table
    ~title:
      (match rs with
      | _ when giant -> "O(activity) network, alpha = 2"
      | (_, (t, _, _, _, _)) :: _ -> Printf.sprintf "%d trials per row" t
      | [] -> "")
    ([ "n"; "h"; "d"; "max degree"; "cap 3d"; "connected"; "honest aborts" ]
    @ if giant then [ "wall s"; "peak rss" ] else [])
    (fun ((r : run), (trials, connected, aborts, maxdeg, d)) ->
      [ int r.n; int r.h; int d; int maxdeg; int (3 * d); frac connected trials;
        frac aborts trials ]
      @
      if giant then
        [ wall_s r; (match r.peak_rss_mb with Some mb -> Printf.sprintf "%.0fMB" mb | None -> "-") ]
      else [])
    rs;
  List.map fst rs

(* ------------------------------------------------------------------ *)
(* E8 — Claim 23: the covering claim                                   *)
(* ------------------------------------------------------------------ *)

let e8_cover =
  sweep "covering Monte Carlo, alpha = 2: (n, h, trials)" triple
    ~full:
      ( with_trials 50 [ (64, 32); (128, 64); (256, 128); (512, 256) ],
        with_trials 20 [ (64, 32); (128, 64); (256, 128); (512, 256) ] )
    ~giant:
      ( [ (10_000, 2_500, 3); (100_000, 50_000, 2); (1_000_000, 1_000_000, 1) ],
        [ (10_000, 2_500, 1) ] )

(* Committee sampled Bernoulli(alpha log n / sqrt h), half the parties
   honest, each honest member covering s = n/sqrt(h) parties.  E8 is
   network-free Monte Carlo, so its records carry zero accounting against
   the zero spec; only the giant rows are reported, to pin the sweep's
   wall time and peak RSS in the committed giant baseline. *)
let e8_point _ (n, h, trials) =
  let params = Mpc.Params.make ~n ~h ~lambda:8 ~alpha:2 () in
  let s = Mpc.Params.cover_size params in
  let p = Mpc.Params.local_committee_prob params in
  let rng = prng (n + h) in
  let covered_all = ref 0 and members = ref 0 in
  let run =
    trial_total ~experiment:"E8" ~series:(Printf.sprintf "giant %d-trial total (no net)" trials)
      ~n ~h ~trials (fun _ ->
        let committee = Util.Prng.subset_bernoulli rng ~n ~p in
        let honest_members = List.filter (fun c -> c mod 2 = 0) committee in
        members := !members + List.length honest_members;
        let covered = Bytes.make n '\000' in
        List.iter
          (fun _c ->
            List.iter
              (fun i -> Bytes.set covered i '\001')
              (Util.Prng.sample_without_replacement rng ~n ~k:s))
          honest_members;
        if not (Bytes.contains covered '\000') then incr covered_all;
        ((0, 0, 0), zero_totals))
  in
  (run, (s, trials, !members, !covered_all))

let e8 tier =
  let giant = tier.scale = Giant in
  if giant then begin
    section "E8  (giant tier) covering Monte Carlo at n up to 10^6";
    Printf.printf
      "same covering experiment as the full tier at n = 10^4..10^6: committee\n\
       sampled Bernoulli(alpha log n / sqrt h), each honest member covers\n\
       s = n/sqrt(h) parties.\n\n"
  end
  else begin
    section "E8  Claim 23: every party is covered by an honest committee member";
    Printf.printf
      "paper: with |C and H| >= alpha sqrt(h) log n / 2 honest members and\n\
       |S_c| = n/sqrt(h), every party is in some honest member's cover w.p.\n\
       1 - n^-Omega(alpha).  Monte Carlo over the protocol's own randomness,\n\
       with half the parties honest.\n\n"
  end;
  let rs = rows tier e8_cover e8_point in
  table
    ~title:
      (match rs with
      | _ when giant -> "giant covering sweep, alpha = 2"
      | (_, (_, t, _, _)) :: _ -> Printf.sprintf "%d trials per row" t
      | [] -> "")
    ([ "n"; "h"; "s = n/sqrt h"; "E[|C and H|]"; "all covered" ]
    @ if giant then [ "wall s" ] else [])
    (fun ((r : run), (s, trials, members, covered_all)) ->
      [ int r.n; int r.h; int s; int (members / trials); Printf.sprintf "%d/%d" covered_all trials ]
      @ if giant then [ wall_s r ] else [])
    rs;
  if giant then List.map fst rs else []

(* ------------------------------------------------------------------ *)
(* E9 — §2.1 baseline: GL05 O(n³) vs fingerprinted Õ(n²)               *)
(* ------------------------------------------------------------------ *)

let e9_pairs =
  sweep "naive vs fingerprinted, 512B inputs" int ~full:(same [ 8; 16; 32; 48 ])
    ~async:(same [ 8; 16; 32 ])

(* 64-byte inputs keep one round's in-flight traffic in memory at
   n = 2048; naive is O(n^3 l) and capped at n <= 128. *)
let e9_naive = sweep "naive 64B" int ~huge:([ 64; 128 ], [ 64 ])
let e9_fp = sweep "fingerprinted 64B" int ~huge:([ 256; 512; 1024; 2048 ], [ 1024 ])

(* One honest all-to-all over [len]-byte inputs, h = n/2. *)
let a2a_point ~len ~series variant c n =
  let net, rng = open_net c ~seed:n n in
  let input i = Crypto.Kdf.expand ~key:(Bytes.of_string (string_of_int i)) ~info:"e9" len in
  let outs, r =
    measure net ~experiment:"E9" ~series ~h:(n / 2) (fun () ->
        Catalogue.a2a c net rng ~variant ~len ~input)
  in
  assert (List.for_all (fun (_, o) -> Mpc.Outcome.is_output o) outs);
  r

let e9 tier =
  let pair c n =
    ( a2a_point ~len:512 ~series:"naive 512B" Mpc.All_to_all.Naive c n,
      a2a_point ~len:512 ~series:"fingerprinted 512B" Mpc.All_to_all.Fingerprinted c n )
  in
  if tier.scale = Huge then begin
    section "E9  (huge tier) all-to-all broadcast at n up to 2048";
    Printf.printf
      "64-byte inputs keep one round's in-flight traffic in memory at\n\
       n = 2048.  naive is O(n^3 l) and capped at n <= 128 — the cap is the\n\
       point: past it only the fingerprinted protocol is feasible.\n\n";
    let rs =
      rows tier e9_naive (a2a_point ~len:64 ~series:e9_naive.series Mpc.All_to_all.Naive)
      @ rows tier e9_fp (a2a_point ~len:64 ~series:e9_fp.series Mpc.All_to_all.Fingerprinted)
    in
    table ~title:"64-byte inputs, honest runs" [ "series"; "n"; "bits"; "wall ms" ]
      (fun (r : run) -> [ r.series; int r.n; fmt_bits r.bits; wall_ms r ])
      rs;
    rs
  end
  else begin
    section "E9  Sec 2.1: all-to-all broadcast, naive O(n^3 l) vs fingerprinted O~(n^2)";
    Printf.printf "paper: the fingerprint optimization shaves a factor n off GL05.\n\n";
    let pairs = rows tier e9_pairs pair in
    let ratio (naive : run) (fp : run) = float_of_int naive.bits /. float_of_int fp.bits in
    table ~title:"512-byte inputs, honest run"
      [ "n"; "naive bits"; "fingerprinted bits"; "speedup" ]
      (fun ((naive : run), (fp : run)) ->
        [ int naive.n; fmt_bits naive.bits; fmt_bits fp.bits;
          Analysis.Table.fmt_ratio (ratio naive fp) ])
      pairs;
    let slope, _, _ =
      Util.Stats.linear_fit
        (List.rev_map (fun ((naive : run), fp) -> (float_of_int naive.n, ratio naive fp)) pairs)
    in
    Printf.printf "speedup grows linearly in n (slope %.2f per party) — the factor-n win.\n"
      slope;
    let flat (naive, fp) = [ naive; fp ] in
    List.concat_map flat pairs
    @ async_rows tier e9_pairs
        ~title:"E9  (--async) all-to-all broadcast on the adversarial event transport"
        (fun c n -> flat (pair c n))
  end

(* ------------------------------------------------------------------ *)
(* E10 — Equation (1): phase decomposition of Algorithm 8              *)
(* ------------------------------------------------------------------ *)

let e10_cover = sweep "cover s at n=96, h=25" int ~full:([ 1; 2; 5; 19; 38; 96 ], [ 2; 5; 19; 38 ])

let e10 tier =
  section "E10  Equation (1): Algorithm 8 phase balance";
  Printf.printf
    "paper: cost = O(|C| d n) election + O~(|C|^2 s) interaction + O~(|C|^2)\n\
     computation, balanced at |C| = s = O~(n/sqrt h).  We sweep the cover\n\
     size s around the optimum n/sqrt(h) at fixed (n, h).\n\n";
  let n = 96 and h = 25 in
  let rs =
    rows tier e10_cover (fun c s ->
        let net, rng = open_net c ~seed:(100 + s) n in
        (* Small covers abort on purpose: the row counts them. *)
        let (outs, costs), r =
          measure net ~experiment:"E10" ~series:(Printf.sprintf "cover s=%d" s) ~h (fun () ->
              Catalogue.thm4 ~cover_size:s c net rng ~h ~alpha:1 ~pke:(sim_pke 10)
                ~circuit:(Circuit.parity ~n) ~inputs:(alternating n))
        in
        let aborts =
          Array.fold_left (fun a o -> a + if Mpc.Outcome.is_abort o then 1 else 0) 0 outs
        in
        (r, (s, costs, aborts)))
  in
  let params = Mpc.Params.make ~n ~h ~lambda:8 ~alpha:1 () in
  table
    ~title:
      (Printf.sprintf "n = %d, h = %d, optimum s = n/sqrt(h) = %d" n h
         (Mpc.Params.cover_size params))
    [ "s"; "election"; "cover+out"; "exchange"; "equality"; "compute"; "total"; "aborts" ]
    (fun ((r : run), (s, (costs : Mpc.Local_mpc.theorem4_costs), aborts)) ->
      [ int s; fmt_bits costs.election_bits; fmt_bits (costs.cover_bits + costs.output_bits);
        fmt_bits costs.exchange_bits; fmt_bits costs.equality_bits;
        fmt_bits (costs.keygen_bits + costs.compute_bits); fmt_bits r.bits; int aborts ])
    rs;
  Printf.printf
    "shape check: small s under-covers (aborts); large s inflates the exchange\n\
     term |C|^2 s; the optimum sits near n/sqrt(h) with zero aborts.\n";
  List.map fst rs

(* ------------------------------------------------------------------ *)
(* E11 — round complexity                                              *)
(* ------------------------------------------------------------------ *)

(* One honest run per protocol at n = 48, h = 24: (name, seed, run). *)
let e11_protocols =
  let n = 48 and h = 24 in
  let zeros () = Array.make n 0 and circuit () = Circuit.parity ~n in
  let ignore_outs f c net rng = snd (f c net rng) in
  [
    ( "single-source broadcast (naive)", 1,
      ignore_outs (fun c net rng -> Catalogue.broadcast c net rng ~variant:Mpc.Broadcast.Naive) );
    ( "single-source broadcast (fingerprinted)", 2,
      ignore_outs (fun c net rng ->
          Catalogue.broadcast c net rng ~variant:Mpc.Broadcast.Fingerprinted) );
    ( "all-to-all broadcast (fingerprinted)", 3,
      ignore_outs (fun c net rng ->
          Catalogue.a2a c net rng ~variant:Mpc.All_to_all.Fingerprinted ~len:64 ~input:(fun i ->
              Bytes.make 64 (Char.chr (65 + (i mod 26))))) );
    ( "committee election (Alg 2)", 4,
      ignore_outs (fun c net rng ->
          Catalogue.committee c net rng ~h ~corruption:(Netsim.Corruption.none ~n)) );
    ( "MPC with abort (Alg 3, Thm 1)", 5,
      ignore_outs (fun c net rng ->
          Catalogue.alg3 c net rng ~h ~pke:(sim_pke 11) ~circuit:(circuit ()) ~input_width:1
            ~inputs:(zeros ())) );
    ( "gossip MPC (Thm 2)", 6,
      ignore_outs (fun c net rng ->
          Catalogue.thm2 c net rng ~h ~pke:(sim_pke 12) ~circuit:(circuit ()) ~inputs:(zeros ())) );
    ( "local MPC (Alg 8, Thm 4)", 7,
      ignore_outs (fun c net rng ->
          Catalogue.thm4 c net rng ~h ~alpha:2 ~pke:(sim_pke 13) ~circuit:(circuit ())
            ~inputs:(zeros ())) );
  ]

let e11_sweep =
  sweep "one honest run per protocol" (fun (name, _, _) -> name) ~full:(same e11_protocols)

let e11 tier =
  section "E11  Round complexity of the protocols (GL05 comparison)";
  let n = 48 and h = 24 in
  let rs =
    rows tier e11_sweep (fun c (series, seed, run) ->
        let net, rng = open_net c ~seed n in
        let (), r = measure net ~experiment:"E11" ~series ~h (fun () -> ((), run c net rng)) in
        (r, Netsim.Net.max_locality net))
  in
  table
    ~title:(Printf.sprintf "n = %d, h = %d, honest runs" n h)
    [ "protocol"; "rounds"; "bits"; "max locality" ]
    (fun ((r : run), loc) -> [ r.series; int r.rounds; fmt_bits r.bits; int loc ])
    rs;
  Printf.printf "constant round counts, as in GL05 (locality protocols add gossip rounds).\n";
  List.map fst rs

(* ------------------------------------------------------------------ *)
(* E12 — crypto substrate microbenchmarks (bechamel)                   *)
(* ------------------------------------------------------------------ *)

let e12_primitives =
  sweep "bechamel ns/op per primitive" Fun.id
    ~full:
      (same
         [ "sha256-64B"; "sha256-4KB"; "hmac-64B"; "regev-encrypt-1B"; "regev-decrypt-1B";
           "fingerprint-residue-4KB"; "shamir-share-3of5-64B"; "ske-encrypt-64B";
           "ske-decrypt-64B"; "lamport-verify-64B" ])

let e12 tier =
  section "E12  Crypto substrate microbenchmarks (Bechamel, ns/op)";
  let rng = prng 99 in
  let data64 = Util.Prng.bytes rng 64 in
  let data4k = Util.Prng.bytes rng 4096 in
  let key = Util.Prng.bytes rng 32 in
  let lwe_pk, lwe_sk = Crypto.Lwe.keygen rng in
  let ct1 = Crypto.Lwe.encrypt_bytes rng lwe_pk (Bytes.make 1 'x') in
  let prime = Field.Primality.random_prime_bits rng ~bits:29 in
  let ske_key = Crypto.Ske.keygen rng in
  let ske_ct = Crypto.Ske.encrypt rng ske_key data64 in
  let lamport_sk, lamport_pk = Crypto.Lamport.keygen ~seed:key in
  let lamport_sig = Crypto.Lamport.sign lamport_sk data64 in
  let shamir_rng = Util.Prng.copy rng in
  let stage name =
    let open Bechamel.Staged in
    match name with
    | "sha256-64B" -> stage (fun () -> ignore (Crypto.Sha256.digest data64))
    | "sha256-4KB" -> stage (fun () -> ignore (Crypto.Sha256.digest data4k))
    | "hmac-64B" -> stage (fun () -> ignore (Crypto.Hmac.mac ~key data64))
    | "regev-encrypt-1B" ->
      stage (fun () -> ignore (Crypto.Lwe.encrypt_bytes rng lwe_pk (Bytes.make 1 'x')))
    | "regev-decrypt-1B" -> stage (fun () -> ignore (Crypto.Lwe.decrypt_bytes lwe_sk ct1))
    | "fingerprint-residue-4KB" ->
      stage (fun () -> ignore (Crypto.Fingerprint.residue data4k prime))
    | "shamir-share-3of5-64B" ->
      stage (fun () ->
          ignore
            (Crypto.Secret_sharing.share_bytes_shamir shamir_rng ~threshold:3 ~parties:5 data64))
    | "ske-encrypt-64B" -> stage (fun () -> ignore (Crypto.Ske.encrypt rng ske_key data64))
    | "ske-decrypt-64B" -> stage (fun () -> ignore (Crypto.Ske.decrypt ske_key ske_ct))
    | "lamport-verify-64B" ->
      stage (fun () -> ignore (Crypto.Lamport.verify lamport_pk data64 lamport_sig))
    | _ -> invalid_arg name
  in
  let tests =
    List.map
      (fun name -> Bechamel.Test.make ~name (stage name))
      (points tier (At Full) e12_primitives)
  in
  table [ "primitive"; "ns/op" ]
    (fun (name, est) -> [ name; Printf.sprintf "%.0f" est ])
    (bechamel tier ~group:"crypto" tests);
  []

(* ------------------------------------------------------------------ *)
(* E13 — baseline crossover: GMW vs Algorithm 3                        *)
(* ------------------------------------------------------------------ *)

let e13_pairs =
  sweep "gmw vs alg3 majority h=n/4" int
    ~full:([ 16; 32; 64; 128; 256; 384 ], [ 16; 32; 64; 128 ])

(* GMW's Theta(n^2)-per-gate traffic is capped at n <= 384. *)
let e13_gmw = sweep "gmw majority" int ~huge:([ 384 ], [ 128 ])
let e13_alg3 = sweep "alg3 majority h=n/4" int ~huge:([ 512; 1024; 2048 ], [ 512 ])

let e13_gmw_point c n =
  let net, rng = open_net c ~seed:n n in
  snd
    (measure net ~experiment:"E13" ~series:e13_gmw.series ~h:0 (fun () ->
         Catalogue.gmw c net rng ~circuit:(Circuit.majority ~n) ~inputs:(alternating n)))

let e13_alg3_point c n =
  let net, rng = open_net c ~seed:(n + 1) n in
  snd
    (measure net ~experiment:"E13" ~series:e13_alg3.series ~h:(n / 4) (fun () ->
         Catalogue.alg3 c net rng ~h:(n / 4) ~pke:(sim_pke n) ~circuit:(Circuit.majority ~n)
           ~input_width:1 ~inputs:(alternating n)))

let e13 tier =
  if tier.scale = Huge then begin
    section "E13  (huge tier) GMW vs Algorithm 3 deep past the crossover";
    Printf.printf
      "GMW's Theta(n^2)-per-gate traffic is capped at n <= 384 (tens of\n\
       seconds of simulated all-to-all openings beyond); Algorithm 3\n\
       continues to n = 2048 where committee delegation wins outright.\n\n";
    let rs = rows tier e13_gmw e13_gmw_point @ rows tier e13_alg3 e13_alg3_point in
    table ~title:"honest runs, h = n/4 for Alg 3" [ "series"; "n"; "bits"; "wall ms" ]
      (fun (r : run) -> [ r.series; int r.n; fmt_bits r.bits; wall_ms r ])
      rs;
    rs
  end
  else begin
    section "E13  Baseline: generic GMW vs the committee protocol (Algorithm 3)";
    Printf.printf
      "the intro's motivation: generic point-to-point MPC pays Theta(n^2) per\n\
       multiplicative gate (every Beaver opening is an all-to-all exchange),\n\
       while Algorithm 3 delegates to a committee and pays O~(n^2/h) total.\n\
       f = majority(n), so the gate count itself grows with n.\n\n";
    let rs =
      rows tier e13_pairs (fun c n ->
          let gmw = e13_gmw_point c n in
          (gmw, e13_alg3_point c n, Mpc.Gmw.triples_used ~circuit:(Circuit.majority ~n)))
    in
    table ~title:"honest runs, h = n/4 for Alg 3"
      [ "n"; "AND gates"; "GMW bits"; "Alg 3 bits"; "winner" ]
      (fun ((gmw : run), (alg3 : run), gates) ->
        let ratio a b = float_of_int a /. float_of_int b in
        [ int gmw.n; int gates; fmt_bits gmw.bits; fmt_bits alg3.bits;
          (if gmw.bits < alg3.bits then Printf.sprintf "GMW %.1fx" (ratio alg3.bits gmw.bits)
           else Printf.sprintf "Alg3 %.1fx" (ratio gmw.bits alg3.bits)) ])
      rs;
    Printf.printf
      "shape check: GMW wins at small n (tiny constants), Algorithm 3 overtakes\n\
       as n grows — the crossover the paper's committee delegation buys.\n\
       GMW also gives no abort guarantee against active adversaries (see\n\
       test_gmw's share-flip attack), unlike every protocol in this library.\n";
    List.concat_map (fun (gmw, alg3, _) -> [ gmw; alg3 ]) rs
  end

(* ------------------------------------------------------------------ *)
(* E14 — Remark 10: poly(lambda, D) vs poly(lambda, C)                 *)
(* ------------------------------------------------------------------ *)

let e14_widths = sweep "sum of two w-bit words at n=2: w" int ~full:(same [ 2; 4; 8 ])

let e14 tier =
  section "E14  Remark 10: LWE/depth-based vs OT/size-based instantiation";
  Printf.printf
    "paper: replacing the LWE-based Theorem 9 machinery by two-round OT +\n\
     garbled circuits weakens the assumption but the broadcast payload\n\
     grows with circuit SIZE C instead of depth D.  Left: the Theorem 9\n\
     round-1 payload under both polynomials.  Right: a concrete n = 2 data\n\
     point — our real Yao+LWE-OT protocol vs Algorithm 3 at n = 2.\n\n";
  table ~title:"Theorem 9 round-1 bytes per party (lambda = 8, 8-bit inputs)"
    [ "f"; "D"; "C"; "poly(l,D) bytes"; "poly(l,C) bytes"; "ratio" ]
    (fun (name, circuit) ->
      let d = Circuit.depth circuit and c = Circuit.size circuit in
      let by_depth = Mpc.Cost_model.round1_bytes ~lambda:8 ~depth:d ~input_bits:8 in
      let by_size = Mpc.Cost_model.round1_bytes ~lambda:8 ~depth:c ~input_bits:8 in
      [ name; int d; int c; int by_depth; int by_size;
        Analysis.Table.fmt_ratio (float_of_int by_size /. float_of_int by_depth) ])
    [
      ("parity(64)", Circuit.parity ~n:64);
      ("majority(64)", Circuit.majority ~n:64);
      ("sum(16, w=8)", Circuit.sum ~n:16 ~width:8);
      ("auction(16, w=8)", Circuit.second_price_auction ~n:16 ~width:8);
    ];
  print_newline ();
  (* Yao and Alg 3 share one RNG stream per width (Alg 3's randomness
     continues where Yao's stopped), so both stay in a single job. *)
  let rs =
    rows tier e14_widths (fun c width ->
        let circuit = Circuit.sum ~n:2 ~width in
        let rng = prng width in
        let point series f =
          let net = Netsim.Net.create 2 in
          snd
            (measure net ~experiment:"E14" ~series:(Printf.sprintf "%s w=%d" series width) ~h:1
               (fun () -> f net))
        in
        let yao =
          point "yao" (fun net ->
              Catalogue.two_party c net rng ~circuit ~input_width:width ~x0:1 ~x1:2)
        in
        let alg3 =
          point "alg3" (fun net ->
              Catalogue.alg3 c net rng ~h:1 ~pke:(module Crypto.Pke.Regev : Crypto.Pke.S)
                ~circuit ~input_width:width ~inputs:[| 1; 2 |])
        in
        (width, yao, alg3))
  in
  table ~title:"concrete n = 2: sum of two w-bit words, measured bits"
    [ "w"; "Yao + LWE-OT (Remark 10)"; "Alg 3 (n=2, h=1)" ]
    (fun (width, (yao : run), (alg3 : run)) -> [ int width; fmt_bits yao.bits; fmt_bits alg3.bits ])
    rs;
  Printf.printf
    "shape check: the size/depth gap is mild for shallow circuits and grows\n\
     with C/D — Remark 10's trade is visible and quantified.\n";
  List.concat_map (fun (_, yao, alg3) -> [ yao; alg3 ]) rs

(* ------------------------------------------------------------------ *)
(* pool-micro — Util.Pool.map_jobs dispatch overhead                   *)
(* ------------------------------------------------------------------ *)

let pool_widths = sweep "pool domains, 256 trivial jobs per call" int ~full:(same [ 1; 8; 64 ])

(* Each measurement owns its pool (created and shut down here).  Trivial
   jobs isolate pure scheduling cost — the atomic job-counter claim,
   worker wakeup, and result-slot write per job — which is the overhead
   every [Net.run_round] shard and every full-scale row pays on top of
   its real work. *)
let pool_micro tier =
  section "pool-micro  Util.Pool.map_jobs dispatch overhead (ns/job)";
  let njobs = 256 in
  let jobs = Array.init njobs (fun i -> i) in
  let pools =
    List.map (fun d -> (d, Util.Pool.create ~num_domains:d ())) (points tier (At Full) pool_widths)
  in
  let tests =
    List.map
      (fun (d, p) ->
        Bechamel.Test.make
          ~name:(Printf.sprintf "domains-%02d" d)
          (Bechamel.Staged.stage (fun () -> ignore (Util.Pool.map_jobs p jobs (fun x -> x + 1)))))
      pools
  in
  table
    ~title:(Printf.sprintf "%d trivial jobs per call, caller participates" njobs)
    [ "pool"; "ns/call"; "ns/job" ]
    (fun (name, est) ->
      [ name; Printf.sprintf "%.0f" est; Printf.sprintf "%.1f" (est /. float_of_int njobs) ])
    (bechamel tier ~group:"pool" tests);
  Printf.printf
    "shape check: ns/job grows with pool width on a loaded machine (more\n\
     workers contending for the same counter) — batching per shard, as\n\
     run_round does, is what keeps the overhead amortized.\n";
  List.iter (fun (_, p) -> Util.Pool.shutdown p) pools;
  []

(* ------------------------------------------------------------------ *)
(* fp-micro — single-pass multi-prime fingerprint kernel throughput    *)
(* ------------------------------------------------------------------ *)

let fp_cases =
  let cases sizes ts = List.concat_map (fun s -> List.map (fun t -> (s, t)) ts) sizes in
  sweep "message bytes x primes t: (size, t)" pair
    ~full:(cases [ 64; 4096; 65536; 1048576 ] [ 1; 8; 64 ], cases [ 64; 65536 ] [ 1; 8 ])

(* Byte/prime throughput of the E9 hot-loop kernel: [residues_many] (one
   pass per cache block, all primes per word) against the reference
   per-prime [residue] sweep.  The t = 1 rows pin the kernel's no-win
   floor (one prime has nothing to interleave); the t = 64 rows are where
   the independent division chains overlap and the message is read once
   instead of 64 times. *)
let fp_micro tier =
  section "fp-micro  Fingerprint.residues_many vs per-prime residue";
  let rng = prng 4242 in
  let msgs = Hashtbl.create 4 in
  let cases =
    List.map
      (fun (size, t) ->
        let msg =
          match Hashtbl.find_opt msgs size with
          | Some m -> m
          | None ->
            let m = Util.Prng.bytes rng size in
            Hashtbl.replace msgs size m;
            m
        in
        (size, t, msg, Crypto.Fingerprint.sample_primes rng t))
      (points tier (At Full) fp_cases)
  in
  let name impl size t = Printf.sprintf "%s-%dB-t%02d" impl size t in
  let tests =
    List.concat_map
      (fun (size, t, msg, primes) ->
        [ Bechamel.Test.make ~name:(name "many" size t)
            (Bechamel.Staged.stage (fun () -> Crypto.Fingerprint.residues_many msg primes));
          Bechamel.Test.make ~name:(name "loop" size t)
            (Bechamel.Staged.stage (fun () -> Array.map (Crypto.Fingerprint.residue msg) primes)) ])
      cases
  in
  let est = bechamel tier ~group:"fp" tests in
  table ~title:"throughput = msg bytes x primes / wall" [ "case"; "ns/op"; "MBxprime/s" ]
    (fun (case, size, t) ->
      let e = Option.value (List.assoc_opt case est) ~default:nan in
      [ case; Printf.sprintf "%.0f" e;
        Printf.sprintf "%.0f" (float_of_int (size * t) /. e *. 1000.0) ])
    (List.concat_map
       (fun (size, t, _, _) ->
         List.map (fun impl -> ("fp/" ^ name impl size t, size, t)) [ "many"; "loop" ])
       cases);
  Printf.printf
    "shape check: many/loop converge at t = 1 and diverge as t grows —\n\
     the kernel's win is one message sweep (and overlapped divisions)\n\
     for all t primes, so it scales with t while loop pays t sweeps.\n";
  []

(* ------------------------------------------------------------------ *)
(* cost-audit — symbolic cost specs vs measured accounting             *)
(* ------------------------------------------------------------------ *)

let cost_audit_n = sweep "one honest run per cost spec: n (h = n/2)" int ~full:([ 48 ], [ 16 ])

(* --only cost-audit: one honest execution of every protocol with a cost
   spec; each spec's per-phase breakdown is printed next to the measured
   counters and the totals are asserted — bits within the declared slack,
   messages and rounds exact.  Any mismatch fails the invocation with
   exit 1 (through [cost_mismatch]), which is what CI gates on.  Enc_func
   has no standalone case here because its entry point needs an elected
   committee; its spec is exercised through every pipeline that embeds it
   (Alg 3, Alg 8).  Closes with the extrapolation table: the closed-form
   specs evaluated at n = 10⁴..10⁶ — three orders of magnitude past what
   the simulator executes — at the paper's h regimes. *)
let cost_audit tier =
  section "cost-audit  Symbolic cost specs vs measured accounting";
  let c = lockstep in
  let all_ok = ref true in
  List.iter
    (fun n ->
      let h = n / 2 in
      let params = Mpc.Params.make ~n ~h ~lambda:8 ~alpha:2 () in
      let corruption = Netsim.Corruption.none ~n in
      let open Analysis.Costs in
      (* [case ~seed n f] — run [f] on a fresh [n]-party network. *)
      let case ~seed n f () =
        let net, rng = open_net c ~seed n in
        (net, snd (f net rng))
      in
      let a2a variant net rng =
        Catalogue.a2a c net rng ~variant ~len:64 ~input:(fun i ->
            Bytes.make 64 (Char.chr (65 + (i mod 26))))
      in
      let inputs = alternating n and circuit = Circuit.parity ~n in
      let cases =
        [
          case ~seed:41 2 (fun net rng ->
              let eqp = Mpc.Params.make ~n:64 ~h:32 ~lambda:8 ~alpha:2 () in
              let m = Util.Prng.bytes rng 1024 in
              ignore (Mpc.Equality.run net rng eqp ~p1:0 ~p2:1 ~m1:m ~m2:(Bytes.copy m));
              ( (),
                verify c
                  (Mpc.Equality.cost_spec_run ~n:(Const 64) ~lambda:(Const 8) ~len:(Const 1024))
                  net ));
          case ~seed:42 n (fun net rng ->
              Catalogue.broadcast c net rng ~variant:Mpc.Broadcast.Naive);
          case ~seed:42 n (fun net rng ->
              Catalogue.broadcast c net rng ~variant:Mpc.Broadcast.Fingerprinted);
          case ~seed:43 n (a2a Mpc.All_to_all.Naive);
          case ~seed:43 n (a2a Mpc.All_to_all.Fingerprinted);
          case ~seed:44 n (fun net rng -> Catalogue.sparse c net rng ~h ~alpha:2 ~corruption);
          case ~seed:52 n (fun net rng ->
              (* Standalone gossip over a deterministic degree-4 graph (ring
                 + distance-2 chords): every party hears the rumor, so the
                 spec's max_locality formula (graph_degmax) is exact. *)
              let graph =
                Array.init n (fun i ->
                    Util.Iset.of_list
                      [ (i + 1) mod n; (i + n - 1) mod n; (i + 2) mod n; (i + n - 2) mod n ])
              in
              let obs = Obs.create () in
              ignore
                (Mpc.Gossip.run ~obs net rng params ~graph ~sources:[ (0, Bytes.make 64 'r') ]
                   ~corruption ~adv:Mpc.Gossip.honest_adv);
              ((), verify c ~obs (Mpc.Gossip.cost_spec ~len:(Const 64)) net));
          case ~seed:45 n (fun net rng -> Catalogue.committee c net rng ~h ~corruption);
          case ~seed:46 n (fun net rng ->
              let obs = Obs.create () in
              ignore
                (Mpc.Local_committee.run ~obs net rng params ~corruption
                   ~adv:Mpc.Local_committee.honest_adv);
              ( (),
                verify c ~obs
                  (Mpc.Local_committee.cost_spec ~n:(Const n) ~h:(Const h) ~lambda:(Const 8)
                     ~alpha:(Const 2))
                  net ));
          case ~seed:47 n (fun net rng ->
              Catalogue.alg3 c net rng ~h ~pke:(sim_pke 47) ~circuit ~input_width:1 ~inputs);
          case ~seed:48 n (fun net rng ->
              Catalogue.thm2 c net rng ~h ~pke:(sim_pke 48) ~circuit ~inputs);
          case ~seed:49 n (fun net rng ->
              Catalogue.thm4 c net rng ~h ~alpha:2 ~pke:(sim_pke 49) ~circuit ~inputs);
          case ~seed:50 32 (fun net rng ->
              Catalogue.gmw c net rng ~circuit:(Circuit.majority ~n:32) ~inputs:(alternating 32));
          case ~seed:51 2 (fun net rng ->
              Catalogue.two_party c net rng ~circuit:(Circuit.sum ~n:2 ~width:8) ~input_width:8
                ~x0:3 ~x1:5);
        ]
      in
      List.iter
        (fun case ->
          let net, chk = case () in
          let bits, messages, rounds = counts net in
          Analysis.Table.print (phase_table chk.cenv chk.spec);
          Printf.printf "measured: %d bits, %d messages, %d rounds -> %s\n\n" bits messages rounds
            (if chk.verdict.ok then "OK" else "MISMATCH");
          if not chk.verdict.ok then begin
            all_ok := false;
            List.iter (Printf.printf "  %s\n") chk.verdict.detail
          end)
        cases)
    (points tier (At Full) cost_audit_n);
  Printf.printf "cost-audit: %s\n"
    (if !all_ok then "all specs match the measured accounting" else "MISMATCHES FOUND (exit 1)");
  (* Extrapolation: the closed-form specs evaluated where the simulator
     cannot follow.  The naive all-to-all column stops at n = 10^5: at
     10^6 its O(n^3 l) bit count overflows 63-bit arithmetic — which is
     the paper's point about that baseline.  Pipeline specs (Alg 3,
     Thm 2/4) consume realized observables, so they extrapolate through
     EXPERIMENTS.md's formulas rather than this table. *)
  let open Analysis.Costs in
  let e = env [] in
  let isqrt x = int_of_float (sqrt (float_of_int x)) in
  let bits spec = (totals e spec).bits_hi in
  let a2a np variant =
    bits
      (Mpc.All_to_all.cost_spec ~variant ~k:(Const np) ~idsum:(sum_varint_below (Const np))
         ~len:(Const 64) ~n:(Const np) ~lambda:(Const 8))
  in
  table ~title:"closed-form extrapolation (lambda = 8, 64-byte inputs, bits upper bounds)"
    [ "n"; "h"; "sparse net"; "a2a naive"; "a2a fingerprinted"; "equality 1MB" ]
    (fun (np, hp) ->
      [ int np; int hp; fmt_bits (bits (Catalogue.sparse_spec ~n:np ~h:hp ~alpha:2));
        (if np > 100_000 then "overflow" else fmt_bits (a2a np Mpc.All_to_all.Naive));
        fmt_bits (a2a np Mpc.All_to_all.Fingerprinted);
        fmt_bits
          (bits (Mpc.Equality.cost_spec_run ~n:(Const np) ~lambda:(Const 8) ~len:(Const 1_000_000)))
      ])
    (List.concat_map (fun np -> [ (np, np / 4); (np, isqrt np) ]) [ 10_000; 100_000; 1_000_000 ]);
  Printf.printf
    "the factor-n gap between the all-to-all columns is Sec 2.1's claim,\n\
     now as evaluated formulas rather than fitted exponents.\n";
  []

(* ------------------------------------------------------------------ *)
(* soak — Byzantine fault-injection sweep (opt-in via --only soak)      *)
(* ------------------------------------------------------------------ *)

let soak_sweep = sweep "fault schedules (--schedules K overrides)" int ~full:([ 200 ], [ 30 ])

(* --schedules K: how many fault schedules the sweep covers.  --schedule
   K: replay exactly one schedule id and print each case verbosely — the
   command the soak runner prints for any violation.  Both set once at
   startup. *)
let soak_schedules : int option ref = ref None
let soak_schedule : int option ref = ref None

let soak tier =
  let seed = match !base_seed with Some s -> s | None -> 1 in
  let describe_count rep =
    Printf.sprintf "%d cases over %d schedules" rep.Mpc.Soak.total_cases
      rep.Mpc.Soak.total_schedules
  in
  let async = tier.async in
  (match !soak_schedule with
  | Some k ->
    (* Replay mode: one schedule id, every protocol, verbose verdicts. *)
    section
      (Printf.sprintf "soak replay: seed %d, schedule %d%s" seed k
         (if async then " (async event transport)" else ""));
    let cases = Mpc.Soak.run_schedule ~async ~seed ~schedule:k () in
    List.iter
      (fun c ->
        match c.Mpc.Soak.violation with
        | None ->
          Printf.printf "ok        %-16s n=%-3d h=%-3d spec: %s\n" c.Mpc.Soak.protocol
            c.Mpc.Soak.n c.Mpc.Soak.h
            (Netsim.Faults.spec_to_string c.Mpc.Soak.spec)
        | Some _ -> print_endline (Mpc.Soak.describe (Mpc.Soak.shrink c)))
      cases;
    if List.exists (fun c -> c.Mpc.Soak.violation <> None) cases then exit 1
  | None ->
    let schedules =
      match !soak_schedules with
      | Some k -> k
      | None -> List.fold_left max 0 (points tier (At Full) soak_sweep)
    in
    let plist = if async then Mpc.Soak.async_protocols else Mpc.Soak.protocols in
    section
      (Printf.sprintf "soak%s: %d fault schedules x %d protocols, seed %d"
         (if async then " (async event transport)" else "")
         schedules (List.length plist) seed);
    let rep = Mpc.Soak.run_sweep ?pool:!pool ~async ~seed ~schedules () in
    Printf.printf "%s: %d violation(s)\n" (describe_count rep)
      (List.length rep.Mpc.Soak.violations);
    List.iter (fun c -> print_endline (Mpc.Soak.describe c)) rep.Mpc.Soak.violations;
    (* Mutation sanity check: the deliberately broken broadcast variant
       (echo-equality check disabled) must be flagged within the same
       budget, proving the harness can actually fail. *)
    let cn = Mpc.Soak.canary ?pool:!pool ~seed ~schedules:(min schedules 30) () in
    Printf.printf "canary broken-broadcast (%s): %d violation(s) — %s\n" (describe_count cn)
      (List.length cn.Mpc.Soak.violations)
      (if cn.Mpc.Soak.violations = [] then "NOT caught (harness failure)"
       else "caught, as required");
    (match cn.Mpc.Soak.violations with
    | c :: _ -> print_endline (Mpc.Soak.describe c)
    | [] -> ());
    if rep.Mpc.Soak.violations <> [] || cn.Mpc.Soak.violations = [] then exit 1);
  []

(* ------------------------------------------------------------------ *)
(* The registry                                                        *)
(* ------------------------------------------------------------------ *)

type experiment = {
  id : string;
  desc : string;
  sweeps : decl list;
  opt_in : bool;
      (* runnable via --only, never part of a default selection (soak is
         adversarial: it contributes no honest-cost run records and gates
         on predicates instead) *)
  run : tier -> run list;
}

let entry ?(opt_in = false) id desc sweeps run = { id; desc; sweeps; opt_in; run }

let experiments =
  [
    entry "E1" "Theorem 1: Alg 3 communication O~(n^2/h)"
      [ decl e1_quarter; decl e1_fixed; decl e1_hsweep ] e1;
    entry "E2" "Theorem 2: gossip MPC O~(n^3/h), locality O~(n/h)"
      [ decl e2_nsweep; decl e2_hsweep ] e2;
    entry "E3" "Theorem 4: Alg 8 O~(n^3/h^1.5), locality O~(n/sqrt h)"
      [ decl e3_nsweep; decl e3_hsweep ] e3;
    entry "E4" "Theorem 3: lower bound isolation attack" [ decl e4_attack ] e4;
    entry "E5" "Lemma 5: succinct equality testing" [ decl e5_lambda; decl e5_len ] e5;
    entry "E6" "Claims 12/14: committee election" [ decl e6_trials; decl e6_single ] e6;
    entry "E7" "Claim 20: sparse network" [ decl e7_trials; decl e7_streamed ] e7;
    entry "E8" "Claim 23: covering" [ decl e8_cover ] e8;
    entry "E9" "Sec 2.1: naive vs fingerprinted all-to-all"
      [ decl e9_pairs; decl e9_naive; decl e9_fp ] e9;
    entry "E10" "Equation (1): Alg 8 phase balance" [ decl e10_cover ] e10;
    entry "E11" "round complexity" [ decl e11_sweep ] e11;
    entry "E12" "crypto microbenchmarks (--quick shrinks quotas; ignores --jobs)"
      [ decl e12_primitives ] e12;
    entry "E13" "baseline: GMW vs Algorithm 3 crossover"
      [ decl e13_pairs; decl e13_gmw; decl e13_alg3 ] e13;
    entry "E14" "Remark 10: depth-based vs size-based cost" [ decl e14_widths ] e14;
    entry "pool-micro" "Pool.map_jobs dispatch overhead (ns/job; ignores --jobs)"
      [ decl pool_widths ] pool_micro;
    entry "fp-micro" "Fingerprint kernel byte/prime throughput (ignores --jobs)"
      [ decl fp_cases ] fp_micro;
    entry ~opt_in:true "soak"
      "Byzantine fault-injection soak (--seed S --schedules K | --schedule K; --async: every \
       case on a derived event transport)"
      [ decl soak_sweep ] soak;
    entry ~opt_in:true "cost-audit"
      "symbolic cost specs vs measured counters (+ n=10^4..10^6 extrapolation)"
      [ decl cost_audit_n ] cost_audit;
  ]

let declares e scale = List.exists (fun d -> List.mem_assoc (At scale) d.d_at) e.sweeps

(* The experiments a tier runs without --only: every experiment that
   declares the tier's scale. *)
let default_selection scale =
  List.filter (fun e -> (not e.opt_in) && declares e scale) experiments

let print_list () =
  List.iter
    (fun e ->
      Printf.printf "%-4s %s\n" e.id e.desc;
      if e.opt_in then Printf.printf "       opt-in: --only %s\n" e.id;
      List.iter print_decl e.sweeps)
    experiments

(* ------------------------------------------------------------------ *)
(* --audit                                                             *)
(* ------------------------------------------------------------------ *)

let load_report path =
  try Analysis.Bench_io.load path with
  | Sys_error msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 1
  | Failure msg | Analysis.Json.Parse_error msg ->
    Printf.eprintf "error: %s is not a bench report: %s\n" path msg;
    exit 1

(* --audit FILE: re-check a saved report against the symbolic cost specs
   without re-running any protocol.  Two kinds of checks:
   - any record carrying predicted_* fields is checked for internal
     consistency (measured bits within [lo, hi], messages/rounds equal);
   - E7 and E8 records are re-derived from the closed-form specs even
     when the report predates the predicted_* fields (the giant
     baselines): trial count is parsed from the series label, E7's
     per-trial sparse-network spec is scaled by it (giant tier runs
     alpha = 2, the full tier alpha = 3), and E8's network-free Monte
     Carlo gets the zero spec.
   Exits 1 on any mismatch so CI can gate dated baselines on it. *)
let audit_report path =
  let rep = load_report path in
  let checked = ref 0 and mismatched = ref 0 and skipped = ref 0 in
  let scan fmt s = try Some (Scanf.sscanf s fmt (fun k -> k)) with _ -> None in
  List.iter
    (fun (r : run) ->
      let check_against (t : Analysis.Costs.totals) =
        incr checked;
        let complain fmt =
          Printf.ksprintf
            (fun msg ->
              incr mismatched;
              Printf.printf "MISMATCH %s / %s (n=%d h=%d): %s\n" r.experiment r.series r.n
                r.h msg)
            fmt
        in
        if r.bits < t.bits_lo || r.bits > t.bits_hi then
          complain "bits %d outside predicted [%d, %d]" r.bits t.bits_lo t.bits_hi;
        if r.messages <> t.messages then
          complain "messages %d <> predicted %d" r.messages t.messages;
        if r.rounds <> t.rounds then complain "rounds %d <> predicted %d" r.rounds t.rounds
      in
      let scale k (t : Analysis.Costs.totals) =
        {
          Analysis.Costs.bits_hi = k * t.bits_hi;
          bits_lo = k * t.bits_lo;
          messages = k * t.messages;
          rounds = k * t.rounds;
        }
      in
      match r.experiment with
      | "E7" -> (
        let sparse alpha =
          Analysis.Costs.totals (Analysis.Costs.env [])
            (Catalogue.sparse_spec ~n:r.n ~h:r.h ~alpha)
        in
        match (scan "giant %d-trial total" r.series, scan "%d-trial total" r.series) with
        | Some k, _ -> check_against (scale k (sparse 2))
        | None, Some k -> check_against (scale k (sparse 3))
        | None, None -> incr skipped)
      | "E8" ->
        (* Network-free Monte Carlo: every counter must be zero. *)
        check_against zero_totals
      | _ -> (
        match (r.predicted_bits, r.predicted_messages, r.predicted_rounds) with
        | Some hi, Some m, Some rr ->
          check_against
            {
              Analysis.Costs.bits_hi = hi;
              bits_lo = Option.value r.predicted_bits_lo ~default:hi;
              messages = m;
              rounds = rr;
            }
        | _ -> incr skipped))
    rep.Analysis.Bench_io.runs;
  Printf.printf
    "audited %s: %d run records, %d checked against specs, %d without predictions, %d \
     mismatches\n"
    path
    (List.length rep.Analysis.Bench_io.runs)
    !checked !skipped !mismatched;
  if !checked = 0 then begin
    Printf.eprintf "error: nothing to audit — no record carries predictions or a closed form\n";
    exit 1
  end;
  exit (if !mismatched > 0 then 1 else 0)

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let iso_date () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday

(* Every flag the CLI accepts, with the number of operands it takes. *)
let flags =
  [ ("--quick", 0); ("--huge", 0); ("--giant", 0); ("--async", 0); ("--list", 0);
    ("--only", 1); ("--jobs", 1); ("--json", 1); ("--seed", 1); ("--schedules", 1);
    ("--schedule", 1); ("--max-wall-s", 1); ("--max-rss-mb", 1); ("--audit", 1);
    ("--diff", 2) ]

(* A usage error: print it and exit 1 (exit 2 is reserved for budgets). *)
let usage fmt = Printf.ksprintf (fun msg -> prerr_endline ("error: " ^ msg); exit 1) fmt

(* Exit 1 on a [--flag] that is not in [flags], so a misspelled or
   retired flag fails loudly instead of being ignored, and on a known
   flag whose operands are missing — cut off by the end of the command
   line or by the next [--flag]. *)
let check_flags args =
  let rec go = function
    | [] -> ()
    | a :: rest -> (
      match List.assoc_opt a flags with
      | Some k ->
        let operands = List.filteri (fun i _ -> i < k) rest in
        if List.length operands < k || List.exists (String.starts_with ~prefix:"--") operands
        then usage "%s expects %d operand%s" a k (if k = 1 then "" else "s");
        go (List.filteri (fun i _ -> i >= k) rest)
      | None when String.starts_with ~prefix:"--" a ->
        usage "unknown flag %S; valid flags: %s" a (String.concat " " (List.map fst flags))
      | None -> go rest)
  in
  go args

let find_arg args flag =
  let rec go = function
    | f :: v :: _ when f = flag -> Some v
    | _ :: rest -> go rest
    | [] -> None
  in
  go args

(* [number_arg kind parse args flag] — the operand of [flag] parsed with
   [parse]; a malformed operand is a usage error. *)
let number_arg kind parse args flag =
  Option.map
    (fun s ->
      match parse s with Some v -> v | None -> usage "%s expects %s, got %S" flag kind s)
    (find_arg args flag)

let parse_jobs s =
  if s = "max" then Util.Pool.default_num_domains () + 1
  else
    match int_of_string_opt s with
    | Some j when j >= 1 -> j
    | _ -> usage "--jobs expects a positive integer or \"max\", got %S" s

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  check_flags args;
  (* Numeric operands are checked up front, whatever mode runs. *)
  let int_arg = number_arg "an integer" int_of_string_opt args in
  let float_arg = number_arg "a number" float_of_string_opt args in
  base_seed := int_arg "--seed";
  soak_schedules := int_arg "--schedules";
  soak_schedule := int_arg "--schedule";
  let max_wall_s = float_arg "--max-wall-s" in
  let max_rss_mb = float_arg "--max-rss-mb" in
  let jobs = match find_arg args "--jobs" with None -> 1 | Some s -> parse_jobs s in
  (* The protocol hot loops are allocation-heavy (one short-lived message,
     selection, and reader per pair), and in OCaml 5 every minor
     collection is a stop-the-world with real syscall cost.  A 8M-word
     minor heap turns thousands of minor collections per huge-tier
     experiment into tens; space_overhead 200 keeps the major GC off the
     hot path for the same reason.  The giant tier inverts both choices:
     its footprint is long-lived party state, not message churn, so a
     lower space_overhead buys headroom — and the runtime reserves
     address space for Max_domains x minor_heap_size up front, so the
     8M-word heap alone would reserve ~8GB and trip the CI smoke's
     address-space ulimit before main even runs.  Accounting
     (bits/messages/rounds) is GC-independent, so dated baselines are
     unaffected except wall_ms and peak_rss_mb. *)
  (if List.mem "--giant" args then
     Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 20; Gc.space_overhead = 80 }
   else Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 23; Gc.space_overhead = 200 });
  let rec find_diff = function
    | "--diff" :: a :: b :: _ -> Some (a, b)
    | _ :: rest -> find_diff rest
    | [] -> None
  in
  match find_diff args with
  | Some (a, b) ->
    (* Regression-diff two saved reports; exit 1 on accounting drift so CI
       can gate on it (wall-clock changes alone do not fail the diff). *)
    let matched, drifted =
      Analysis.Bench_io.print_diff ~before:(load_report a) ~after:(load_report b)
    in
    if matched = 0 then begin
      Printf.eprintf
        "error: no comparable runs between %s and %s — the reports cover disjoint \
         experiment/series/n/h keys (e.g. a --quick report diffed against a full-tier one)\n"
        a b;
      exit 1
    end;
    exit (if drifted > 0 then 1 else 0)
  | None -> (
    match find_arg args "--audit" with
    | Some path -> audit_report path
    | None when List.mem "--list" args -> print_list ()
    | None ->
      let has flag = List.mem flag args in
      if has "--huge" && has "--giant" then
        usage "--huge and --giant select disjoint tiers; pick one";
      let tier =
        {
          scale = (if has "--huge" then Huge else if has "--giant" then Giant else Full);
          quick = has "--quick";
          async = has "--async";
        }
      in
      let json_path = find_arg args "--json" in
      if jobs > 1 then pool := Some (Util.Pool.create ~num_domains:(jobs - 1) ());
      let selected =
        match find_arg args "--only" with
        | None -> default_selection tier.scale
        | Some id -> (
          match List.filter (fun e -> e.id = id) experiments with
          | [] ->
            usage "unknown experiment id %S; valid ids: %s" id
              (String.concat " " (List.map (fun e -> e.id) experiments))
          | sel -> sel)
      in
      let t0 = Unix.gettimeofday () in
      let results =
        List.map
          (fun e ->
            (* An experiment asked for at a scale it does not declare runs
               its full scale. *)
            let tier = if declares e tier.scale then tier else { tier with scale = Full } in
            let runs, ms = timed (fun () -> e.run tier) in
            Printf.printf "[%.1fs]\n%!" (ms /. 1000.0);
            (e.id, ms, runs))
          selected
      in
      let total_wall_ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
      Option.iter Util.Pool.shutdown !pool;
      Printf.printf "\nall experiments done in %.1fs (jobs=%d)%s\n" (total_wall_ms /. 1000.0)
        jobs
        (match (tier.scale, tier.quick) with
        | Huge, true -> " (huge smoke tier)"
        | Huge, false -> " (huge tier)"
        | Giant, true -> " (giant smoke tier)"
        | Giant, false -> " (giant tier)"
        | Full, true -> " (quick tier)"
        | Full, false -> "");
      Option.iter
        (fun path ->
          let report =
            {
              Analysis.Bench_io.date = iso_date ();
              quick = tier.quick;
              jobs;
              total_wall_ms;
              experiment_wall_ms = List.map (fun (id, ms, _) -> (id, ms)) results;
              runs = List.concat_map (fun (_, _, runs) -> runs) results;
            }
          in
          Analysis.Bench_io.save path report;
          Printf.printf "wrote %d run records to %s\n" (List.length report.runs) path)
        json_path;
      (match max_wall_s with
      | Some budget when total_wall_ms > 1000.0 *. budget ->
        Printf.eprintf "wall-clock budget exceeded: %.1fs > %.1fs (at jobs=%d)\n"
          (total_wall_ms /. 1000.0) budget jobs;
        exit 2
      | _ -> ());
      Option.iter
        (fun budget ->
          (* The hard memory gate for CI's giant smoke: VmHWM is the
             process-wide high-water, so it bounds every run above.  Where
             /proc is unavailable the budget cannot be checked — warn and
             pass rather than fail a platform, the Linux CI lane is the
             enforcing one. *)
          match Analysis.Bench_io.peak_rss_mb () with
          | Some peak when peak > budget ->
            Printf.eprintf "peak-RSS budget exceeded: %.0fMB > %.0fMB\n" peak budget;
            exit 2
          | Some peak -> Printf.printf "peak RSS %.0fMB within budget %.0fMB\n" peak budget
          | None ->
            Printf.eprintf "warning: --max-rss-mb set but /proc/self/status is unreadable\n")
        max_rss_mb;
      (* Every [verify] above recorded spec-vs-measured mismatches here;
         failing at the very end lets a full run report all of them
         rather than dying at the first. *)
      if !cost_mismatch then begin
        Printf.eprintf "cost specs disagree with measured accounting (see COST MISMATCH above)\n";
        exit 1
      end)
