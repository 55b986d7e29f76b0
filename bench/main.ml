(* Benchmark harness: regenerates every quantitative claim of the paper
   (there are no empirical tables in the original — it is a theory paper —
   so the "tables and figures" are the theorem bounds; see DESIGN.md §4 and
   EXPERIMENTS.md for the paper-vs-measured record).

     dune exec bench/main.exe                 -- run everything
     dune exec bench/main.exe -- --only E1    -- one experiment
     dune exec bench/main.exe -- --list       -- list experiments
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
     dune exec bench/main.exe -- --async      -- event-transport variants: E1/E6/E9
                                                 async rows; with --only soak, the
                                                 sweep runs every case on a derived
                                                 adversarially-scheduled transport

   Communication complexity is measured per the paper's definition (§3.1):
   bits sent by all parties in an honest execution.

   Execution model: every experiment describes its metered work as an
   array of independent, seed-deterministic jobs and maps it through
   [Util.Pool.map_jobs], which preserves array order regardless of
   scheduling.  Each job builds its own network, RNG, and PKE instance and
   returns its [Analysis.Bench_io.run] records; tables, fits, and the JSON
   report are assembled from the result arrays on the main domain, so the
   output is byte-identical at any --jobs value (wall-clock aside).

   The --huge tier flips the parallelism inside-out: instead of many small
   sweep points fanned across the pool, it runs few very large points
   (n up to 2048) sequentially and hands the pool to the protocol itself,
   which shards each communication round across domains via
   [Netsim.Net.run_round].  Delivery and accounting are bit-identical at
   any --jobs value there too (that is the run_round contract, enforced by
   test/test_net_parallel.ml), so --diff between a --jobs 1 and a
   --jobs max huge report must show zero drift.  --huge selects only
   E1/E9/E13 by default; --huge --quick is the n = 512 smoke tier CI
   uses.  The cubic baselines (E9 naive, E13 GMW) are capped — the cap is
   printed, and is itself the point: past it only the paper's protocols
   are feasible. *)

let fmt_bits = Analysis.Table.fmt_bits

(* --quick shrinks the sweep lists so the whole suite fits a CI budget;
   [pick] selects per-experiment.  [quick] is set once at startup, before
   any job runs, so reading it from worker domains is race-free. *)
let quick = ref false
let pick ~full ~reduced = if !quick then reduced else full

(* --huge: few very large sweep points, parallelized inside each run via
   [Netsim.Net.run_round] instead of across runs.  Set once at startup. *)
let huge = ref false

(* --giant: the streaming tier — E7/E8 at n = 10⁴, 10⁵ and a 10⁶ smoke,
   where the network's memory must grow with activity, not with n².
   --giant --quick is the n = 10⁴ CI smoke.  Set once at startup. *)
let giant = ref false

(* The worker pool behind [par_map]; [None] (--jobs 1) is the pure
   sequential path with zero pool overhead. *)
let pool : Util.Pool.t option ref = ref None

let par_map arr f =
  match !pool with None -> Array.map f arr | Some p -> Util.Pool.map_jobs p arr f

let par_list xs f = Array.to_list (par_map (Array.of_list xs) f)

(* --seed S: replay seed.  Every experiment's internal seed constant [k]
   is remapped through [seed_of] (identity when no --seed was given, so
   default reports stay byte-identical), threaded into RNG and simulated
   PKE construction, and recorded in each run record's optional [seed]
   field.  Set once at startup, before any job runs. *)
let base_seed : int option ref = ref None
let seed_of k = match !base_seed with None -> k | Some s -> (s * 0x3779F1) lxor k
let prng k = Util.Prng.create (seed_of k)

(* ---- symbolic cost predictions (Analysis.Costs) ----

   Every metered run evaluates its protocol's cost spec at the run's
   parameters (plus the structural observables the protocol recorded into
   an [Obs.t]) and asserts the measured counters against it: bits within
   the spec's declared-slack interval, messages and rounds exact.  A
   mismatch prints the spec's verdict and flips [cost_mismatch], which
   fails the whole bench invocation with exit 1 — the closed forms are
   part of the repo's correctness contract, not decoration.  The totals
   ride along in the run record's [predicted_*] fields so --diff can gate
   on formula drift independently of measurement drift. *)
let cost_mismatch = ref false

(* [checked_totals ~env ~spec net] — evaluate, assert against [net]'s
   counters, return the totals.  Only ever sets [cost_mismatch] to true,
   so concurrent jobs may share the flag without a lock. *)
let checked_totals ~env ~spec net =
  let totals = Analysis.Costs.totals env spec in
  let v =
    Analysis.Costs.check ~locality:(Netsim.Net.max_locality net) env spec
      ~bits:(Netsim.Net.total_bits net) ~messages:(Netsim.Net.messages_sent net)
      ~rounds:(Netsim.Net.rounds net)
  in
  if not v.Analysis.Costs.ok then begin
    cost_mismatch := true;
    Printf.eprintf "COST MISMATCH [%s]:\n" spec.Analysis.Costs.name;
    List.iter (Printf.eprintf "  %s\n") v.Analysis.Costs.detail
  end;
  totals

let zero_totals =
  { Analysis.Costs.bits_hi = 0; bits_lo = 0; messages = 0; rounds = 0 }

(* Trial-summed experiments (E6/E7) accumulate one prediction per trial
   into the aggregated record. *)
let add_totals a b =
  {
    Analysis.Costs.bits_hi = a.Analysis.Costs.bits_hi + b.Analysis.Costs.bits_hi;
    bits_lo = a.Analysis.Costs.bits_lo + b.Analysis.Costs.bits_lo;
    messages = a.Analysis.Costs.messages + b.Analysis.Costs.messages;
    rounds = a.Analysis.Costs.rounds + b.Analysis.Costs.rounds;
  }

let run_of_net ?predicted ~experiment ~series ~n ~h ~wall_ms net =
  {
    Analysis.Bench_io.experiment;
    series;
    n;
    h;
    bits = Netsim.Net.total_bits net;
    messages = Netsim.Net.messages_sent net;
    rounds = Netsim.Net.rounds net;
    wall_ms;
    seed = !base_seed;
    peak_rss_mb = Analysis.Bench_io.peak_rss_mb ();
    predicted_bits = Option.map (fun t -> t.Analysis.Costs.bits_hi) predicted;
    predicted_bits_lo = Option.map (fun t -> t.Analysis.Costs.bits_lo) predicted;
    predicted_messages = Option.map (fun t -> t.Analysis.Costs.messages) predicted;
    predicted_rounds = Option.map (fun t -> t.Analysis.Costs.rounds) predicted;
  }

let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, 1000.0 *. (Unix.gettimeofday () -. t0))

let sim_pke seed =
  Crypto.Pke.make_simulated ~lwe_params:Crypto.Pke.bench_lwe_params ~seed:(seed_of seed) ()

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let fit_line label ms =
  let f, j = Analysis.Complexity.fit_with_polylog ms in
  Printf.printf "%s: fitted exponent %.2f (x polylog^%d, r2=%.3f)\n" label
    f.Analysis.Complexity.exponent j f.Analysis.Complexity.r2;
  f

let bits_measure ~x (r : Analysis.Bench_io.run) =
  { Analysis.Complexity.x = float_of_int x; value = float_of_int r.Analysis.Bench_io.bits }

(* ---- --async: event-transport variants ----

   Under --async, E1/E6/E9 re-run representative rows on the
   adversarially-scheduled event transport (Netsim.Event_net) at a fixed
   config, and the soak sweep switches to per-case random configs.
   Accounting is metered at send time, so async bits and messages are
   asserted against the same closed forms as the sync rows; measured
   rounds depend on the delivery schedule, so the sync closed form is
   printed as an informational delta instead, and the async records
   carry no rounds prediction (--audit skips them; --diff matches them
   only against other async reports via the distinct series suffix). *)
let async_mode = ref false

let async_cfg =
  {
    Netsim.Event_net.latency = Netsim.Event_net.Uniform (1, 3);
    horizon = 1;
    scheduler = Netsim.Event_net.Adversarial { hold = 0.25 };
  }

(* Protocol deadline = the transport's fairness span: every in-flight
   message lands within [span] ticks of submission, so honest async runs
   lose nothing and still produce outputs, not aborts. *)
let async_deadline = Netsim.Event_net.span async_cfg

let async_net ~seed n =
  let rng = Util.Prng.derive (prng seed) ~key:0xA5ED in
  Netsim.Net.create ~transport:(Netsim.Event_net.transport ~rng async_cfg) n

(* The async counterpart of [checked_totals]: bits within slack and
   messages exact, rounds deliberately unchecked. *)
let async_checked_totals ~env ~spec net =
  let totals = Analysis.Costs.totals env spec in
  let bits = Netsim.Net.total_bits net in
  let messages = Netsim.Net.messages_sent net in
  if
    bits < totals.Analysis.Costs.bits_lo
    || bits > totals.Analysis.Costs.bits_hi
    || messages <> totals.Analysis.Costs.messages
  then begin
    cost_mismatch := true;
    Printf.eprintf
      "COST MISMATCH [%s, async]: bits %d (predicted [%d, %d]), messages %d (predicted %d)\n"
      spec.Analysis.Costs.name bits totals.Analysis.Costs.bits_lo
      totals.Analysis.Costs.bits_hi messages totals.Analysis.Costs.messages
  end;
  totals

let async_run_of_net ~predicted ~experiment ~series ~n ~h ~wall_ms net =
  {
    (run_of_net ~predicted ~experiment ~series ~n ~h ~wall_ms net) with
    Analysis.Bench_io.predicted_rounds = None;
  }

(* Rows paired with their sync closed-form round counts. *)
let async_rounds_table rows =
  let t =
    Analysis.Table.create
      ~title:
        (Printf.sprintf "async rounds-to-completion vs sync closed form (%s)"
           (Netsim.Event_net.config_to_string async_cfg))
      ~columns:[ "series"; "n"; "rounds"; "sync form"; "delta" ]
  in
  List.iter
    (fun ((r : Analysis.Bench_io.run), sync_rounds) ->
      Analysis.Table.add_row t
        [ r.series; string_of_int r.n; string_of_int r.rounds; string_of_int sync_rounds;
          Printf.sprintf "%+d" (r.rounds - sync_rounds) ])
    rows;
  Analysis.Table.print t

(* ------------------------------------------------------------------ *)
(* E1 — Theorem 1: Algorithm 3 communication Õ(n²/h)                   *)
(* ------------------------------------------------------------------ *)

(* Cost spec of one honest Algorithm 3 run, evaluated against [net]'s
   counters via the observables recorded into [obs]. *)
let alg3_totals ?(async = false) ~pke ~circuit ~input_width ~n ~obs net =
  let open Analysis.Costs in
  let spec =
    Mpc.Mpc_abort.cost_spec ~pke
      ~depth:(Const (Circuit.depth circuit))
      ~input_width:(Const input_width)
      ~out_bits:(Const (Circuit.num_outputs circuit))
      ~n:(Const n) ~lambda:(Const 8)
  in
  (if async then async_checked_totals else checked_totals) ~env:(env ~obs []) ~spec net

let run_alg3 ?pool ?(async = false) ~n ~h ~seed () =
  let params = Mpc.Params.make ~n ~h ~lambda:8 ~alpha:2 () in
  let pke = sim_pke seed in
  let circuit = Circuit.parity ~n in
  let config = { Mpc.Mpc_abort.params; pke; circuit; input_width = 1 } in
  let corruption = Netsim.Corruption.none ~n in
  let inputs = Array.init n (fun i -> i land 1) in
  let net = if async then async_net ~seed n else Netsim.Net.create n in
  let deadline = if async then async_deadline else 1 in
  let rng = prng seed in
  let obs = Analysis.Costs.Obs.create () in
  let outs =
    Mpc.Mpc_abort.run ?pool ~deadline ~obs net rng config ~corruption ~inputs
      ~adv:Mpc.Mpc_abort.honest_adv
  in
  assert (Array.for_all Mpc.Outcome.is_output outs);
  (net, alg3_totals ~async ~pke ~circuit ~input_width:1 ~n ~obs net)

(* The --async E1 rows: same protocol and seeds as the h = n/4 sweep, on
   the adversarial event transport with the phase deadline at the
   transport's span. *)
let e1_async () =
  section "E1  (--async) Algorithm 3 on the adversarial event transport";
  let rows =
    par_list
      (pick ~full:[ 64; 128; 256 ] ~reduced:[ 64; 128 ])
      (fun n ->
        let h = n / 4 in
        let (net, predicted), wall_ms = timed (run_alg3 ~async:true ~n ~h ~seed:n) in
        ( async_run_of_net ~predicted ~experiment:"E1" ~series:"n-sweep h=n/4 (async)" ~n ~h
            ~wall_ms net,
          predicted.Analysis.Costs.rounds ))
  in
  async_rounds_table rows;
  List.map fst rows

(* One huge-tier E1 row: the full tier's h = n/4 series and seed, with
   its rounds sharded over [pool]. *)
let e1_row ?pool n =
  let h = n / 4 in
  let (net, predicted), wall_ms = timed (run_alg3 ?pool ~n ~h ~seed:n) in
  run_of_net ~predicted ~experiment:"E1" ~series:"n-sweep h=n/4" ~n ~h ~wall_ms net

let e1_huge () =
  section "E1  (huge tier) Algorithm 3 at n up to 2048";
  Printf.printf
    "same protocol, series, and seeds as the full tier's h = n/4 sweep,\n\
     pushed to n = 2048; each run shards its rounds across the --jobs pool\n\
     via Net.run_round, so records are bit-identical at any --jobs value.\n\n";
  let rows = List.map (e1_row ?pool:!pool) (pick ~full:[ 512; 1024; 2048 ] ~reduced:[ 512 ]) in
  let t =
    Analysis.Table.create ~title:"sweep n at fixed ratio h = n/4 (n^2/h = 4n: expect ~linear)"
      ~columns:[ "n"; "h"; "bits"; "bits*h/n^2"; "wall ms" ]
  in
  List.iter
    (fun (r : Analysis.Bench_io.run) ->
      Analysis.Table.add_row t
        [ string_of_int r.n; string_of_int r.h; fmt_bits r.bits;
          Printf.sprintf "%.0f"
            (float_of_int r.bits *. float_of_int r.h /. float_of_int (r.n * r.n));
          Printf.sprintf "%.0f" r.wall_ms ])
    rows;
  Analysis.Table.print t;
  rows

let e1 () =
  if !huge then e1_huge ()
  else begin
  section "E1  Theorem 1: Algorithm 3 uses O~(n^2/h) bits";
  Printf.printf "paper: total communication O(n^2 h^-1 poly(lambda, D, log n))\n\n";
  let r1 =
    par_list
      (pick ~full:[ 64; 128; 256; 384; 512 ] ~reduced:[ 64; 128; 256 ])
      (fun n ->
        let h = n / 4 in
        let (net, predicted), wall_ms = timed (run_alg3 ~n ~h ~seed:n) in
        run_of_net ~predicted ~experiment:"E1" ~series:"n-sweep h=n/4" ~n ~h ~wall_ms net)
  in
  let t = Analysis.Table.create ~title:"sweep n at fixed ratio h = n/4 (n^2/h = 4n: expect ~linear)" ~columns:[ "n"; "h"; "bits"; "bits*h/n^2" ] in
  let ms_n =
    List.map
      (fun (r : Analysis.Bench_io.run) ->
        Analysis.Table.add_row t
          [ string_of_int r.n; string_of_int r.h; fmt_bits r.bits;
            Printf.sprintf "%.0f"
              (float_of_int r.bits *. float_of_int r.h /. float_of_int (r.n * r.n)) ];
        bits_measure ~x:r.n r)
      r1
  in
  Analysis.Table.print t;
  ignore (fit_line "exponent in n at fixed h/n (paper: n^2/h = 4n here, so ~1)" ms_n);
  print_newline ();
  let r2 =
    par_list
      (pick ~full:[ 48; 96; 192; 288 ] ~reduced:[ 48; 96; 192 ])
      (fun n ->
        let (net, predicted), wall_ms = timed (run_alg3 ~n ~h:12 ~seed:(4000 + n)) in
        run_of_net ~predicted ~experiment:"E1" ~series:"n-sweep h=12" ~n ~h:12 ~wall_ms net)
  in
  let tf = Analysis.Table.create ~title:"sweep n at fixed h = 12 (expect ~n^2 polylog)" ~columns:[ "n"; "bits" ] in
  let ms_f =
    List.map
      (fun (r : Analysis.Bench_io.run) ->
        Analysis.Table.add_row tf [ string_of_int r.n; fmt_bits r.bits ];
        bits_measure ~x:r.n r)
      r2
  in
  Analysis.Table.print tf;
  ignore (fit_line "exponent in n at fixed h (paper: ~2)" ms_f);
  print_newline ();
  let r3 =
    par_list
      (pick ~full:[ 16; 32; 64; 128; 224 ] ~reduced:[ 32; 64; 128 ])
      (fun h ->
        let (net, predicted), wall_ms = timed (run_alg3 ~n:256 ~h ~seed:(1000 + h)) in
        run_of_net ~predicted ~experiment:"E1" ~series:"h-sweep n=256" ~n:256 ~h ~wall_ms net)
  in
  let t2 = Analysis.Table.create ~title:"sweep h (n = 256)" ~columns:[ "h"; "bits"; "bits*h" ] in
  let ms_h =
    List.map
      (fun (r : Analysis.Bench_io.run) ->
        Analysis.Table.add_row t2
          [ string_of_int r.h; fmt_bits r.bits; fmt_bits (r.bits * r.h) ];
        bits_measure ~x:r.h r)
      r3
  in
  Analysis.Table.print t2;
  ignore (fit_line "exponent in h at fixed n (paper: ~-1; the committee-internal |C|^2 terms push toward -2 until h >> log^2 n)" ms_h);
  r1 @ r2 @ r3 @ (if !async_mode then e1_async () else [])
  end

(* ------------------------------------------------------------------ *)
(* E2 — Theorem 2: gossip MPC, Õ(n³/h) bits, locality Õ(n/h)           *)
(* ------------------------------------------------------------------ *)

let run_thm2 ~n ~h ~seed =
  let params = Mpc.Params.make ~n ~h ~lambda:8 ~alpha:2 () in
  let circuit = Circuit.parity ~n in
  let config = { Mpc.Local_mpc.params; pke = sim_pke seed; circuit; input_width = 1 } in
  let corruption = Netsim.Corruption.none ~n in
  let inputs = Array.init n (fun i -> i land 1) in
  let net = Netsim.Net.create n in
  let rng = prng seed in
  let obs = Analysis.Costs.Obs.create () in
  let outs =
    Mpc.Local_mpc.run_theorem2 ?pool:!pool ~obs net rng config ~corruption ~inputs
      ~adv:Mpc.Local_mpc.honest_theorem2_adv
  in
  assert (Array.for_all Mpc.Outcome.is_output outs);
  let predicted =
    let open Analysis.Costs in
    let spec =
      Mpc.Local_mpc.cost_spec_theorem2 ~n:(Const n) ~h:(Const h) ~lambda:(Const 8)
        ~alpha:(Const 2)
        ~depth:(Const (Circuit.depth circuit))
        ~input_width:(Const 1)
        ~out_bits:(Const (Circuit.num_outputs circuit))
    in
    checked_totals ~env:(env ~obs []) ~spec net
  in
  (net, predicted)

let e2 () =
  section "E2  Theorem 2: gossip MPC uses O~(n^3/h) bits with locality O~(n/h)";
  Printf.printf "paper: O(n^3 h^-1 poly) bits, locality O(lambda n h^-1 log n)\n\n";
  let r1 =
    par_list
      (pick ~full:[ 32; 64; 96; 128 ] ~reduced:[ 32; 64; 96 ])
      (fun n ->
        let h = n / 4 in
        let (net, predicted), wall_ms = timed (fun () -> run_thm2 ~n ~h ~seed:n) in
        (run_of_net ~predicted ~experiment:"E2" ~series:"n-sweep h=n/4" ~n ~h ~wall_ms net,
         Netsim.Net.max_locality net))
  in
  let t =
    Analysis.Table.create ~title:"sweep n (h = n/4)"
      ~columns:[ "n"; "h"; "bits"; "locality"; "(n/h)*ln n" ]
  in
  let ms =
    List.map
      (fun ((r : Analysis.Bench_io.run), loc) ->
        Analysis.Table.add_row t
          [ string_of_int r.n; string_of_int r.h; fmt_bits r.bits; string_of_int loc;
            Printf.sprintf "%.0f"
              (float_of_int r.n /. float_of_int r.h *. log (float_of_int r.n)) ];
        bits_measure ~x:r.n r)
      r1
  in
  Analysis.Table.print t;
  ignore (fit_line "bits exponent in n at fixed h/n (paper: n^3/h = 4n^2 here, so ~2)" ms);
  print_newline ();
  let r2 =
    par_list
      (pick ~full:[ 12; 24; 48; 80 ] ~reduced:[ 24; 48; 80 ])
      (fun h ->
        let (net, predicted), wall_ms = timed (fun () -> run_thm2 ~n:96 ~h ~seed:(2000 + h)) in
        (run_of_net ~predicted ~experiment:"E2" ~series:"h-sweep n=96" ~n:96 ~h ~wall_ms net,
         Netsim.Net.max_locality net))
  in
  let t2 = Analysis.Table.create ~title:"sweep h (n = 96)" ~columns:[ "h"; "bits"; "locality" ] in
  let ms_h =
    List.map
      (fun ((r : Analysis.Bench_io.run), loc) ->
        Analysis.Table.add_row t2 [ string_of_int r.h; fmt_bits r.bits; string_of_int loc ];
        bits_measure ~x:r.h r)
      r2
  in
  Analysis.Table.print t2;
  ignore (fit_line "bits exponent in h at fixed n (paper: ~-1; locality shrinks with h too)" ms_h);
  List.map fst r1 @ List.map fst r2

(* ------------------------------------------------------------------ *)
(* E3 — Theorem 4: Algorithm 8, Õ(n³/h^{3/2}) bits, locality Õ(n/√h)   *)
(* ------------------------------------------------------------------ *)

(* Cost spec of one Theorem 4 run; shared by E3 and E10 (the cover-size
   override flows through the cover fan-out observables, so the same
   formulas cover both). *)
let thm4_totals ~pke ~circuit ~input_width ~n ~h ~alpha ~obs net =
  let open Analysis.Costs in
  let spec =
    Mpc.Local_mpc.cost_spec_theorem4 ~pke
      ~depth:(Const (Circuit.depth circuit))
      ~input_width:(Const input_width)
      ~out_bits:(Const (Circuit.num_outputs circuit))
      ~n:(Const n) ~h:(Const h) ~lambda:(Const 8) ~alpha:(Const alpha)
  in
  checked_totals ~env:(env ~obs []) ~spec net

let run_thm4 ~n ~h ~seed =
  let params = Mpc.Params.make ~n ~h ~lambda:8 ~alpha:1 () in
  let pke = sim_pke seed in
  let circuit = Circuit.parity ~n in
  let config = { Mpc.Local_mpc.params; pke; circuit; input_width = 1 } in
  let corruption = Netsim.Corruption.none ~n in
  let inputs = Array.init n (fun i -> i land 1) in
  let net = Netsim.Net.create n in
  let rng = prng seed in
  let obs = Analysis.Costs.Obs.create () in
  let outs, costs =
    Mpc.Local_mpc.run_theorem4_metered ?pool:!pool ~obs net rng config ~corruption ~inputs
      ~adv:Mpc.Local_mpc.honest_theorem4_adv
  in
  ignore outs;
  (net, costs, thm4_totals ~pke ~circuit ~input_width:1 ~n ~h ~alpha:1 ~obs net)

let e3 () =
  section "E3  Theorem 4: Algorithm 8 uses O~(n^3/h^1.5) bits, locality O~(n/sqrt h)";
  Printf.printf
    "paper: O(n^3 h^-3/2 poly) bits, locality O(lambda n h^-1/2 log n)\n\
     note: at simulation scales alpha*log n/sqrt h is near 1, so committees\n\
     are large and the asymptotic regime is only partially visible; the\n\
     h-dependence and the locality gap vs the clique are the reproducible\n\
     shape.\n\n";
  let r1 =
    par_list
      (pick ~full:[ 32; 64; 96; 128; 160 ] ~reduced:[ 32; 64; 96 ])
      (fun n ->
        let h = n / 4 in
        let (net, _, predicted), wall_ms = timed (fun () -> run_thm4 ~n ~h ~seed:n) in
        (run_of_net ~predicted ~experiment:"E3" ~series:"n-sweep h=n/4" ~n ~h ~wall_ms net,
         Netsim.Net.max_locality net))
  in
  let t =
    Analysis.Table.create ~title:"sweep n (h = n/4)"
      ~columns:[ "n"; "h"; "bits"; "locality"; "clique" ]
  in
  let ms =
    List.map
      (fun ((r : Analysis.Bench_io.run), loc) ->
        Analysis.Table.add_row t
          [ string_of_int r.n; string_of_int r.h; fmt_bits r.bits; string_of_int loc;
            string_of_int (r.n - 1) ];
        bits_measure ~x:r.n r)
      r1
  in
  Analysis.Table.print t;
  ignore (fit_line "bits exponent in n at fixed h/n (paper: n^3/h^1.5 = 8n^1.5 here; committee saturation inflates it)" ms);
  print_newline ();
  let r2 =
    par_list
      (pick ~full:[ 16; 32; 64; 100 ] ~reduced:[ 32; 64; 100 ])
      (fun h ->
        let (net, _, predicted), wall_ms = timed (fun () -> run_thm4 ~n:128 ~h ~seed:(3000 + h)) in
        (run_of_net ~predicted ~experiment:"E3" ~series:"h-sweep n=128" ~n:128 ~h ~wall_ms net,
         Netsim.Net.max_locality net))
  in
  let t2 =
    Analysis.Table.create ~title:"sweep h (n = 128)"
      ~columns:[ "h"; "bits"; "locality"; "n/sqrt(h)" ]
  in
  let ms_h =
    List.map
      (fun ((r : Analysis.Bench_io.run), loc) ->
        Analysis.Table.add_row t2
          [ string_of_int r.h; fmt_bits r.bits; string_of_int loc;
            Printf.sprintf "%.0f" (128.0 /. sqrt (float_of_int r.h)) ];
        bits_measure ~x:r.h r)
      r2
  in
  Analysis.Table.print t2;
  ignore (fit_line "bits exponent in h at fixed n (paper: ~-1.5)" ms_h);
  List.map fst r1 @ List.map fst r2

(* ------------------------------------------------------------------ *)
(* E4 — Theorem 3: lower bound via the isolation attack                *)
(* ------------------------------------------------------------------ *)

let e4 () =
  section "E4  Theorem 3: Omega(n^2/h) bits / Omega(n/h) locality are necessary";
  let n = 96 in
  Printf.printf
    "paper: any protocol where some party talks to < n/8(h-1) peers admits an\n\
     adversary that isolates it and forces disagreement WITHOUT abort.\n\
     strawman: d-local gossip broadcast without verification; sweep d.\n\n";
  let hs = [ 4; 12 ] and degrees = [ 1; 2; 4; 8; 16; 32 ] in
  (* One Monte Carlo batch (up to 400 trials) per (h, degree) point. *)
  let points = List.concat_map (fun h -> List.map (fun d -> (h, d)) degrees) hs in
  let rates =
    par_list points (fun (h, degree) ->
        let rng = prng (n + h + degree) in
        Mpc.Lower_bound.measure rng ~n ~h ~degree
          ~trials:(pick ~full:400 ~reduced:80)
          ~victim_is_sender:false)
  in
  let rate_tbl = Hashtbl.create 16 in
  List.iter2 (fun p r -> Hashtbl.replace rate_tbl p r) points rates;
  List.iter
    (fun h ->
      let threshold = Mpc.Lower_bound.threshold ~n ~h in
      Printf.printf "n = %d, h = %d, threshold n/8(h-1) = %.1f\n" n h threshold;
      let t =
        Analysis.Table.create ~title:""
          ~columns:[ "degree"; "isolation rate"; "attack success"; "analytic isolation" ]
      in
      List.iter
        (fun degree ->
          let rates = Hashtbl.find rate_tbl (h, degree) in
          Analysis.Table.add_row t
            [ string_of_int degree;
              Analysis.Table.fmt_prob rates.Mpc.Lower_bound.isolation_rate;
              Analysis.Table.fmt_prob rates.Mpc.Lower_bound.success_rate;
              Analysis.Table.fmt_prob
                (Mpc.Lower_bound.isolation_probability_bound ~n ~h ~degree:(2 * degree)) ])
        degrees;
      Analysis.Table.print t;
      print_newline ())
    hs;
  Printf.printf "shape check: success is constant below the threshold and dies above it.\n";
  []

(* ------------------------------------------------------------------ *)
(* E5 — Lemma 5: succinct equality testing                             *)
(* ------------------------------------------------------------------ *)

let e5 () =
  section "E5  Lemma 5: equality testing with O(lambda log n) bits";
  Printf.printf "paper: detect m1 <> m2 w.p. >= 1 - n^-lambda with O(lambda log n) bits\n\n";
  let soundness =
    par_list [ 2; 4; 8 ] (fun lambda ->
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
  let t =
    Analysis.Table.create ~title:"soundness (1000 near-equal pairs each)"
      ~columns:[ "lambda"; "false accepts"; "95% CI upper"; "paper bound n^-lambda" ]
  in
  List.iter
    (fun (lambda, fa, hi, bound) ->
      Analysis.Table.add_row t
        [ string_of_int lambda; string_of_int fa; Analysis.Table.fmt_prob hi;
          Printf.sprintf "%.2e" bound ])
    soundness;
  Analysis.Table.print t;
  print_newline ();
  let params = Mpc.Params.make ~n:64 ~h:32 ~lambda:8 ~alpha:2 () in
  let comm =
    par_list
      [ 100; 1_000; 10_000; 100_000; 1_000_000 ]
      (fun len ->
        let rng = prng len in
        let net = Netsim.Net.create 2 in
        let m = Util.Prng.bytes rng len in
        ignore (Mpc.Equality.run net rng params ~p1:0 ~p2:1 ~m1:m ~m2:(Bytes.copy m));
        (len, Netsim.Net.total_bits net))
  in
  let t2 =
    Analysis.Table.create ~title:"communication vs message size (lambda=8, n=64)"
      ~columns:[ "message bytes"; "bits exchanged" ]
  in
  List.iter
    (fun (len, bits) -> Analysis.Table.add_row t2 [ string_of_int len; string_of_int bits ])
    comm;
  Analysis.Table.print t2;
  Printf.printf "shape check: bits grow (sub-)logarithmically in |m|, never linearly.\n";
  []

(* ------------------------------------------------------------------ *)
(* E6 — Claims 12/14: committee election                               *)
(* ------------------------------------------------------------------ *)

(* The --async E6 rows: one honest election per (n, h) on the event
   transport.  Single-trial (the sync rows aggregate 20) — the point is
   the rounds-vs-closed-form delta, not abort statistics. *)
let e6_async () =
  section "E6  (--async) CommitteeElect on the adversarial event transport";
  let rows =
    par_list
      (pick ~full:[ (64, 16); (128, 32); (256, 64) ] ~reduced:[ (64, 16); (128, 32) ])
      (fun (n, h) ->
        let params = Mpc.Params.make ~n ~h ~lambda:8 ~alpha:2 () in
        let corruption = Netsim.Corruption.none ~n in
        let net = async_net ~seed:(n * h) n in
        let rng = prng (n * h) in
        let obs = Analysis.Costs.Obs.create () in
        let outs, wall_ms =
          timed (fun () ->
              Mpc.Committee.run ~deadline:async_deadline ~obs net rng params ~corruption
                ~adv:Mpc.Committee.honest_adv)
        in
        assert (Array.length outs = n);
        let predicted =
          let open Analysis.Costs in
          async_checked_totals ~env:(env ~obs [])
            ~spec:(Mpc.Committee.cost_spec ~n:(Const n) ~lambda:(Const 8))
            net
        in
        ( async_run_of_net ~predicted ~experiment:"E6" ~series:"single-trial (async)" ~n ~h
            ~wall_ms net,
          predicted.Analysis.Costs.rounds ))
  in
  async_rounds_table rows;
  List.map fst rows

let e6 () =
  section "E6  Claims 12 & 14: CommitteeElect";
  Printf.printf
    "paper: O~(n^2/h) bits; w.h.p. >= 1 honest member, consistent views,\n\
     |C| <= 2pn, and honest runs abort with negligible probability.\n\n";
  (* One job per (n, h) row: the trials share an RNG stream, so they stay
     sequential inside the job and the row totals are seed-deterministic. *)
  let rows =
    par_list
      (pick
         ~full:[ (64, 16); (128, 32); (256, 64); (512, 128) ]
         ~reduced:[ (64, 16); (128, 32); (256, 64) ])
      (fun (n, h) ->
        let params = Mpc.Params.make ~n ~h ~lambda:8 ~alpha:2 () in
        let rng0 = prng (n * h) in
        let trials = pick ~full:20 ~reduced:5 in
        let bits_acc = ref 0 and size_acc = ref 0 in
        let msgs_acc = ref 0 and rounds_acc = ref 0 in
        let member_ok = ref 0 and consistent = ref 0 and aborts = ref 0 in
        let pred_acc = ref zero_totals in
        let (), wall_ms =
          timed (fun () ->
              for seed = 1 to trials do
                let corruption = Netsim.Corruption.random rng0 ~n ~h in
                let net = Netsim.Net.create n in
                let rng = prng seed in
                let obs = Analysis.Costs.Obs.create () in
                let outs =
                  Mpc.Committee.run ~obs net rng params ~corruption
                    ~adv:Mpc.Committee.honest_adv
                in
                (let open Analysis.Costs in
                 let spec = Mpc.Committee.cost_spec ~n:(Const n) ~lambda:(Const 8) in
                 pred_acc := add_totals !pred_acc (checked_totals ~env:(env ~obs []) ~spec net));
                bits_acc := !bits_acc + Netsim.Net.total_bits net;
                msgs_acc := !msgs_acc + Netsim.Net.messages_sent net;
                rounds_acc := !rounds_acc + Netsim.Net.rounds net;
                if Mpc.Outcome.some_honest_aborted outs corruption then incr aborts;
                match Mpc.Committee.consistent_committee outs corruption with
                | Some c ->
                  incr consistent;
                  size_acc := !size_acc + List.length c;
                  if List.exists (Netsim.Corruption.is_honest corruption) c then
                    incr member_ok
                | None -> ()
              done)
        in
        let run =
          {
            Analysis.Bench_io.experiment = "E6";
            series = Printf.sprintf "%d-trial total" trials;
            n;
            h;
            bits = !bits_acc;
            messages = !msgs_acc;
            rounds = !rounds_acc;
            wall_ms;
            seed = !base_seed;
            peak_rss_mb = Analysis.Bench_io.peak_rss_mb ();
            predicted_bits = Some !pred_acc.Analysis.Costs.bits_hi;
            predicted_bits_lo = Some !pred_acc.Analysis.Costs.bits_lo;
            predicted_messages = Some !pred_acc.Analysis.Costs.messages;
            predicted_rounds = Some !pred_acc.Analysis.Costs.rounds;
          }
        in
        ( run,
          (trials, !size_acc, !consistent, !member_ok, !aborts,
           Mpc.Params.committee_bound params) ))
  in
  let t =
    Analysis.Table.create ~title:"20 trials per row (random corruption, honest behavior)"
      ~columns:
        [ "n"; "h"; "bits"; "E[|C|]"; "bound 2pn"; "honest member"; "consistent"; "aborts" ]
  in
  List.iter
    (fun ((r : Analysis.Bench_io.run), (trials, size_acc, consistent, member_ok, aborts, bound)) ->
      Analysis.Table.add_row t
        [ string_of_int r.n; string_of_int r.h; fmt_bits (r.bits / trials);
          string_of_int (size_acc / max 1 consistent);
          string_of_int bound;
          Printf.sprintf "%d/%d" member_ok trials;
          Printf.sprintf "%d/%d" consistent trials;
          Printf.sprintf "%d/%d" aborts trials ])
    rows;
  Analysis.Table.print t;
  if !async_mode then List.map fst rows @ e6_async () else
  List.map fst rows

(* ------------------------------------------------------------------ *)
(* E7 — Claim 20: the sparse routing network                           *)
(* ------------------------------------------------------------------ *)

(* The giant tier exercises the network's O(activity) memory shape:
   [Net] allocates party state on first touch with peer tables sized to
   each party's degree, [Sparse_network.run_iter] streams outcomes so the
   n-element [Iset] array (gigabytes at n = 10⁶) is never materialized,
   and connectivity is decided by a streaming union-find over the same
   edge set the full-tier BFS walks.  Honest hop relations are symmetric
   (i samples j ⟹ i notifies j ⟹ i ∈ outs(j) unless j aborted), so
   unioning each undirected edge at its higher-id endpoint — by which
   time the lower endpoint's abort status is known — yields the BFS
   verdict exactly; test_net_sparse checks the two against each other. *)
let e7_giant () =
  section "E7  (giant tier) SparseNetwork with O(activity) memory, n up to 10^6";
  Printf.printf
    "same protocol as the full tier: network party state is allocated on\n\
     first touch and outcomes stream through run_iter, so n = 10^5\n\
     fits comfortably under 2 GB peak RSS and n = 10^6 completes.\n\n";
  let points =
    pick
      ~full:[ (10_000, 2_500, 2); (100_000, 50_000, 1); (1_000_000, 1_000_000, 1) ]
      ~reduced:[ (10_000, 2_500, 1) ]
  in
  let rows =
    List.map
      (fun (n, h, trials) ->
        let params = Mpc.Params.make ~n ~h ~lambda:8 ~alpha:2 () in
        let sparse_spec =
          let open Analysis.Costs in
          Mpc.Sparse_network.cost_spec ~n:(Const n) ~h:(Const h) ~lambda:(Const 8)
            ~alpha:(Const 2)
        in
        let rng0 = prng (7 * n) in
        let connected = ref 0 and aborts = ref 0 and maxdeg = ref 0 in
        let bits_acc = ref 0 and msgs_acc = ref 0 and rounds_acc = ref 0 in
        let pred_acc = ref zero_totals in
        let (), wall_ms =
          timed (fun () ->
              for seed = 1 to trials do
                let corruption = Netsim.Corruption.random rng0 ~n ~h in
                let net = Netsim.Net.create n in
                let rng = prng seed in
                (* Union-find scaffolding: one int per party plus an
                   abort byte — 9n bytes, versus the n Iset outcomes the
                   full-tier path retains. *)
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
                Mpc.Sparse_network.run_iter net rng params ~corruption
                  ~adv:Mpc.Sparse_network.honest_adv ~f:(fun i out ->
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
                pred_acc :=
                  add_totals !pred_acc
                    (checked_totals ~env:(Analysis.Costs.env []) ~spec:sparse_spec net);
                bits_acc := !bits_acc + Netsim.Net.total_bits net;
                msgs_acc := !msgs_acc + Netsim.Net.messages_sent net;
                rounds_acc := !rounds_acc + Netsim.Net.rounds net;
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
                if !honest_abort then incr aborts
              done)
        in
        let run =
          {
            Analysis.Bench_io.experiment = "E7";
            series = Printf.sprintf "giant %d-trial total" trials;
            n;
            h;
            bits = !bits_acc;
            messages = !msgs_acc;
            rounds = !rounds_acc;
            wall_ms;
            seed = !base_seed;
            peak_rss_mb = Analysis.Bench_io.peak_rss_mb ();
            predicted_bits = Some !pred_acc.Analysis.Costs.bits_hi;
            predicted_bits_lo = Some !pred_acc.Analysis.Costs.bits_lo;
            predicted_messages = Some !pred_acc.Analysis.Costs.messages;
            predicted_rounds = Some !pred_acc.Analysis.Costs.rounds;
          }
        in
        (run, (trials, !connected, !aborts, !maxdeg, Mpc.Params.sparse_degree params)))
      points
  in
  let t =
    Analysis.Table.create ~title:"O(activity) network, alpha = 2"
      ~columns:
        [ "n"; "h"; "d"; "max degree"; "cap 3d"; "connected"; "honest aborts"; "wall s";
          "peak rss" ]
  in
  List.iter
    (fun ((r : Analysis.Bench_io.run), (trials, connected, aborts, maxdeg, d)) ->
      Analysis.Table.add_row t
        [ string_of_int r.n; string_of_int r.h; string_of_int d; string_of_int maxdeg;
          string_of_int (3 * d); Printf.sprintf "%d/%d" connected trials;
          Printf.sprintf "%d/%d" aborts trials;
          Printf.sprintf "%.1f" (r.wall_ms /. 1000.0);
          (match r.peak_rss_mb with Some mb -> Printf.sprintf "%.0fMB" mb | None -> "-") ])
    rows;
  Analysis.Table.print t;
  List.map fst rows

let e7 () =
  if !giant then e7_giant ()
  else begin
  section "E7  Claim 20: SparseNetwork degree bound and honest connectivity";
  Printf.printf "paper: max degree O(alpha n log n / h); honest subgraph connected w.h.p.\n\n";
  let rows =
    par_list
      (pick
         ~full:[ (64, 16); (128, 32); (256, 64); (512, 256) ]
         ~reduced:[ (64, 16); (128, 32); (256, 64) ])
      (fun (n, h) ->
        let params = Mpc.Params.make ~n ~h ~lambda:8 ~alpha:3 () in
        let sparse_spec =
          let open Analysis.Costs in
          Mpc.Sparse_network.cost_spec ~n:(Const n) ~h:(Const h) ~lambda:(Const 8)
            ~alpha:(Const 3)
        in
        let rng0 = prng (7 * n) in
        let trials = pick ~full:20 ~reduced:5 in
        let connected = ref 0 and aborts = ref 0 and maxdeg = ref 0 in
        let bits_acc = ref 0 and msgs_acc = ref 0 and rounds_acc = ref 0 in
        let pred_acc = ref zero_totals in
        let (), wall_ms =
          timed (fun () ->
              for seed = 1 to trials do
                let corruption = Netsim.Corruption.random rng0 ~n ~h in
                let net = Netsim.Net.create n in
                let rng = prng seed in
                let obs = Analysis.Costs.Obs.create () in
                let outs =
                  Mpc.Sparse_network.run ~obs net rng params ~corruption
                    ~adv:Mpc.Sparse_network.honest_adv
                in
                (* The obs carries the trial's structural union_degmax, so
                   checked_totals also asserts the spec's max_locality
                   formula against the measured peer counts. *)
                pred_acc :=
                  add_totals !pred_acc
                    (checked_totals ~env:(Analysis.Costs.env ~obs []) ~spec:sparse_spec net);
                bits_acc := !bits_acc + Netsim.Net.total_bits net;
                msgs_acc := !msgs_acc + Netsim.Net.messages_sent net;
                rounds_acc := !rounds_acc + Netsim.Net.rounds net;
                maxdeg := max !maxdeg (Mpc.Sparse_network.max_degree outs);
                if Mpc.Sparse_network.honest_subgraph_connected outs corruption then
                  incr connected;
                if
                  List.exists
                    (fun i -> Mpc.Outcome.is_abort outs.(i))
                    (Netsim.Corruption.honest_list corruption)
                then incr aborts
              done)
        in
        let run =
          {
            Analysis.Bench_io.experiment = "E7";
            series = Printf.sprintf "%d-trial total" trials;
            n;
            h;
            bits = !bits_acc;
            messages = !msgs_acc;
            rounds = !rounds_acc;
            wall_ms;
            seed = !base_seed;
            peak_rss_mb = Analysis.Bench_io.peak_rss_mb ();
            predicted_bits = Some !pred_acc.Analysis.Costs.bits_hi;
            predicted_bits_lo = Some !pred_acc.Analysis.Costs.bits_lo;
            predicted_messages = Some !pred_acc.Analysis.Costs.messages;
            predicted_rounds = Some !pred_acc.Analysis.Costs.rounds;
          }
        in
        (run, (trials, !connected, !aborts, !maxdeg, Mpc.Params.sparse_degree params)))
  in
  let t =
    Analysis.Table.create ~title:"20 trials per row"
      ~columns:[ "n"; "h"; "d"; "max degree"; "cap 3d"; "connected"; "honest aborts" ]
  in
  List.iter
    (fun ((r : Analysis.Bench_io.run), (trials, connected, aborts, maxdeg, d)) ->
      Analysis.Table.add_row t
        [ string_of_int r.n; string_of_int r.h; string_of_int d;
          string_of_int maxdeg; string_of_int (3 * d);
          Printf.sprintf "%d/%d" connected trials; Printf.sprintf "%d/%d" aborts trials ])
    rows;
  Analysis.Table.print t;
  List.map fst rows
  end

(* ------------------------------------------------------------------ *)
(* E8 — Claim 23: the covering claim                                   *)
(* ------------------------------------------------------------------ *)

(* E8 is network-free Monte Carlo, so its giant rows carry zero
   accounting; the records exist to pin the sweep's wall time and peak
   RSS in the committed giant baseline. *)
let e8_giant () =
  section "E8  (giant tier) covering Monte Carlo at n up to 10^6";
  Printf.printf
    "same covering experiment as the full tier at n = 10^4..10^6: committee\n\
     sampled Bernoulli(alpha log n / sqrt h), each honest member covers\n\
     s = n/sqrt(h) parties.\n\n";
  let points =
    pick
      ~full:[ (10_000, 2_500, 3); (100_000, 50_000, 2); (1_000_000, 1_000_000, 1) ]
      ~reduced:[ (10_000, 2_500, 1) ]
  in
  let rows =
    List.map
      (fun (n, h, trials) ->
        let params = Mpc.Params.make ~n ~h ~lambda:8 ~alpha:2 () in
        let s = Mpc.Params.cover_size params in
        let p = Mpc.Params.local_committee_prob params in
        let rng = prng (n + h) in
        let covered_all = ref 0 and honest_members_acc = ref 0 in
        let (), wall_ms =
          timed (fun () ->
              for _ = 1 to trials do
                let committee = Util.Prng.subset_bernoulli rng ~n ~p in
                let honest_members = List.filter (fun c -> c mod 2 = 0) committee in
                honest_members_acc := !honest_members_acc + List.length honest_members;
                let covered = Bytes.make n '\000' in
                List.iter
                  (fun _c ->
                    List.iter
                      (fun i -> Bytes.set covered i '\001')
                      (Util.Prng.sample_without_replacement rng ~n ~k:s))
                  honest_members;
                let all = ref true in
                for i = 0 to n - 1 do
                  if Bytes.get covered i = '\000' then all := false
                done;
                if !all then incr covered_all
              done)
        in
        let run =
          {
            Analysis.Bench_io.experiment = "E8";
            series = Printf.sprintf "giant %d-trial total (no net)" trials;
            n;
            h;
            bits = 0;
            messages = 0;
            rounds = 0;
            wall_ms;
            seed = !base_seed;
            peak_rss_mb = Analysis.Bench_io.peak_rss_mb ();
            (* Network-free Monte Carlo: the spec is the zero spec, and
               the zero accounting must match it. *)
            predicted_bits = Some 0;
            predicted_bits_lo = Some 0;
            predicted_messages = Some 0;
            predicted_rounds = Some 0;
          }
        in
        (run, (s, trials, !honest_members_acc, !covered_all)))
      points
  in
  let t =
    Analysis.Table.create ~title:"giant covering sweep, alpha = 2"
      ~columns:[ "n"; "h"; "s = n/sqrt h"; "E[|C and H|]"; "all covered"; "wall s" ]
  in
  List.iter
    (fun ((r : Analysis.Bench_io.run), (s, trials, honest_members_acc, covered_all)) ->
      Analysis.Table.add_row t
        [ string_of_int r.n; string_of_int r.h; string_of_int s;
          string_of_int (honest_members_acc / trials);
          Printf.sprintf "%d/%d" covered_all trials;
          Printf.sprintf "%.1f" (r.wall_ms /. 1000.0) ])
    rows;
  Analysis.Table.print t;
  List.map fst rows

let e8 () =
  if !giant then e8_giant ()
  else begin
  section "E8  Claim 23: every party is covered by an honest committee member";
  Printf.printf
    "paper: with |C and H| >= alpha sqrt(h) log n / 2 honest members and\n\
     |S_c| = n/sqrt(h), every party is in some honest member's cover w.p.\n\
     1 - n^-Omega(alpha).  Monte Carlo over the protocol's own randomness,\n\
     with half the parties honest.\n\n";
  let rows =
    par_list
      [ (64, 32); (128, 64); (256, 128); (512, 256) ]
      (fun (n, h) ->
        let params = Mpc.Params.make ~n ~h ~lambda:8 ~alpha:2 () in
        let s = Mpc.Params.cover_size params in
        let p = Mpc.Params.local_committee_prob params in
        let rng = prng (n + h) in
        let trials = pick ~full:50 ~reduced:20 in
        let covered_all = ref 0 and honest_members_acc = ref 0 in
        for _ = 1 to trials do
          let committee = Util.Prng.subset_bernoulli rng ~n ~p in
          let honest_members = List.filter (fun c -> c mod 2 = 0) committee in
          honest_members_acc := !honest_members_acc + List.length honest_members;
          let covered = Array.make n false in
          List.iter
            (fun _c ->
              List.iter
                (fun i -> covered.(i) <- true)
                (Util.Prng.sample_without_replacement rng ~n ~k:s))
            honest_members;
          if Array.for_all (fun c -> c) covered then incr covered_all
        done;
        (n, h, s, trials, !honest_members_acc, !covered_all))
  in
  let t =
    Analysis.Table.create ~title:"50 trials per row"
      ~columns:[ "n"; "h"; "s = n/sqrt h"; "E[|C and H|]"; "all covered" ]
  in
  List.iter
    (fun (n, h, s, trials, honest_members_acc, covered_all) ->
      Analysis.Table.add_row t
        [ string_of_int n; string_of_int h; string_of_int s;
          string_of_int (honest_members_acc / trials);
          Printf.sprintf "%d/%d" covered_all trials ])
    rows;
  Analysis.Table.print t;
  []
  end

(* ------------------------------------------------------------------ *)
(* E9 — §2.1 baseline: GL05 O(n³) vs fingerprinted Õ(n²)               *)
(* ------------------------------------------------------------------ *)

(* Cost spec of one honest all-to-all over the full party set with
   uniform [len]-byte inputs (closed form: no observables). *)
let a2a_totals ?(async = false) ~variant ~n ~len net =
  let open Analysis.Costs in
  let spec =
    Mpc.All_to_all.cost_spec ~variant ~k:(Const n)
      ~idsum:(Const (varint_sum_ids (List.init n (fun i -> i))))
      ~len:(Const len) ~n:(Const n) ~lambda:(Const 8)
  in
  (if async then async_checked_totals else checked_totals) ~env:(env []) ~spec net

(* The --async E9 rows: both variants at small n on the event transport,
   512-byte inputs as in the full tier. *)
let e9_async () =
  section "E9  (--async) all-to-all broadcast on the adversarial event transport";
  let rows =
    par_list [ 8; 16; 32 ] (fun n ->
        let params = Mpc.Params.make ~n ~h:(n / 2) ~lambda:8 ~alpha:2 () in
        let corruption = Netsim.Corruption.none ~n in
        let participants = List.init n (fun i -> i) in
        let input i =
          Crypto.Kdf.expand ~key:(Bytes.of_string (string_of_int i)) ~info:"e9" 512
        in
        let cost name variant =
          let net = async_net ~seed:n n in
          let rng = prng n in
          let outs, wall_ms =
            timed (fun () ->
                Mpc.All_to_all.run ~deadline:async_deadline net rng params ~variant
                  ~participants ~input ~corruption ~adv:Mpc.All_to_all.honest_adv)
          in
          assert (List.for_all (fun (_, o) -> Mpc.Outcome.is_output o) outs);
          let predicted = a2a_totals ~async:true ~variant ~n ~len:512 net in
          ( async_run_of_net ~predicted ~experiment:"E9" ~series:name ~n ~h:(n / 2) ~wall_ms
              net,
            predicted.Analysis.Costs.rounds )
        in
        ( cost "naive 512B (async)" Mpc.All_to_all.Naive,
          cost "fingerprinted 512B (async)" Mpc.All_to_all.Fingerprinted ))
  in
  let flat = List.concat_map (fun (a, b) -> [ a; b ]) rows in
  async_rounds_table flat;
  List.map fst flat

(* One huge-tier E9 row: honest all-to-all over 64-byte inputs, with
   its rounds sharded over [pool]. *)
let e9_row ?pool ~n name variant =
  let params = Mpc.Params.make ~n ~h:(n / 2) ~lambda:8 ~alpha:2 () in
  let corruption = Netsim.Corruption.none ~n in
  let participants = List.init n (fun i -> i) in
  let input i = Crypto.Kdf.expand ~key:(Bytes.of_string (string_of_int i)) ~info:"e9" 64 in
  let net = Netsim.Net.create n in
  let rng = prng n in
  let outs, wall_ms =
    timed (fun () ->
        Mpc.All_to_all.run ?pool net rng params ~variant ~participants ~input ~corruption
          ~adv:Mpc.All_to_all.honest_adv)
  in
  assert (List.for_all (fun (_, o) -> Mpc.Outcome.is_output o) outs);
  let predicted = a2a_totals ~variant ~n ~len:64 net in
  run_of_net ~predicted ~experiment:"E9" ~series:name ~n ~h:(n / 2) ~wall_ms net

let e9_huge () =
  section "E9  (huge tier) all-to-all broadcast at n up to 2048";
  Printf.printf
    "64-byte inputs keep one round's in-flight traffic in memory at\n\
     n = 2048.  naive is O(n^3 l) and capped at n <= 128 — the cap is the\n\
     point: past it only the fingerprinted protocol is feasible.\n\n";
  let naive_rows =
    List.map
      (fun n -> e9_row ?pool:!pool ~n "naive 64B" Mpc.All_to_all.Naive)
      (pick ~full:[ 64; 128 ] ~reduced:[ 64 ])
  in
  let fp_rows =
    List.map
      (fun n -> e9_row ?pool:!pool ~n "fingerprinted 64B" Mpc.All_to_all.Fingerprinted)
      (pick ~full:[ 256; 512; 1024; 2048 ] ~reduced:[ 1024 ])
  in
  let t =
    Analysis.Table.create ~title:"64-byte inputs, honest runs"
      ~columns:[ "series"; "n"; "bits"; "wall ms" ]
  in
  List.iter
    (fun (r : Analysis.Bench_io.run) ->
      Analysis.Table.add_row t
        [ r.series; string_of_int r.n; fmt_bits r.bits; Printf.sprintf "%.0f" r.wall_ms ])
    (naive_rows @ fp_rows);
  Analysis.Table.print t;
  naive_rows @ fp_rows

let e9 () =
  if !huge then e9_huge ()
  else begin
  section "E9  Sec 2.1: all-to-all broadcast, naive O(n^3 l) vs fingerprinted O~(n^2)";
  Printf.printf "paper: the fingerprint optimization shaves a factor n off GL05.\n\n";
  let rows =
    par_list [ 8; 16; 32; 48 ] (fun n ->
        let params = Mpc.Params.make ~n ~h:(n / 2) ~lambda:8 ~alpha:2 () in
        let corruption = Netsim.Corruption.none ~n in
        let participants = List.init n (fun i -> i) in
        let input i =
          Crypto.Kdf.expand ~key:(Bytes.of_string (string_of_int i)) ~info:"e9" 512
        in
        let cost name variant =
          let net = Netsim.Net.create n in
          let rng = prng n in
          let outs, wall_ms =
            timed (fun () ->
                Mpc.All_to_all.run net rng params ~variant ~participants ~input ~corruption
                  ~adv:Mpc.All_to_all.honest_adv)
          in
          assert (List.for_all (fun (_, o) -> Mpc.Outcome.is_output o) outs);
          let predicted = a2a_totals ~variant ~n ~len:512 net in
          run_of_net ~predicted ~experiment:"E9" ~series:name ~n ~h:(n / 2) ~wall_ms net
        in
        let naive = cost "naive 512B" Mpc.All_to_all.Naive in
        let fp = cost "fingerprinted 512B" Mpc.All_to_all.Fingerprinted in
        (naive, fp))
  in
  let t =
    Analysis.Table.create ~title:"512-byte inputs, honest run"
      ~columns:[ "n"; "naive bits"; "fingerprinted bits"; "speedup" ]
  in
  let ratios =
    List.map
      (fun ((naive : Analysis.Bench_io.run), (fp : Analysis.Bench_io.run)) ->
        Analysis.Table.add_row t
          [ string_of_int naive.n; fmt_bits naive.bits; fmt_bits fp.bits;
            Analysis.Table.fmt_ratio (float_of_int naive.bits /. float_of_int fp.bits) ];
        (float_of_int naive.n, float_of_int naive.bits /. float_of_int fp.bits))
      rows
  in
  Analysis.Table.print t;
  let slope, _, _ = Util.Stats.linear_fit (List.rev ratios) in
  Printf.printf "speedup grows linearly in n (slope %.2f per party) — the factor-n win.\n" slope;
  List.concat_map (fun (naive, fp) -> [ naive; fp ]) rows
  @ (if !async_mode then e9_async () else [])
  end

(* ------------------------------------------------------------------ *)
(* E10 — Equation (1): phase decomposition of Algorithm 8              *)
(* ------------------------------------------------------------------ *)

let e10 () =
  section "E10  Equation (1): Algorithm 8 phase balance";
  Printf.printf
    "paper: cost = O(|C| d n) election + O~(|C|^2 s) interaction + O~(|C|^2)\n\
     computation, balanced at |C| = s = O~(n/sqrt h).  We sweep the cover\n\
     size s around the optimum n/sqrt(h) at fixed (n, h).\n\n";
  let n = 96 and h = 25 in
  let rows =
    par_list
      (pick ~full:[ 1; 2; 5; 19; 38; 96 ] ~reduced:[ 2; 5; 19; 38 ])
      (fun s ->
        let params = Mpc.Params.make ~n ~h ~lambda:8 ~alpha:1 () in
        let pke = sim_pke 10 in
        let circuit = Circuit.parity ~n in
        let config = { Mpc.Local_mpc.params; pke; circuit; input_width = 1 } in
        let corruption = Netsim.Corruption.none ~n in
        let inputs = Array.init n (fun i -> i land 1) in
        let net = Netsim.Net.create n in
        let rng = prng (100 + s) in
        let obs = Analysis.Costs.Obs.create () in
        let (outs, costs), wall_ms =
          timed (fun () ->
              Mpc.Local_mpc.run_theorem4_metered ~cover_size:s ?pool:!pool ~obs net rng config
                ~corruption ~inputs ~adv:Mpc.Local_mpc.honest_theorem4_adv)
        in
        let aborts =
          Array.fold_left (fun a o -> a + if Mpc.Outcome.is_abort o then 1 else 0) 0 outs
        in
        let predicted = thm4_totals ~pke ~circuit ~input_width:1 ~n ~h ~alpha:1 ~obs net in
        ( run_of_net ~predicted ~experiment:"E10" ~series:(Printf.sprintf "cover s=%d" s) ~n
            ~h ~wall_ms net,
          (s, costs, aborts) ))
  in
  let params = Mpc.Params.make ~n ~h ~lambda:8 ~alpha:1 () in
  let t =
    Analysis.Table.create
      ~title:
        (Printf.sprintf "n = %d, h = %d, optimum s = n/sqrt(h) = %d" n h
           (Mpc.Params.cover_size params))
      ~columns:
        [ "s"; "election"; "cover+out"; "exchange"; "equality"; "compute"; "total"; "aborts" ]
  in
  List.iter
    (fun ((r : Analysis.Bench_io.run), (s, costs, aborts)) ->
      Analysis.Table.add_row t
        [ string_of_int s; fmt_bits costs.Mpc.Local_mpc.election_bits;
          fmt_bits (costs.Mpc.Local_mpc.cover_bits + costs.Mpc.Local_mpc.output_bits);
          fmt_bits costs.Mpc.Local_mpc.exchange_bits;
          fmt_bits costs.Mpc.Local_mpc.equality_bits;
          fmt_bits (costs.Mpc.Local_mpc.keygen_bits + costs.Mpc.Local_mpc.compute_bits);
          fmt_bits r.bits; string_of_int aborts ])
    rows;
  Analysis.Table.print t;
  Printf.printf
    "shape check: small s under-covers (aborts); large s inflates the exchange\n\
     term |C|^2 s; the optimum sits near n/sqrt(h) with zero aborts.\n";
  List.map fst rows

(* ------------------------------------------------------------------ *)
(* E11 — round complexity                                              *)
(* ------------------------------------------------------------------ *)

let e11 () =
  section "E11  Round complexity of the protocols (GL05 comparison)";
  let n = 48 and h = 24 in
  let params = Mpc.Params.make ~n ~h ~lambda:8 ~alpha:2 () in
  let corruption = Netsim.Corruption.none ~n in
  (* Each protocol closure also returns its evaluated cost-spec totals,
     so every E11 row carries (and is checked against) its prediction. *)
  let protocols : (string * (Netsim.Net.t -> Analysis.Costs.totals)) list =
    [
      ( "single-source broadcast (naive)",
        fun net ->
          let rng = prng 1 in
          ignore
            (Mpc.Broadcast.run net rng params ~variant:Mpc.Broadcast.Naive ~sender:0
               ~value:(Bytes.make 64 'v') ~corruption ~adv:Mpc.Broadcast.honest_adv);
          let open Analysis.Costs in
          let spec =
            Mpc.Broadcast.cost_spec ~variant:Mpc.Broadcast.Naive ~n:(Const n)
              ~lambda:(Const 8) ~len:(Const 64)
          in
          checked_totals ~env:(env []) ~spec net );
      ( "single-source broadcast (fingerprinted)",
        fun net ->
          let rng = prng 2 in
          ignore
            (Mpc.Broadcast.run net rng params ~variant:Mpc.Broadcast.Fingerprinted ~sender:0
               ~value:(Bytes.make 64 'v') ~corruption ~adv:Mpc.Broadcast.honest_adv);
          let open Analysis.Costs in
          let spec =
            Mpc.Broadcast.cost_spec ~variant:Mpc.Broadcast.Fingerprinted ~n:(Const n)
              ~lambda:(Const 8) ~len:(Const 64)
          in
          checked_totals ~env:(env []) ~spec net );
      ( "all-to-all broadcast (fingerprinted)",
        fun net ->
          let rng = prng 3 in
          ignore
            (Mpc.All_to_all.run net rng params ~variant:Mpc.All_to_all.Fingerprinted
               ~participants:(List.init n (fun i -> i))
               ~input:(fun i -> Bytes.make 64 (Char.chr (65 + (i mod 26))))
               ~corruption ~adv:Mpc.All_to_all.honest_adv);
          a2a_totals ~variant:Mpc.All_to_all.Fingerprinted ~n ~len:64 net );
      ( "committee election (Alg 2)",
        fun net ->
          let rng = prng 4 in
          let obs = Analysis.Costs.Obs.create () in
          ignore
            (Mpc.Committee.run ~obs net rng params ~corruption ~adv:Mpc.Committee.honest_adv);
          let open Analysis.Costs in
          let spec = Mpc.Committee.cost_spec ~n:(Const n) ~lambda:(Const 8) in
          checked_totals ~env:(env ~obs []) ~spec net );
      ( "MPC with abort (Alg 3, Thm 1)",
        fun net ->
          let rng = prng 5 in
          let pke = sim_pke 11 in
          let circuit = Circuit.parity ~n in
          let config = { Mpc.Mpc_abort.params; pke; circuit; input_width = 1 } in
          let obs = Analysis.Costs.Obs.create () in
          ignore
            (Mpc.Mpc_abort.run ~obs net rng config ~corruption ~inputs:(Array.make n 0)
               ~adv:Mpc.Mpc_abort.honest_adv);
          alg3_totals ~pke ~circuit ~input_width:1 ~n ~obs net );
      ( "gossip MPC (Thm 2)",
        fun net ->
          let rng = prng 6 in
          let circuit = Circuit.parity ~n in
          let config = { Mpc.Local_mpc.params; pke = sim_pke 12; circuit; input_width = 1 } in
          let obs = Analysis.Costs.Obs.create () in
          ignore
            (Mpc.Local_mpc.run_theorem2 ?pool:!pool ~obs net rng config ~corruption
               ~inputs:(Array.make n 0) ~adv:Mpc.Local_mpc.honest_theorem2_adv);
          let open Analysis.Costs in
          let spec =
            Mpc.Local_mpc.cost_spec_theorem2 ~n:(Const n) ~h:(Const h) ~lambda:(Const 8)
              ~alpha:(Const 2)
              ~depth:(Const (Circuit.depth circuit))
              ~input_width:(Const 1)
              ~out_bits:(Const (Circuit.num_outputs circuit))
          in
          checked_totals ~env:(env ~obs []) ~spec net );
      ( "local MPC (Alg 8, Thm 4)",
        fun net ->
          let rng = prng 7 in
          let pke = sim_pke 13 in
          let circuit = Circuit.parity ~n in
          let config = { Mpc.Local_mpc.params; pke; circuit; input_width = 1 } in
          let obs = Analysis.Costs.Obs.create () in
          ignore
            (Mpc.Local_mpc.run_theorem4 ?pool:!pool ~obs net rng config ~corruption
               ~inputs:(Array.make n 0) ~adv:Mpc.Local_mpc.honest_theorem4_adv);
          thm4_totals ~pke ~circuit ~input_width:1 ~n ~h ~alpha:2 ~obs net );
    ]
  in
  let rows =
    par_list protocols (fun (name, f) ->
        let net = Netsim.Net.create n in
        let predicted, wall_ms = timed (fun () -> f net) in
        ( run_of_net ~predicted ~experiment:"E11" ~series:name ~n ~h ~wall_ms net,
          Netsim.Net.max_locality net ))
  in
  let t =
    Analysis.Table.create
      ~title:(Printf.sprintf "n = %d, h = %d, honest runs" n h)
      ~columns:[ "protocol"; "rounds"; "bits"; "max locality" ]
  in
  List.iter
    (fun ((r : Analysis.Bench_io.run), loc) ->
      Analysis.Table.add_row t
        [ r.series; string_of_int r.rounds; fmt_bits r.bits; string_of_int loc ])
    rows;
  Analysis.Table.print t;
  Printf.printf "constant round counts, as in GL05 (locality protocols add gossip rounds).\n";
  List.map fst rows

(* ------------------------------------------------------------------ *)
(* E12 — crypto substrate microbenchmarks (bechamel)                   *)
(* ------------------------------------------------------------------ *)

(* Deliberately sequential: bechamel's ns/op estimates would be distorted
   by concurrent load, so this experiment ignores --jobs. *)
let e12 () =
  section "E12  Crypto substrate microbenchmarks (Bechamel, ns/op)";
  let open Bechamel in
  let open Toolkit in
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
  let tests =
    [
      Test.make ~name:"sha256-64B" (Staged.stage (fun () -> Crypto.Sha256.digest data64));
      Test.make ~name:"sha256-4KB" (Staged.stage (fun () -> Crypto.Sha256.digest data4k));
      Test.make ~name:"hmac-64B" (Staged.stage (fun () -> Crypto.Hmac.mac ~key data64));
      Test.make ~name:"regev-encrypt-1B"
        (Staged.stage (fun () -> Crypto.Lwe.encrypt_bytes rng lwe_pk (Bytes.make 1 'x')));
      Test.make ~name:"regev-decrypt-1B"
        (Staged.stage (fun () -> Crypto.Lwe.decrypt_bytes lwe_sk ct1));
      Test.make ~name:"fingerprint-residue-4KB"
        (Staged.stage (fun () -> Crypto.Fingerprint.residue data4k prime));
      Test.make ~name:"shamir-share-3of5-64B"
        (Staged.stage (fun () ->
             Crypto.Secret_sharing.share_bytes_shamir shamir_rng ~threshold:3 ~parties:5 data64));
      Test.make ~name:"ske-encrypt-64B"
        (Staged.stage (fun () -> Crypto.Ske.encrypt rng ske_key data64));
      Test.make ~name:"ske-decrypt-64B"
        (Staged.stage (fun () -> Crypto.Ske.decrypt ske_key ske_ct));
      Test.make ~name:"lamport-verify-64B"
        (Staged.stage (fun () -> Crypto.Lamport.verify lamport_pk data64 lamport_sig));
    ]
  in
  let grouped = Test.make_grouped ~name:"crypto" ~fmt:"%s/%s" tests in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg
      ~limit:(pick ~full:1000 ~reduced:200)
      ~stabilize:false
      ~quota:(Time.second (pick ~full:0.25 ~reduced:0.05))
      ()
  in
  let raw = Benchmark.all cfg instances grouped in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let t = Analysis.Table.create ~title:"" ~columns:[ "primitive"; "ns/op" ] in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  List.iter
    (fun (name, r) ->
      let est =
        match Analyze.OLS.estimates r with
        | Some (e :: _) -> e
        | Some [] | None -> nan
      in
      Analysis.Table.add_row t [ name; Printf.sprintf "%.0f" est ])
    (List.sort compare rows);
  Analysis.Table.print t;
  []

(* ------------------------------------------------------------------ *)
(* E13 — baseline crossover: GMW vs Algorithm 3                        *)
(* ------------------------------------------------------------------ *)

let e13_huge () =
  section "E13  (huge tier) GMW vs Algorithm 3 deep past the crossover";
  Printf.printf
    "GMW's Theta(n^2)-per-gate traffic is capped at n <= 384 (tens of\n\
     seconds of simulated all-to-all openings beyond); Algorithm 3\n\
     continues to n = 2048 where committee delegation wins outright.\n\n";
  let gmw_point n =
    let circuit = Circuit.majority ~n in
    let inputs = Array.init n (fun i -> i land 1) in
    let corruption = Netsim.Corruption.none ~n in
    let net = Netsim.Net.create n in
    let rng = prng n in
    let (), wall_ms =
      timed (fun () ->
          ignore
            (Mpc.Gmw.run net rng ~circuit ~input_width:1 ~inputs ~corruption
               ~adv:Mpc.Gmw.honest_adv))
    in
    let predicted =
      let open Analysis.Costs in
      let spec = Mpc.Gmw.cost_spec ~circuit ~input_width:1 ~n:(Const n) in
      checked_totals ~env:(env []) ~spec net
    in
    run_of_net ~predicted ~experiment:"E13" ~series:"gmw majority" ~n ~h:0 ~wall_ms net
  in
  let alg3_point n =
    let circuit = Circuit.majority ~n in
    let inputs = Array.init n (fun i -> i land 1) in
    let corruption = Netsim.Corruption.none ~n in
    let params = Mpc.Params.make ~n ~h:(n / 4) ~lambda:8 ~alpha:2 () in
    let pke = sim_pke n in
    let config = { Mpc.Mpc_abort.params; pke; circuit; input_width = 1 } in
    let net = Netsim.Net.create n in
    let rng = prng (n + 1) in
    let obs = Analysis.Costs.Obs.create () in
    let (), wall_ms =
      timed (fun () ->
          ignore
            (Mpc.Mpc_abort.run ?pool:!pool ~obs net rng config ~corruption ~inputs
               ~adv:Mpc.Mpc_abort.honest_adv))
    in
    let predicted = alg3_totals ~pke ~circuit ~input_width:1 ~n ~obs net in
    run_of_net ~predicted ~experiment:"E13" ~series:"alg3 majority h=n/4" ~n ~h:(n / 4)
      ~wall_ms net
  in
  let gmw_rows = List.map gmw_point (pick ~full:[ 384 ] ~reduced:[ 128 ]) in
  let alg3_rows = List.map alg3_point (pick ~full:[ 512; 1024; 2048 ] ~reduced:[ 512 ]) in
  let t =
    Analysis.Table.create ~title:"honest runs, h = n/4 for Alg 3"
      ~columns:[ "series"; "n"; "bits"; "wall ms" ]
  in
  List.iter
    (fun (r : Analysis.Bench_io.run) ->
      Analysis.Table.add_row t
        [ r.series; string_of_int r.n; fmt_bits r.bits; Printf.sprintf "%.0f" r.wall_ms ])
    (gmw_rows @ alg3_rows);
  Analysis.Table.print t;
  gmw_rows @ alg3_rows

let e13 () =
  if !huge then e13_huge ()
  else begin
  section "E13  Baseline: generic GMW vs the committee protocol (Algorithm 3)";
  Printf.printf
    "the intro's motivation: generic point-to-point MPC pays Theta(n^2) per\n\
     multiplicative gate (every Beaver opening is an all-to-all exchange),\n\
     while Algorithm 3 delegates to a committee and pays O~(n^2/h) total.\n\
     f = majority(n), so the gate count itself grows with n.\n\n";
  let rows =
    par_list
      (pick ~full:[ 16; 32; 64; 128; 256; 384 ] ~reduced:[ 16; 32; 64; 128 ])
      (fun n ->
        let circuit = Circuit.majority ~n in
        let inputs = Array.init n (fun i -> i land 1) in
        let corruption = Netsim.Corruption.none ~n in
        let gmw =
          let net = Netsim.Net.create n in
          let rng = prng n in
          let (), wall_ms =
            timed (fun () ->
                ignore
                  (Mpc.Gmw.run net rng ~circuit ~input_width:1 ~inputs ~corruption
                     ~adv:Mpc.Gmw.honest_adv))
          in
          let predicted =
            let open Analysis.Costs in
            let spec = Mpc.Gmw.cost_spec ~circuit ~input_width:1 ~n:(Const n) in
            checked_totals ~env:(env []) ~spec net
          in
          run_of_net ~predicted ~experiment:"E13" ~series:"gmw majority" ~n ~h:0 ~wall_ms net
        in
        let alg3 =
          let params = Mpc.Params.make ~n ~h:(n / 4) ~lambda:8 ~alpha:2 () in
          let pke = sim_pke n in
          let config = { Mpc.Mpc_abort.params; pke; circuit; input_width = 1 } in
          let net = Netsim.Net.create n in
          let rng = prng (n + 1) in
          let obs = Analysis.Costs.Obs.create () in
          let (), wall_ms =
            timed (fun () ->
                ignore
                  (Mpc.Mpc_abort.run ~obs net rng config ~corruption ~inputs
                     ~adv:Mpc.Mpc_abort.honest_adv))
          in
          let predicted = alg3_totals ~pke ~circuit ~input_width:1 ~n ~obs net in
          run_of_net ~predicted ~experiment:"E13" ~series:"alg3 majority h=n/4" ~n ~h:(n / 4)
            ~wall_ms net
        in
        (gmw, alg3, Mpc.Gmw.triples_used ~circuit))
  in
  let t =
    Analysis.Table.create ~title:"honest runs, h = n/4 for Alg 3"
      ~columns:[ "n"; "AND gates"; "GMW bits"; "Alg 3 bits"; "winner" ]
  in
  List.iter
    (fun ((gmw : Analysis.Bench_io.run), (alg3 : Analysis.Bench_io.run), gates) ->
      Analysis.Table.add_row t
        [ string_of_int gmw.n; string_of_int gates; fmt_bits gmw.bits; fmt_bits alg3.bits;
          (if gmw.bits < alg3.bits then
             Printf.sprintf "GMW %.1fx" (float_of_int alg3.bits /. float_of_int gmw.bits)
           else Printf.sprintf "Alg3 %.1fx" (float_of_int gmw.bits /. float_of_int alg3.bits))
        ])
    rows;
  Analysis.Table.print t;
  Printf.printf
    "shape check: GMW wins at small n (tiny constants), Algorithm 3 overtakes\n\
     as n grows — the crossover the paper's committee delegation buys.\n\
     GMW also gives no abort guarantee against active adversaries (see\n\
     test_gmw's share-flip attack), unlike every protocol in this library.\n";
  List.concat_map (fun (gmw, alg3, _) -> [ gmw; alg3 ]) rows
  end

(* ------------------------------------------------------------------ *)
(* E14 — Remark 10: poly(lambda, D) vs poly(lambda, C)                 *)
(* ------------------------------------------------------------------ *)

let e14 () =
  section "E14  Remark 10: LWE/depth-based vs OT/size-based instantiation";
  Printf.printf
    "paper: replacing the LWE-based Theorem 9 machinery by two-round OT +\n\
     garbled circuits weakens the assumption but the broadcast payload\n\
     grows with circuit SIZE C instead of depth D.  Left: the Theorem 9\n\
     round-1 payload under both polynomials.  Right: a concrete n = 2 data\n\
     point — our real Yao+LWE-OT protocol vs Algorithm 3 at n = 2.\n\n";
  let t =
    Analysis.Table.create ~title:"Theorem 9 round-1 bytes per party (lambda = 8, 8-bit inputs)"
      ~columns:[ "f"; "D"; "C"; "poly(l,D) bytes"; "poly(l,C) bytes"; "ratio" ]
  in
  List.iter
    (fun (name, circuit) ->
      let d = Circuit.depth circuit and c = Circuit.size circuit in
      let by_depth = Mpc.Cost_model.round1_bytes ~lambda:8 ~depth:d ~input_bits:8 in
      let by_size = Mpc.Cost_model.round1_bytes ~lambda:8 ~depth:c ~input_bits:8 in
      Analysis.Table.add_row t
        [ name; string_of_int d; string_of_int c; string_of_int by_depth;
          string_of_int by_size;
          Analysis.Table.fmt_ratio (float_of_int by_size /. float_of_int by_depth) ])
    [
      ("parity(64)", Circuit.parity ~n:64);
      ("majority(64)", Circuit.majority ~n:64);
      ("sum(16, w=8)", Circuit.sum ~n:16 ~width:8);
      ("auction(16, w=8)", Circuit.second_price_auction ~n:16 ~width:8);
    ];
  Analysis.Table.print t;
  print_newline ();
  (* Yao and Alg 3 share one RNG stream per width (Alg 3's randomness
     continues where Yao's stopped), so both stay in a single job. *)
  let rows =
    par_list [ 2; 4; 8 ] (fun width ->
        let circuit = Circuit.sum ~n:2 ~width in
        let rng = prng width in
        let yao =
          let net = Netsim.Net.create 2 in
          let (), wall_ms =
            timed (fun () ->
                match Mpc.Two_party.run net rng ~circuit ~input_width:width ~x0:1 ~x1:2 with
                | Mpc.Outcome.Output _ -> ()
                | Mpc.Outcome.Abort r -> failwith (Mpc.Outcome.reason_to_string r))
          in
          let predicted =
            let spec = Mpc.Two_party.cost_spec ~circuit ~input_width:width in
            checked_totals ~env:(Analysis.Costs.env []) ~spec net
          in
          run_of_net ~predicted ~experiment:"E14" ~series:(Printf.sprintf "yao w=%d" width)
            ~n:2 ~h:1 ~wall_ms net
        in
        let alg3 =
          let params = Mpc.Params.make ~n:2 ~h:1 ~lambda:8 ~alpha:2 () in
          let pke = (module Crypto.Pke.Regev : Crypto.Pke.S) in
          let config = { Mpc.Mpc_abort.params; pke; circuit; input_width = width } in
          let net = Netsim.Net.create 2 in
          let corruption = Netsim.Corruption.none ~n:2 in
          let obs = Analysis.Costs.Obs.create () in
          let (), wall_ms =
            timed (fun () ->
                ignore
                  (Mpc.Mpc_abort.run ~obs net rng config ~corruption ~inputs:[| 1; 2 |]
                     ~adv:Mpc.Mpc_abort.honest_adv))
          in
          let predicted = alg3_totals ~pke ~circuit ~input_width:width ~n:2 ~obs net in
          run_of_net ~predicted ~experiment:"E14" ~series:(Printf.sprintf "alg3 w=%d" width)
            ~n:2 ~h:1 ~wall_ms net
        in
        (width, yao, alg3))
  in
  let t2 =
    Analysis.Table.create ~title:"concrete n = 2: sum of two w-bit words, measured bits"
      ~columns:[ "w"; "Yao + LWE-OT (Remark 10)"; "Alg 3 (n=2, h=1)" ]
  in
  List.iter
    (fun (width, (yao : Analysis.Bench_io.run), (alg3 : Analysis.Bench_io.run)) ->
      Analysis.Table.add_row t2 [ string_of_int width; fmt_bits yao.bits; fmt_bits alg3.bits ])
    rows;
  Analysis.Table.print t2;
  Printf.printf
    "shape check: the size/depth gap is mild for shallow circuits and grows\n\
     with C/D — Remark 10's trade is visible and quantified.\n";
  List.concat_map (fun (_, yao, alg3) -> [ yao; alg3 ]) rows

(* ------------------------------------------------------------------ *)
(* pool-micro — Util.Pool.map_jobs dispatch overhead                   *)
(* ------------------------------------------------------------------ *)

(* Deliberately sequential and ignores --jobs: each measurement owns its
   pool (created and shut down here), and bechamel's ns/op estimates would
   be distorted by concurrent load.  Trivial jobs isolate pure scheduling
   cost — the atomic job-counter claim, worker wakeup, and result-slot
   write per job — which is the overhead every [Net.run_round] shard and
   every par_list sweep point pays on top of its real work. *)
let pool_micro () =
  section "pool-micro  Util.Pool.map_jobs dispatch overhead (ns/job)";
  let open Bechamel in
  let open Toolkit in
  let njobs = 256 in
  let jobs = Array.init njobs (fun i -> i) in
  let widths = [ 1; 8; 64 ] in
  let pools = List.map (fun d -> (d, Util.Pool.create ~num_domains:d ())) widths in
  let tests =
    List.map
      (fun (d, p) ->
        Test.make
          ~name:(Printf.sprintf "domains-%02d" d)
          (Staged.stage (fun () -> ignore (Util.Pool.map_jobs p jobs (fun x -> x + 1)))))
      pools
  in
  let grouped = Test.make_grouped ~name:"pool" ~fmt:"%s/%s" tests in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg
      ~limit:(pick ~full:1000 ~reduced:200)
      ~stabilize:false
      ~quota:(Time.second (pick ~full:0.25 ~reduced:0.05))
      ()
  in
  let raw = Benchmark.all cfg instances grouped in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let t =
    Analysis.Table.create
      ~title:(Printf.sprintf "%d trivial jobs per call, caller participates" njobs)
      ~columns:[ "pool"; "ns/call"; "ns/job" ]
  in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  List.iter
    (fun (name, r) ->
      let est =
        match Analyze.OLS.estimates r with
        | Some (e :: _) -> e
        | Some [] | None -> nan
      in
      Analysis.Table.add_row t
        [ name; Printf.sprintf "%.0f" est; Printf.sprintf "%.1f" (est /. float_of_int njobs) ])
    (List.sort compare rows);
  Analysis.Table.print t;
  Printf.printf
    "shape check: ns/job grows with pool width on a loaded machine (more\n\
     workers contending for the same counter) — batching per shard, as\n\
     run_round does, is what keeps the overhead amortized.\n";
  List.iter (fun (_, p) -> Util.Pool.shutdown p) pools;
  []

(* ------------------------------------------------------------------ *)
(* fp-micro — single-pass multi-prime fingerprint kernel throughput    *)
(* ------------------------------------------------------------------ *)

(* Byte/prime throughput of the E9 hot-loop kernel: [residues_many]
   (one pass per cache block, all primes per word) against the reference
   per-prime [residue] sweep, at message sizes 64B..1MB and prime counts
   t = 1/8/64.  Deliberately sequential and ignores --jobs, like E12 and
   pool-micro: bechamel's ns/op estimates would be distorted by
   concurrent load.  The t = 1 rows pin the kernel's no-win floor (one
   prime has nothing to interleave); the t = 64 rows are where the
   independent division chains overlap and the message is read once
   instead of 64 times. *)
let fp_micro () =
  section "fp-micro  Fingerprint.residues_many vs per-prime residue";
  let open Bechamel in
  let open Toolkit in
  let rng = prng 4242 in
  let sizes =
    pick ~full:[ 64; 4096; 65536; 1048576 ] ~reduced:[ 64; 65536 ]
  in
  let ts = pick ~full:[ 1; 8; 64 ] ~reduced:[ 1; 8 ] in
  let cases =
    List.concat_map
      (fun size ->
        let msg = Util.Prng.bytes rng size in
        List.map (fun t -> (size, t, msg, Crypto.Fingerprint.sample_primes rng t)) ts)
      sizes
  in
  let tests =
    List.concat_map
      (fun (size, t, msg, primes) ->
        let name impl = Printf.sprintf "%s-%dB-t%02d" impl size t in
        [
          Test.make ~name:(name "many")
            (Staged.stage (fun () -> Crypto.Fingerprint.residues_many msg primes));
          Test.make ~name:(name "loop")
            (Staged.stage (fun () -> Array.map (Crypto.Fingerprint.residue msg) primes));
        ])
      cases
  in
  let grouped = Test.make_grouped ~name:"fp" ~fmt:"%s/%s" tests in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg
      ~limit:(pick ~full:1000 ~reduced:200)
      ~stabilize:false
      ~quota:(Time.second (pick ~full:0.25 ~reduced:0.05))
      ()
  in
  let raw = Benchmark.all cfg instances grouped in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let t =
    Analysis.Table.create ~title:"throughput = msg bytes x primes / wall"
      ~columns:[ "case"; "ns/op"; "MBxprime/s" ]
  in
  let est_of name =
    match Hashtbl.find_opt results name with
    | Some r -> (match Analyze.OLS.estimates r with Some (e :: _) -> e | _ -> nan)
    | None -> nan
  in
  List.iter
    (fun (size, tcount, _, _) ->
      List.iter
        (fun impl ->
          let name = Printf.sprintf "fp/%s-%dB-t%02d" impl size tcount in
          let est = est_of name in
          let mbps = float_of_int (size * tcount) /. est *. 1000.0 in
          Analysis.Table.add_row t
            [ name; Printf.sprintf "%.0f" est; Printf.sprintf "%.0f" mbps ])
        [ "many"; "loop" ])
    cases;
  Analysis.Table.print t;
  Printf.printf
    "shape check: many/loop converge at t = 1 and diverge as t grows —\n\
     the kernel's win is one message sweep (and overlapped divisions)\n\
     for all t primes, so it scales with t while loop pays t sweeps.\n";
  []

(* ------------------------------------------------------------------ *)
(* cost-audit — symbolic cost specs vs measured accounting             *)
(* ------------------------------------------------------------------ *)

(* --only cost-audit: one honest execution of every protocol with a cost
   spec; each spec's per-phase breakdown is printed next to the measured
   counters and the totals are asserted — bits within the declared slack,
   messages and rounds exact.  Any mismatch fails the invocation with
   exit 1 (through [cost_mismatch]), which is what CI gates on.  Gossip
   and Enc_func have no standalone case here because their entry points
   need a routing graph / an elected committee; their specs are exercised
   through every pipeline that embeds them (local-committee, Thm 2,
   Alg 3, Alg 8).  Closes with the extrapolation table: the closed-form
   specs evaluated at n = 10⁴..10⁶ — three orders of magnitude past what
   the simulator executes — at the paper's h regimes. *)
let cost_audit () =
  section "cost-audit  Symbolic cost specs vs measured accounting";
  let n = pick ~full:48 ~reduced:16 in
  let h = n / 2 in
  let params = Mpc.Params.make ~n ~h ~lambda:8 ~alpha:2 () in
  let corruption = Netsim.Corruption.none ~n in
  let open Analysis.Costs in
  let a2a_case variant =
    let spec =
      Mpc.All_to_all.cost_spec ~variant ~k:(Const n)
        ~idsum:(Const (varint_sum_ids (List.init n (fun i -> i))))
        ~len:(Const 64) ~n:(Const n) ~lambda:(Const 8)
    in
    fun () ->
      let net = Netsim.Net.create n in
      let rng = prng 43 in
      ignore
        (Mpc.All_to_all.run net rng params ~variant
           ~participants:(List.init n (fun i -> i))
           ~input:(fun i -> Bytes.make 64 (Char.chr (65 + (i mod 26))))
           ~corruption ~adv:Mpc.All_to_all.honest_adv);
      (net, spec, env [])
  in
  let cases : (unit -> Netsim.Net.t * spec * env) list =
    [
      (fun () ->
        let eqp = Mpc.Params.make ~n:64 ~h:32 ~lambda:8 ~alpha:2 () in
        let net = Netsim.Net.create 2 in
        let rng = prng 41 in
        let m = Util.Prng.bytes rng 1024 in
        ignore (Mpc.Equality.run net rng eqp ~p1:0 ~p2:1 ~m1:m ~m2:(Bytes.copy m));
        (net, Mpc.Equality.cost_spec_run ~n:(Const 64) ~lambda:(Const 8) ~len:(Const 1024),
         env []));
      (fun () ->
        let net = Netsim.Net.create n in
        let rng = prng 42 in
        ignore
          (Mpc.Broadcast.run net rng params ~variant:Mpc.Broadcast.Naive ~sender:0
             ~value:(Bytes.make 64 'v') ~corruption ~adv:Mpc.Broadcast.honest_adv);
        ( net,
          Mpc.Broadcast.cost_spec ~variant:Mpc.Broadcast.Naive ~n:(Const n) ~lambda:(Const 8)
            ~len:(Const 64),
          env [] ));
      (fun () ->
        let net = Netsim.Net.create n in
        let rng = prng 42 in
        ignore
          (Mpc.Broadcast.run net rng params ~variant:Mpc.Broadcast.Fingerprinted ~sender:0
             ~value:(Bytes.make 64 'v') ~corruption ~adv:Mpc.Broadcast.honest_adv);
        ( net,
          Mpc.Broadcast.cost_spec ~variant:Mpc.Broadcast.Fingerprinted ~n:(Const n)
            ~lambda:(Const 8) ~len:(Const 64),
          env [] ));
      a2a_case Mpc.All_to_all.Naive;
      a2a_case Mpc.All_to_all.Fingerprinted;
      (fun () ->
        let net = Netsim.Net.create n in
        let rng = prng 44 in
        let obs = Obs.create () in
        ignore
          (Mpc.Sparse_network.run ~obs net rng params ~corruption
             ~adv:Mpc.Sparse_network.honest_adv);
        ( net,
          Mpc.Sparse_network.cost_spec ~n:(Const n) ~h:(Const h) ~lambda:(Const 8)
            ~alpha:(Const 2),
          env ~obs [] ));
      (fun () ->
        (* Standalone gossip over a deterministic degree-4 graph (ring +
           distance-2 chords): every party hears the rumor, so the spec's
           max_locality formula (graph_degmax) is exact. *)
        let net = Netsim.Net.create n in
        let rng = prng 52 in
        let graph =
          Array.init n (fun i ->
              Util.Iset.of_list
                [ (i + 1) mod n; (i + n - 1) mod n; (i + 2) mod n; (i + n - 2) mod n ])
        in
        let obs = Obs.create () in
        ignore
          (Mpc.Gossip.run ~obs net rng params ~graph
             ~sources:[ (0, Bytes.make 64 'r') ]
             ~corruption ~adv:Mpc.Gossip.honest_adv);
        (net, Mpc.Gossip.cost_spec ~len:(Const 64), env ~obs []));
      (fun () ->
        let net = Netsim.Net.create n in
        let rng = prng 45 in
        let obs = Obs.create () in
        ignore (Mpc.Committee.run ~obs net rng params ~corruption ~adv:Mpc.Committee.honest_adv);
        (net, Mpc.Committee.cost_spec ~n:(Const n) ~lambda:(Const 8), env ~obs []));
      (fun () ->
        let net = Netsim.Net.create n in
        let rng = prng 46 in
        let obs = Obs.create () in
        ignore
          (Mpc.Local_committee.run ~obs net rng params ~corruption
             ~adv:Mpc.Local_committee.honest_adv);
        ( net,
          Mpc.Local_committee.cost_spec ~n:(Const n) ~h:(Const h) ~lambda:(Const 8)
            ~alpha:(Const 2),
          env ~obs [] ));
      (fun () ->
        let pke = sim_pke 47 in
        let circuit = Circuit.parity ~n in
        let config = { Mpc.Mpc_abort.params; pke; circuit; input_width = 1 } in
        let net = Netsim.Net.create n in
        let rng = prng 47 in
        let obs = Obs.create () in
        ignore
          (Mpc.Mpc_abort.run ~obs net rng config ~corruption
             ~inputs:(Array.init n (fun i -> i land 1))
             ~adv:Mpc.Mpc_abort.honest_adv);
        ( net,
          Mpc.Mpc_abort.cost_spec ~pke
            ~depth:(Const (Circuit.depth circuit))
            ~input_width:(Const 1)
            ~out_bits:(Const (Circuit.num_outputs circuit))
            ~n:(Const n) ~lambda:(Const 8),
          env ~obs [] ));
      (fun () ->
        let circuit = Circuit.parity ~n in
        let config = { Mpc.Local_mpc.params; pke = sim_pke 48; circuit; input_width = 1 } in
        let net = Netsim.Net.create n in
        let rng = prng 48 in
        let obs = Obs.create () in
        ignore
          (Mpc.Local_mpc.run_theorem2 ~obs net rng config ~corruption
             ~inputs:(Array.init n (fun i -> i land 1))
             ~adv:Mpc.Local_mpc.honest_theorem2_adv);
        ( net,
          Mpc.Local_mpc.cost_spec_theorem2 ~n:(Const n) ~h:(Const h) ~lambda:(Const 8)
            ~alpha:(Const 2)
            ~depth:(Const (Circuit.depth circuit))
            ~input_width:(Const 1)
            ~out_bits:(Const (Circuit.num_outputs circuit)),
          env ~obs [] ));
      (fun () ->
        let pke = sim_pke 49 in
        let circuit = Circuit.parity ~n in
        let config = { Mpc.Local_mpc.params; pke; circuit; input_width = 1 } in
        let net = Netsim.Net.create n in
        let rng = prng 49 in
        let obs = Obs.create () in
        ignore
          (Mpc.Local_mpc.run_theorem4 ~obs net rng config ~corruption
             ~inputs:(Array.init n (fun i -> i land 1))
             ~adv:Mpc.Local_mpc.honest_theorem4_adv);
        ( net,
          Mpc.Local_mpc.cost_spec_theorem4 ~pke
            ~depth:(Const (Circuit.depth circuit))
            ~input_width:(Const 1)
            ~out_bits:(Const (Circuit.num_outputs circuit))
            ~n:(Const n) ~h:(Const h) ~lambda:(Const 8) ~alpha:(Const 2),
          env ~obs [] ));
      (fun () ->
        let ng = 32 in
        let circuit = Circuit.majority ~n:ng in
        let net = Netsim.Net.create ng in
        let rng = prng 50 in
        ignore
          (Mpc.Gmw.run net rng ~circuit ~input_width:1
             ~inputs:(Array.init ng (fun i -> i land 1))
             ~corruption:(Netsim.Corruption.none ~n:ng) ~adv:Mpc.Gmw.honest_adv);
        (net, Mpc.Gmw.cost_spec ~circuit ~input_width:1 ~n:(Const ng), env []));
      (fun () ->
        let circuit = Circuit.sum ~n:2 ~width:8 in
        let net = Netsim.Net.create 2 in
        let rng = prng 51 in
        (match Mpc.Two_party.run net rng ~circuit ~input_width:8 ~x0:3 ~x1:5 with
        | Mpc.Outcome.Output _ -> ()
        | Mpc.Outcome.Abort r -> failwith (Mpc.Outcome.reason_to_string r));
        (net, Mpc.Two_party.cost_spec ~circuit ~input_width:8, env []));
    ]
  in
  let all_ok = ref true in
  List.iter
    (fun case ->
      let net, spec, e = case () in
      let bits = Netsim.Net.total_bits net
      and messages = Netsim.Net.messages_sent net
      and rounds = Netsim.Net.rounds net in
      let v = check ~locality:(Netsim.Net.max_locality net) e spec ~bits ~messages ~rounds in
      Analysis.Table.print (phase_table e spec);
      Printf.printf "measured: %d bits, %d messages, %d rounds -> %s\n\n" bits messages
        rounds
        (if v.ok then "OK" else "MISMATCH");
      if not v.ok then begin
        all_ok := false;
        cost_mismatch := true;
        List.iter (Printf.printf "  %s\n") v.detail
      end)
    cases;
  Printf.printf "cost-audit: %s\n"
    (if !all_ok then "all specs match the measured accounting"
     else "MISMATCHES FOUND (exit 1)");
  (* Extrapolation: the closed-form specs evaluated where the simulator
     cannot follow.  The naive all-to-all column stops at n = 10^5: at
     10^6 its O(n^3 l) bit count overflows 63-bit arithmetic — which is
     the paper's point about that baseline.  Pipeline specs (Alg 3,
     Thm 2/4) consume realized observables, so they extrapolate through
     EXPERIMENTS.md's formulas rather than this table. *)
  let e = env [] in
  let isqrt x = int_of_float (sqrt (float_of_int x)) in
  let t =
    Analysis.Table.create
      ~title:"closed-form extrapolation (lambda = 8, 64-byte inputs, bits upper bounds)"
      ~columns:
        [ "n"; "h"; "sparse net"; "a2a naive"; "a2a fingerprinted"; "equality 1MB" ]
  in
  List.iter
    (fun (np, hp) ->
      let sparse =
        (totals e
           (Mpc.Sparse_network.cost_spec ~n:(Const np) ~h:(Const hp) ~lambda:(Const 8)
              ~alpha:(Const 2)))
          .bits_hi
      in
      let a2a variant =
        (totals e
           (Mpc.All_to_all.cost_spec ~variant ~k:(Const np)
              ~idsum:(sum_varint_below (Const np))
              ~len:(Const 64) ~n:(Const np) ~lambda:(Const 8)))
          .bits_hi
      in
      let eq =
        (totals e
           (Mpc.Equality.cost_spec_run ~n:(Const np) ~lambda:(Const 8)
              ~len:(Const 1_000_000)))
          .bits_hi
      in
      Analysis.Table.add_row t
        [ string_of_int np; string_of_int hp; fmt_bits sparse;
          (if np > 100_000 then "overflow" else fmt_bits (a2a Mpc.All_to_all.Naive));
          fmt_bits (a2a Mpc.All_to_all.Fingerprinted); fmt_bits eq ])
    (List.concat_map
       (fun np -> [ (np, np / 4); (np, isqrt np) ])
       [ 10_000; 100_000; 1_000_000 ]);
  Analysis.Table.print t;
  Printf.printf
    "the factor-n gap between the all-to-all columns is Sec 2.1's claim,\n\
     now as evaluated formulas rather than fitted exponents.\n";
  []

(* ------------------------------------------------------------------ *)
(* soak — Byzantine fault-injection sweep (opt-in via --only soak)      *)
(* ------------------------------------------------------------------ *)

(* --schedules K: how many fault schedules the sweep covers (default 200,
   30 under --quick).  --schedule K: replay exactly one schedule id and
   print each case verbosely — the command the soak runner prints for any
   violation.  Both set once at startup. *)
let soak_schedules : int option ref = ref None
let soak_schedule : int option ref = ref None

let soak () =
  let seed = match !base_seed with Some s -> s | None -> 1 in
  let describe_count rep =
    Printf.sprintf "%d cases over %d schedules" rep.Mpc.Soak.total_cases
      rep.Mpc.Soak.total_schedules
  in
  let async = !async_mode in
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
      match !soak_schedules with Some k -> k | None -> pick ~full:200 ~reduced:30
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

let experiments : (string * string * (unit -> Analysis.Bench_io.run list)) list =
  [
    ("E1", "Theorem 1: Alg 3 communication O~(n^2/h)", e1);
    ("E2", "Theorem 2: gossip MPC O~(n^3/h), locality O~(n/h)", e2);
    ("E3", "Theorem 4: Alg 8 O~(n^3/h^1.5), locality O~(n/sqrt h)", e3);
    ("E4", "Theorem 3: lower bound isolation attack", e4);
    ("E5", "Lemma 5: succinct equality testing", e5);
    ("E6", "Claims 12/14: committee election", e6);
    ("E7", "Claim 20: sparse network", e7);
    ("E8", "Claim 23: covering", e8);
    ("E9", "Sec 2.1: naive vs fingerprinted all-to-all", e9);
    ("E10", "Equation (1): Alg 8 phase balance", e10);
    ("E11", "round complexity", e11);
    ("E12", "crypto microbenchmarks", e12);
    ("E13", "baseline: GMW vs Algorithm 3 crossover", e13);
    ("E14", "Remark 10: depth-based vs size-based cost", e14);
    ("pool-micro", "Pool.map_jobs dispatch overhead (ns/job)", pool_micro);
    ("fp-micro", "Fingerprint kernel byte/prime throughput", fp_micro);
  ]

(* Opt-in experiments: runnable via --only, never part of the default
   sweep (soak is adversarial — it contributes no honest-cost run records
   and gates on predicates instead). *)
let extra_experiments : (string * string * (unit -> Analysis.Bench_io.run list)) list =
  [
    ("soak", "Byzantine fault-injection soak (--seed S --schedules K | --schedule K)", soak);
    ( "cost-audit",
      "symbolic cost specs vs measured counters (+ n=10^4..10^6 extrapolation)",
      cost_audit );
  ]

let all_experiments = experiments @ extra_experiments

let valid_ids () = String.concat " " (List.map (fun (id, _, _) -> id) all_experiments)

(* --list metadata: which tier flags cover each experiment and what each
   tier sweeps.  Hand-maintained next to the experiment bodies above —
   when a sweep changes, change its line here in the same commit. *)
let sweep_info : (string * string * string list) list =
  [
    ( "E1", "full quick huge",
      [ "full:  n in {64..512} h=n/4; n in {48..288} h=12; h in {16..224} n=256";
        "huge:  n in {512,1024,2048} h=n/4 (--quick: n=512)" ] );
    ( "E2", "full quick",
      [ "full:  n in {32,64,96,128} h=n/4; h in {12,24,48,80} n=96" ] );
    ( "E3", "full quick",
      [ "full:  n in {32,64,96,128,160} h=n/4; h in {16,32,64,100} n=128" ] );
    ( "E4", "full quick",
      [ "full:  n=96, h in {4,12} x degree in {1..32}, 400 trials (--quick: 80)" ] );
    ( "E5", "full quick",
      [ "full:  lambda in {2,4,8} x 1000 pairs; |m| in {1e2..1e6} bytes" ] );
    ( "E6", "full quick",
      [ "full:  (n,h) in {(64,16)..(512,128)}, 20 trials (--quick: drops n=512, 5 trials)" ] );
    ( "E7", "full quick giant",
      [ "full:  (n,h) in {(64,16)..(512,256)}, 20 trials (--quick: drops n=512, 5 trials)";
        "giant: O(activity) network, (n,h,trials) in {(1e4,2500,2),(1e5,5e4,1),(1e6,1e6,1)} (--quick: (1e4,2500,1))" ] );
    ( "E8", "full quick giant",
      [ "full:  (n,h) in {(64,32)..(512,256)}, 50 trials (--quick: 20)";
        "giant: (n,h,trials) in {(1e4,2500,3),(1e5,5e4,2),(1e6,1e6,1)} (--quick: (1e4,2500,1))" ] );
    ( "E9", "full quick huge",
      [ "full:  n in {8,16,32,48}, naive vs fingerprinted, 512B inputs";
        "huge:  naive n in {64,128}; fingerprinted n in {256..2048} (--quick: 64 / 1024), 64B inputs" ] );
    ( "E10", "full quick",
      [ "full:  n=96 h=25, cover size s in {1,2,5,19,38,96} (--quick: {2,5,19,38})" ] );
    ( "E11", "full quick", [ "both:  n=48 h=24, one round-count row per protocol" ] );
    ( "E12", "full quick",
      [ "both:  crypto primitive ns/op (bechamel); --quick shrinks quotas; ignores --jobs" ] );
    ( "E13", "full quick huge",
      [ "full:  n in {16..384} both protocols (--quick: n <= 128)";
        "huge:  gmw n=384, alg3 n in {512,1024,2048} (--quick: 128 / 512)" ] );
    ( "E14", "full quick", [ "both:  widths w in {2,4,8}; Yao+LWE-OT vs Alg 3 at n=2" ] );
    ( "pool-micro", "full quick",
      [ "both:  pool widths {1,8,64}, 256 jobs/call; ignores --jobs" ] );
    ( "fp-micro", "full quick",
      [ "full:  sizes {64,4K,64K,1M} x t in {1,8,64} (--quick: {64,64K} x {1,8}); ignores --jobs" ] );
    ( "soak", "opt-in (--only soak)",
      [ "sweep: 200 fault schedules (--quick: 30); --schedules K / --schedule K override";
        "--async: every case on a derived adversarially-scheduled event transport" ] );
    ( "cost-audit", "opt-in (--only cost-audit)",
      [ "14 honest executions, one per cost spec, phase tables + assertions";
        "closed-form extrapolation table at n = 10^4..10^6" ] );
  ]

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
  let rep =
    try Analysis.Bench_io.load path with
    | Sys_error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1
    | Failure msg | Analysis.Json.Parse_error msg ->
      Printf.eprintf "error: %s is not a bench report: %s\n" path msg;
      exit 1
  in
  let checked = ref 0 and mismatched = ref 0 and skipped = ref 0 in
  let scan fmt s = try Some (Scanf.sscanf s fmt (fun k -> k)) with _ -> None in
  List.iter
    (fun (r : Analysis.Bench_io.run) ->
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
        if r.bits < t.Analysis.Costs.bits_lo || r.bits > t.Analysis.Costs.bits_hi then
          complain "bits %d outside predicted [%d, %d]" r.bits t.Analysis.Costs.bits_lo
            t.Analysis.Costs.bits_hi;
        if r.messages <> t.Analysis.Costs.messages then
          complain "messages %d <> predicted %d" r.messages t.Analysis.Costs.messages;
        if r.rounds <> t.Analysis.Costs.rounds then
          complain "rounds %d <> predicted %d" r.rounds t.Analysis.Costs.rounds
      in
      let scale k (t : Analysis.Costs.totals) =
        {
          Analysis.Costs.bits_hi = k * t.Analysis.Costs.bits_hi;
          bits_lo = k * t.Analysis.Costs.bits_lo;
          messages = k * t.Analysis.Costs.messages;
          rounds = k * t.Analysis.Costs.rounds;
        }
      in
      match r.experiment with
      | "E7" -> (
        let sparse alpha =
          let open Analysis.Costs in
          totals (env [])
            (Mpc.Sparse_network.cost_spec ~n:(Const r.n) ~h:(Const r.h) ~lambda:(Const 8)
               ~alpha:(Const alpha))
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

let iso_date () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday

(* Every flag the CLI accepts, with the number of operands it takes. *)
let flags =
  [ ("--quick", 0); ("--huge", 0); ("--giant", 0); ("--async", 0); ("--list", 0);
    ("--only", 1); ("--jobs", 1); ("--json", 1); ("--seed", 1); ("--schedules", 1);
    ("--schedule", 1); ("--max-wall-s", 1); ("--max-rss-mb", 1); ("--audit", 1);
    ("--diff", 2) ]

(* Exit 1 on a [--flag] that is not in [flags], so a misspelled or
   retired flag fails loudly instead of being ignored.  Operands of known
   flags are skipped, whatever they look like. *)
let reject_unknown_flags args =
  let rec go = function
    | [] -> ()
    | a :: rest -> (
      match List.assoc_opt a flags with
      | Some k -> go (List.filteri (fun i _ -> i >= k) rest)
      | None when String.starts_with ~prefix:"--" a ->
        Printf.eprintf "error: unknown flag %S; valid flags: %s\n" a
          (String.concat " " (List.map fst flags));
        exit 1
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

let parse_jobs s =
  if s = "max" then Util.Pool.default_num_domains () + 1
  else
    match int_of_string_opt s with
    | Some j when j >= 1 -> j
    | _ ->
      Printf.eprintf "error: --jobs expects a positive integer or \"max\", got %S\n" s;
      exit 1

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  reject_unknown_flags args;
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
    let load path =
      try Analysis.Bench_io.load path with
      | Sys_error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 1
      | Failure msg | Analysis.Json.Parse_error msg ->
        Printf.eprintf "error: %s is not a bench report: %s\n" path msg;
        exit 1
    in
    let before = load a and after = load b in
    let matched, drifted = Analysis.Bench_io.print_diff ~before ~after in
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
    | None ->
    if List.mem "--list" args then
      List.iter
        (fun (id, desc, _) ->
          Printf.printf "%-4s %s\n" id desc;
          match List.find_opt (fun (sid, _, _) -> sid = id) sweep_info with
          | None -> ()
          | Some (_, tiers, sweeps) ->
            Printf.printf "       tiers: %s\n" tiers;
            List.iter (Printf.printf "       %s\n") sweeps)
        all_experiments
    else begin
      quick := List.mem "--quick" args;
      huge := List.mem "--huge" args;
      giant := List.mem "--giant" args;
      async_mode := List.mem "--async" args;
      if !huge && !giant then begin
        Printf.eprintf "error: --huge and --giant select disjoint tiers; pick one\n";
        exit 1
      end;
      let int_arg flag =
        match find_arg args flag with
        | None -> None
        | Some s ->
          (match int_of_string_opt s with
          | Some v -> Some v
          | None ->
            Printf.eprintf "error: %s expects an integer, got %S\n" flag s;
            exit 1)
      in
      base_seed := int_arg "--seed";
      soak_schedules := int_arg "--schedules";
      soak_schedule := int_arg "--schedule";
      let json_path = find_arg args "--json" in
      let max_wall_s = Option.map float_of_string (find_arg args "--max-wall-s") in
      let max_rss_mb = Option.map float_of_string (find_arg args "--max-rss-mb") in
      let jobs = match find_arg args "--jobs" with None -> 1 | Some s -> parse_jobs s in
      if jobs > 1 then pool := Some (Util.Pool.create ~num_domains:(jobs - 1) ());
      let selected =
        match find_arg args "--only" with
        | None ->
          (* The huge tier only covers the experiments with huge sweeps;
             anything else can still be requested explicitly via --only
             (it then runs its normal full/quick sweep). *)
          if !huge then
            List.filter (fun (id, _, _) -> List.mem id [ "E1"; "E9"; "E13" ]) experiments
          else if !giant then
            (* Only E7/E8 have giant sweeps: they are the protocols whose
               cost model stays tractable at n = 10^6 (sparse routing and
               network-free covering).  Everything else can still be
               requested with --only and runs its normal tier. *)
            List.filter (fun (id, _, _) -> List.mem id [ "E7"; "E8" ]) experiments
          else experiments
        | Some id ->
          (match List.filter (fun (eid, _, _) -> eid = id) all_experiments with
          | [] ->
            Printf.eprintf "error: unknown experiment id %S; valid ids: %s\n" id
              (valid_ids ());
            exit 1
          | sel -> sel)
      in
      let t0 = Unix.gettimeofday () in
      let results =
        List.map
          (fun (id, _, f) ->
            let s = Unix.gettimeofday () in
            let runs = f () in
            let ms = 1000.0 *. (Unix.gettimeofday () -. s) in
            Printf.printf "[%.1fs]\n%!" (ms /. 1000.0);
            (id, ms, runs))
          selected
      in
      let total_wall_ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
      Option.iter Util.Pool.shutdown !pool;
      Printf.printf "\nall experiments done in %.1fs (jobs=%d)%s\n" (total_wall_ms /. 1000.0)
        jobs
        (match (!huge, !giant, !quick) with
        | true, _, true -> " (huge smoke tier)"
        | true, _, false -> " (huge tier)"
        | false, true, true -> " (giant smoke tier)"
        | false, true, false -> " (giant tier)"
        | false, false, true -> " (quick tier)"
        | false, false, false -> "");
      (match json_path with
      | Some path ->
        let report =
          {
            Analysis.Bench_io.date = iso_date ();
            quick = !quick;
            jobs;
            total_wall_ms;
            experiment_wall_ms = List.map (fun (id, ms, _) -> (id, ms)) results;
            runs = List.concat_map (fun (_, _, runs) -> runs) results;
          }
        in
        Analysis.Bench_io.save path report;
        Printf.printf "wrote %d run records to %s\n" (List.length report.Analysis.Bench_io.runs)
          path
      | None -> ());
      (match max_wall_s with
      | Some budget when total_wall_ms > 1000.0 *. budget ->
        Printf.eprintf "wall-clock budget exceeded: %.1fs > %.1fs (at jobs=%d)\n"
          (total_wall_ms /. 1000.0) budget jobs;
        exit 2
      | _ -> ());
      (match max_rss_mb with
      | Some budget -> (
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
      | None -> ());
      (* Every checked_totals call above recorded spec-vs-measured
         mismatches here; failing at the very end lets a full run report
         all of them rather than dying at the first. *)
      if !cost_mismatch then begin
        Printf.eprintf "cost specs disagree with measured accounting (see COST MISMATCH above)\n";
        exit 1
      end
    end)
