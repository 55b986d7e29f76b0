(* The declarative bench harness: tiers, sweeps, the row mapper, the
   async transport axis, spec checking, run records, trial aggregation
   and the bechamel runner.  Experiments (bench/main.ml) declare their
   sweeps once; everything that depends on the tier, the transport or
   the executor is applied here. *)

let fmt_bits = Analysis.Table.fmt_bits

(* ---- tiers and sweeps ---- *)

(* The size of a bench invocation.  [Full] fans its rows across the
   --jobs pool; [Huge] runs few very large rows one after another and
   hands the pool to the protocol, which shards each round across
   domains via [Netsim.Net.run_round]; [Giant] runs rows one after
   another at n up to 10^6, where memory — not cores — is the limit. *)
type scale = Full | Huge | Giant

(* One bench invocation: its scale, --quick (the reduced point lists) and
   --async (re-run the rows that declare it on the event transport). *)
type tier = { scale : scale; quick : bool; async : bool }

(* Where a sweep's rows run: at a scale on the lockstep network, or —
   under --async, at the full scale only — on the adversarially
   scheduled event transport. *)
type axis = At of scale | Async

(* A sweep: one series of rows, with its points declared per axis as the
   full list and the --quick list.  An axis the sweep does not declare
   runs no rows. *)
type 'p sweep = { series : string; show : 'p -> string; at : (axis * ('p list * 'p list)) list }

let sweep ?full ?huge ?giant ?async series show =
  let axes = [ (At Full, full); (At Huge, huge); (At Giant, giant); (Async, async) ] in
  { series; show; at = List.filter_map (fun (a, p) -> Option.map (fun p -> (a, p)) p) axes }

(* [same xs] — a sweep whose --quick points are its full points. *)
let same xs = (xs, xs)

let points tier axis s =
  match List.assoc_opt axis s.at with
  | Some (full, reduced) -> if tier.quick then reduced else full
  | None -> []

(* A sweep with its points rendered, for --list and tier selection. *)
type decl = { d_series : string; d_at : (axis * (string list * string list)) list }

let decl s =
  let show = List.map s.show in
  { d_series = s.series; d_at = List.map (fun (a, (f, q)) -> (a, (show f, show q))) s.at }

let axis_name = function
  | At Full -> "full"
  | At Huge -> "huge"
  | At Giant -> "giant"
  | Async -> "async"

let print_decl d =
  Printf.printf "       %s\n" d.d_series;
  List.iter
    (fun (a, (f, q)) ->
      Printf.printf "         %-6s %s%s\n" (axis_name a) (String.concat ", " f)
        (if f = q then "" else Printf.sprintf "  (--quick: %s)" (String.concat ", " q)))
    d.d_at

(* ---- seeds ---- *)

(* --seed S: replay seed.  Every experiment's internal seed constant [k]
   is remapped through [seed_of] (identity when no --seed was given, so
   default reports stay byte-identical), threaded into RNG and simulated
   PKE construction, and recorded in each run record's optional [seed]
   field.  Set once at startup, before any job runs. *)
let base_seed : int option ref = ref None
let seed_of k = match !base_seed with None -> k | Some s -> (s * 0x3779F1) lxor k
let prng k = Util.Prng.create (seed_of k)

let sim_pke seed =
  Crypto.Pke.make_simulated ~lwe_params:Crypto.Pke.bench_lwe_params ~seed:(seed_of seed) ()

(* ---- the executor and the transport ---- *)

(* The --jobs worker pool; [None] (--jobs 1) is the pure sequential path
   with zero pool overhead.  Set once at startup. *)
let pool : Util.Pool.t option ref = ref None

(* What the harness hands a row: the pool the protocol may shard its
   rounds over, and whether the row runs on the event transport. *)
type ctx = { pool : Util.Pool.t option; async_net : bool }

let lockstep = { pool = None; async_net = false }

(* Map [f] over [xs] through the pool in array order, so results are
   byte-identical at any --jobs value. *)
let par_list xs f =
  match !pool with
  | None -> List.map f xs
  | Some p -> Array.to_list (Util.Pool.map_jobs p (Array.of_list xs) f)

(* The harness row mapper: the rows of sweep [s] at [tier]'s scale.
   Nested [map_jobs] calls run inline, so full-tier rows never pass the
   pool on; the huge tier passes it to the protocol instead. *)
let rows tier s f =
  let pts = points tier (At tier.scale) s in
  match tier.scale with
  | Full -> par_list pts (f lockstep)
  | Huge -> List.map (f { lockstep with pool = !pool }) pts
  | Giant -> List.map (f lockstep) pts

let async_cfg =
  {
    Netsim.Event_net.latency = Netsim.Event_net.Uniform (1, 3);
    horizon = 1;
    scheduler = Netsim.Event_net.Adversarial { hold = 0.25 };
  }

(* Protocol deadline = the transport's fairness span: every in-flight
   message lands within [span] ticks of submission, so honest async runs
   lose nothing and still produce outputs, not aborts.  On the lockstep
   network every deadline behaves like the default 1. *)
let deadline c = if c.async_net then Netsim.Event_net.span async_cfg else 1

(* [open_net c ~seed n] — the row's network and RNG: the lockstep network
   or, for an async row, the event transport scheduled by a substream of
   the same seed. *)
let open_net c ~seed n =
  let net =
    if c.async_net then
      let rng = Util.Prng.derive (prng seed) ~key:0xA5ED in
      Netsim.Net.create ~transport:(Netsim.Event_net.transport ~rng async_cfg) n
    else Netsim.Net.create n
  in
  (net, prng seed)

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

type checked = {
  spec : Analysis.Costs.spec;
  cenv : Analysis.Costs.env;
  totals : Analysis.Costs.totals;
  verdict : Analysis.Costs.verdict;
}

(* [verify c ?obs spec net] — evaluate [spec], assert it against [net]'s
   counters.  On the event transport rounds depend on the delivery
   schedule, so only bits and messages are asserted there.  Only ever
   sets [cost_mismatch] to true, so concurrent jobs may share the flag
   without a lock. *)
let verify c ?obs spec net =
  let open Analysis.Costs in
  let cenv = env ?obs [] in
  let t = totals cenv spec in
  let bits = Netsim.Net.total_bits net and messages = Netsim.Net.messages_sent net in
  let verdict =
    if not c.async_net then
      check ~locality:(Netsim.Net.max_locality net) cenv spec ~bits ~messages
        ~rounds:(Netsim.Net.rounds net)
    else if bits >= t.bits_lo && bits <= t.bits_hi && messages = t.messages then
      { ok = true; detail = [] }
    else
      {
        ok = false;
        detail =
          [ Printf.sprintf "bits %d (predicted [%d, %d]), messages %d (predicted %d)" bits
              t.bits_lo t.bits_hi messages t.messages ];
      }
  in
  if not verdict.ok then begin
    cost_mismatch := true;
    Printf.eprintf "COST MISMATCH [%s%s]:\n" spec.name (if c.async_net then ", async" else "");
    List.iter (Printf.eprintf "  %s\n") verdict.detail
  end;
  { spec; cenv; totals = t; verdict }

let zero_totals = { Analysis.Costs.bits_hi = 0; bits_lo = 0; messages = 0; rounds = 0 }

(* ---- run records ---- *)

let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, 1000.0 *. (Unix.gettimeofday () -. t0))

let counts net = (Netsim.Net.total_bits net, Netsim.Net.messages_sent net, Netsim.Net.rounds net)

let make_run ~experiment ~series ~n ~h ~wall_ms (predicted : Analysis.Costs.totals)
    (bits, messages, rounds) =
  {
    Analysis.Bench_io.experiment;
    series;
    n;
    h;
    bits;
    messages;
    rounds;
    wall_ms;
    seed = !base_seed;
    peak_rss_mb = Analysis.Bench_io.peak_rss_mb ();
    predicted_bits = Some predicted.bits_hi;
    predicted_bits_lo = Some predicted.bits_lo;
    predicted_messages = Some predicted.messages;
    predicted_rounds = Some predicted.rounds;
  }

(* [measure net ~experiment ~series ~h f] — time one protocol run [f]
   (returning its outcome and checked spec) on [net] and record it. *)
let measure net ~experiment ~series ~h f =
  let (out, chk), wall_ms = timed f in
  ( out,
    make_run ~experiment ~series ~n:(Netsim.Net.n net) ~h ~wall_ms chk.totals (counts net) )

(* [trial_total ~experiment ~series ~n ~h ~trials trial] — one record
   summing [trials] seed-deterministic trials.  [trial seed] runs trial
   [seed] (1-based) and returns its counters and predicted totals; the
   trials share whatever RNG stream [trial] closes over, so they run in
   order. *)
let trial_total ~experiment ~series ~n ~h ~trials trial =
  let sum = ref (0, 0, 0) and pred = ref zero_totals in
  let (), wall_ms =
    timed (fun () ->
        for seed = 1 to trials do
          let (b, m, r), (t : Analysis.Costs.totals) = trial seed in
          let b0, m0, r0 = !sum and p = !pred in
          sum := (b0 + b, m0 + m, r0 + r);
          pred :=
            {
              bits_hi = p.bits_hi + t.bits_hi;
              bits_lo = p.bits_lo + t.bits_lo;
              messages = p.messages + t.messages;
              rounds = p.rounds + t.rounds;
            }
        done)
  in
  make_run ~experiment ~series ~n ~h ~wall_ms !pred !sum

(* ---- output ---- *)

let section title = Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* Print one table with a row of [cells x] per element of [xs]. *)
let table ?(title = "") columns cells xs =
  let t = Analysis.Table.create ~title ~columns in
  List.iter (fun x -> Analysis.Table.add_row t (cells x)) xs;
  Analysis.Table.print t

(* Fit the rows' bits against [x r] and print the exponent. *)
let fit_line label x rs =
  let ms =
    List.map
      (fun (r : Analysis.Bench_io.run) ->
        { Analysis.Complexity.x = float_of_int (x r); value = float_of_int r.bits })
      rs
  in
  let f, j = Analysis.Complexity.fit_with_polylog ms in
  Printf.printf "%s: fitted exponent %.2f (x polylog^%d, r2=%.3f)\n" label
    f.Analysis.Complexity.exponent j f.Analysis.Complexity.r2

(* ---- the async transport axis ----

   Under --async the rows of a sweep that declares the [Async] axis re-run
   on the adversarially scheduled event transport.  Accounting is metered
   at send time, so async bits and messages are asserted against the same
   closed forms as the sync rows; measured rounds depend on the delivery
   schedule, so the sync closed form is printed as an informational
   delta instead, and the async records carry no rounds prediction
   (--audit skips them; the "(async)" series suffix keeps --diff from
   matching them against sync rows). *)
let async_rows tier s ~title f =
  if tier.scale <> Full || not tier.async then []
  else begin
    section title;
    let c = { lockstep with async_net = true } in
    let runs = List.concat (par_list (points tier Async s) (f c)) in
    table
      ~title:
        (Printf.sprintf "async rounds-to-completion vs sync closed form (%s)"
           (Netsim.Event_net.config_to_string async_cfg))
      [ "series"; "n"; "rounds"; "sync form"; "delta" ]
      (fun (r : Analysis.Bench_io.run) ->
        let sync = Option.value r.predicted_rounds ~default:0 in
        [ r.series ^ " (async)"; string_of_int r.n; string_of_int r.rounds; string_of_int sync;
          Printf.sprintf "%+d" (r.rounds - sync) ])
      runs;
    List.map
      (fun (r : Analysis.Bench_io.run) ->
        { r with series = r.series ^ " (async)"; predicted_rounds = None })
      runs
  end

(* ---- bechamel ---- *)

(* ns/op estimate of each test, sorted by name.  Callers run it on the
   main domain only: concurrent load would distort the estimates, so the
   microbenchmarks ignore --jobs.  --quick shrinks the sample quotas. *)
let bechamel tier ~group tests =
  let open Bechamel in
  let cfg =
    Benchmark.cfg
      ~limit:(if tier.quick then 200 else 1000)
      ~stabilize:false
      ~quota:(Time.second (if tier.quick then 0.05 else 0.25))
      ()
  in
  let clock = Toolkit.Instance.monotonic_clock in
  let raw = Benchmark.all cfg [ clock ] (Test.make_grouped ~name:group ~fmt:"%s/%s" tests) in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  Hashtbl.fold
    (fun name r acc ->
      (name, match Analyze.OLS.estimates r with Some (e :: _) -> e | _ -> nan) :: acc)
    (Analyze.all ols clock raw) []
  |> List.sort compare
