#!/usr/bin/env python3
"""The repository's benchmark: honest protocol executions, checked and timed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                  # every workload, default seeds

Run it from the root of a checkout.  It builds perfbench/perfbench.exe
with dune, then runs one workload as a closed loop with one client: one
honest execution after another, each in a fresh process (so set-up is
paid, and peak memory measured, per execution), for --seconds; no
execution is started that would end after them.  Every execution is
checked (outputs, cost spec, exact counts); failures are counted, never
dropped.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
executions with executions whose network runs over a wrapped
Netsim.Transport.t, then times each layer on its own, prints the
per-layer metrics and writes the spans as a Chrome trace-event file
(perfbench/out/, opens in Perfetto).  The last line of the output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
OUT = os.path.join(ROOT, "perfbench", "out")

# Protocol coin seed of each workload; it is also the default --seed,
# at which the inputs are those of the committed bench row.
# alg4-multi is not among BENCHMARK.json's workloads: its run_s slows by
# up to 1.45x in the minute-long slow periods of a shared 2-core host
# (the other workloads by far less), so the middle half of ten of its
# run medians spreads by up to 27% of the median, past any bound the
# benchmark may set.  It stays runnable here for paired parent/change
# runs of an Alg 4 change.
WORKLOADS = {"thm1-alg3": 2048, "thm2-gossip": 128, "a2a-fp": 1024, "alg4-multi": 1}

# Fewest executions of each kind in a run, whatever --seconds says.
MIN_EXECS = 3
MIN_TRACED_EXECS = 2
# One execution takes a few seconds; a child this late is hung.
EXEC_TIMEOUT_S = 60
LAYERS_TIMEOUT_S = 120
# The layer replays take about 15 s; a traced run leaves them this much
# of its --seconds, so that it lasts no longer than an untraced one.
LAYERS_RESERVE_S = 20

COUNTS = ("bits", "messages", "rounds", "max_locality")

# For each per-layer metric: the end-to-end metric it should move, the
# workload it should move on, and the workload it should not move on.
LAYER_EXPECTATIONS = {
    "netsim.deliver_s": ("run_s", "a2a-fp", "alg4-multi"),
    "netsim.peak_step_msgs": ("peak_rss_mb", "a2a-fp", "alg4-multi"),
    "netsim.msg_bytes_p50": ("descriptive", "all", "-"),
    "netsim.msg_bytes_p99": ("descriptive", "all", "-"),
    "round.slowest_s": ("run_s", "alg4-multi, thm1-alg3", "-"),
    "round.slowest_index": ("run_s", "alg4-multi, thm1-alg3", "-"),
    "round.slowest_share": ("run_s", "alg4-multi, thm1-alg3", "-"),
    "exec.self_s": ("run_s", "thm2-gossip", "-"),
    "gc.minor_words": ("run_s, peak_rss_mb", "a2a-fp", "alg4-multi"),
    "gc.major_words": ("run_s, peak_rss_mb", "thm2-gossip", "alg4-multi"),
    "gc.minor_collections": ("run_s, peak_rss_mb", "a2a-fp", "alg4-multi"),
    "gc.major_collections": ("run_s, peak_rss_mb", "thm2-gossip", "alg4-multi"),
    "trace.overhead_s": ("none; must stay near zero", "all", "-"),
    "mpc.equality.pairwise_s": ("run_s", "a2a-fp", "thm2-gossip"),
    "mpc.committee.run_s": ("run_s", "thm1-alg3", "a2a-fp"),
    "mpc.sparse_network.run_s": ("run_s", "thm2-gossip", "thm1-alg3"),
    "crypto.fingerprint.small_ns_per_byte": ("run_s", "a2a-fp", "alg4-multi"),
    "crypto.fingerprint.large_ns_per_byte": ("run_s", "thm1-alg3", "thm2-gossip"),
    "netsim.net.small_ns_per_msg": ("run_s", "a2a-fp", "alg4-multi"),
    "netsim.net.large_ns_per_msg": ("run_s", "thm2-gossip", "alg4-multi"),
    "util.codec.small_ns": ("run_s", "a2a-fp", "alg4-multi"),
    "util.codec.large_ns": ("run_s", "thm2-gossip", "alg4-multi"),
    "util.prng.derive_ns": ("run_s", "a2a-fp", "alg4-multi"),
    "util.pool.map_jobs_ns_per_job": ("run_s", "a2a-fp", "the 1-domain workloads"),
    "crypto.sha256.ns_per_byte": ("run_s", "alg4-multi", "a2a-fp"),
    "crypto.regev.encrypt_ms": ("run_s", "alg4-multi", "thm1-alg3"),
    "crypto.regev.decrypt_ms": ("run_s", "alg4-multi", "thm1-alg3"),
    "crypto.merkle_sig.keygen_ms": ("run_s", "alg4-multi", "the other three"),
    "crypto.merkle_sig.sign_ms": ("run_s", "alg4-multi", "the other three"),
    "crypto.merkle_sig.verify_ms": ("run_s", "alg4-multi", "the other three"),
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


# Metric name -> unit, from BENCHMARK.json.
END_TO_END, PER_LAYER = {}, {}


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        END_TO_END.update((m["name"], m["unit"]) for m in spec["end_to_end"])
        PER_LAYER.update((m["name"], m["unit"]) for m in spec["per_layer"])
    except (OSError, ValueError, KeyError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if set(PER_LAYER) != set(LAYER_EXPECTATIONS):
        fail("BENCHMARK.json's per_layer metrics differ from LAYER_EXPECTATIONS")


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("no dune-project and lib/ beside perfbench/: run from a checkout of the repository")
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    try:
        r = subprocess.run(dune + ["build", "--root", ROOT, "./perfbench/perfbench.exe"],
                           cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def child(args, timeout):
    """Run the executable once; its parsed JSON line, or None if it failed."""
    spawn_ts = time.time()
    try:
        r = subprocess.run([EXE] + args + ["--spawn-ts", repr(spawn_ts)], cwd=ROOT,
                           stdout=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % " ".join(args), file=sys.stderr)
        return None
    if r.returncode != 0:
        print("perfbench: %s exited %d" % (" ".join(args), r.returncode), file=sys.stderr)
        return None
    try:
        return json.loads(r.stdout.decode().strip().splitlines()[-1])
    except (ValueError, IndexError):
        print("perfbench: %s printed no result" % " ".join(args), file=sys.stderr)
        return None


class Run:
    """The executions of one workload in one run, and their checks."""

    def __init__(self, workload, seed, epoch):
        self.workload, self.seed, self.epoch = workload, seed, epoch
        self.untraced, self.traced = [], []
        self.attempted = self.failed = 0
        self.problems = []
        self.walls = []  # wall seconds of each child, spawn to exit

    def room_for(self, k, deadline):
        """Whether k more executions fit before the deadline."""
        return not self.walls or time.time() + k * statistics.median(self.walls) < deadline

    def execute(self, traced):
        k = self.attempted
        self.attempted += 1
        t = time.time()
        r = child(["exec", "--workload", self.workload, "--seed", str(self.seed),
                   "--epoch", repr(self.epoch), "--exec-id", str(k + 1),
                   "--trace", "1" if traced else "0"], EXEC_TIMEOUT_S)
        self.walls.append(time.time() - t)
        if r is None or r["failure"] is not None or not r["cost_ok"]:
            self.failed += 1
            why = "crashed" if r is None else r["failure"] or "cost spec mismatch"
            self.problems.append("execution %d: %s" % (k + 1, why))
            return
        if traced:
            if r["submits"] != r["messages"]:
                self.problems.append("execution %d: the transport saw %d submits for %d messages"
                                     % (k + 1, r["submits"], r["messages"]))
            if abs(r["rounds_s"] + r["self_s"] - r["run_s"]) > 1e-6:
                self.problems.append("execution %d: round spans and self time miss run_s" % (k + 1))
        (self.traced if traced else self.untraced).append(r)

    def counts(self):
        """The exact counts, if every execution agrees on them."""
        seen = {tuple(r[c] for c in COUNTS) for r in self.untraced + self.traced}
        if len(seen) > 1:
            self.problems.append("counts differ between executions: %s" % sorted(seen))
        return dict(zip(COUNTS, seen.pop())) if len(seen) == 1 else None

    def host(self):
        first = (self.untraced + self.traced or [{}])[0]
        return {
            "nproc": len(os.sched_getaffinity(0)),
            "ocaml": first.get("ocaml"),
            "domains": first.get("domains"),
            "gc_minor_heap_words": first.get("gc_minor_heap_words"),
            "gc_space_overhead": first.get("gc_space_overhead"),
        }


def med(rs, key):
    return statistics.median(r[key] for r in rs) if rs else 0.0


def supported_percentile(k):
    """Highest of p50/p90/p99 with at least ten samples above it, or None."""
    best = None
    for p in (50, 90, 99):
        if k * (100 - p) / 100 >= 10:
            best = p
    return best


def end_to_end(run, counts):
    rs = run.untraced
    values = dict(counts or dict.fromkeys(COUNTS, 0))
    for key in ("run_s", "setup_s", "peak_rss_mb"):
        values[key] = med(rs, key)
    m = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    p = supported_percentile(len(rs))
    if p is None:
        tail = "no percentile above the median is supported by %d samples" % len(rs)
    else:
        tail = "p%d %.4f s" % (p, statistics.quantiles([r["run_s"] for r in rs], n=100)[p - 1])
    print("%s seed %d: run_s median %.4f s over %d executions (%s); failed %d of %d"
          % (run.workload, run.seed, m["run_s"]["value"], len(rs), tail, run.failed,
             run.attempted))
    return m


def per_layer(run, layers):
    tr, un = run.traced, run.untraced
    indices = [r["round_slowest_index"] for r in tr]
    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update({
        "netsim.deliver_s": med(tr, "deliver_s"),
        "netsim.peak_step_msgs": max((r["peak_step_msgs"] for r in tr), default=0),
        "netsim.msg_bytes_p50": med(tr, "msg_bytes_p50"),
        "netsim.msg_bytes_p99": med(tr, "msg_bytes_p99"),
        "round.slowest_s": med(tr, "round_slowest_s"),
        "round.slowest_index": max(set(indices), key=indices.count) if indices else 0,
        "round.slowest_share": med(tr, "round_slowest_share"),
        "exec.self_s": med(tr, "self_s"),
        "trace.overhead_s": med(tr, "run_s") - med(un, "run_s"),
    })
    # Allocation is measured on the untraced executions: the tracer's own
    # bookkeeping is not the workload's.
    for g in ("minor_words", "major_words", "minor_collections", "major_collections"):
        values["gc." + g] = statistics.median(r["gc"][g] for r in un) if un else 0
    for name, v in (layers["metrics"] if layers else {}).items():
        if name not in values or v["unit"] != PER_LAYER[name]:
            run.problems.append("layer metric %s (%s) is not in BENCHMARK.json" % (name, v["unit"]))
        values[name] = v["value"]
    m = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    for name, v in m.items():
        moves, on, not_on = LAYER_EXPECTATIONS[name]
        print("  %-40s %14.6g %-6s moves %s on %s, not on %s"
              % (name, v["value"], v["unit"], moves, on, not_on))
    return m


def write_json(name, obj):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, name)
    with open(path, "w") as f:
        json.dump(obj, f)
    return path


def run_workload(workload, seed, seconds, trace):
    epoch = time.time()
    run = Run(workload, seed, epoch)
    deadline = epoch + seconds
    layers = None
    if trace:
        # Alternate untraced and traced executions, so host drift hits
        # both sides of trace.overhead_s alike.
        while (len(run.traced) < MIN_TRACED_EXECS
               or run.room_for(2, deadline - LAYERS_RESERVE_S)) \
                and run.attempted < 4 * MIN_EXECS + 2 * seconds:
            run.execute(traced=False)
            run.execute(traced=True)
        layers = child(["layers", "--epoch", repr(epoch)], LAYERS_TIMEOUT_S)
        if layers is None:
            run.problems.append("layer replays failed")
    else:
        while (len(run.untraced) < MIN_EXECS or run.room_for(1, deadline)) \
                and run.attempted < 2 * MIN_EXECS + seconds:
            run.execute(traced=False)
    if run.failed == run.attempted:
        run.problems.append("no execution succeeded")
    counts = run.counts()
    metrics = per_layer(run, layers) if trace else end_to_end(run, counts)
    correct = run.failed == 0 and not run.problems
    for p in run.problems:
        print("perfbench: %s: %s" % (workload, p), file=sys.stderr)
    host = run.host()
    print("host: " + json.dumps(host, sort_keys=True))
    tag = "%s-seed%d-trace%d" % (workload, seed, trace)
    if trace:
        events = [e for r in run.traced for e in r.pop("trace_events")]
        events += layers.pop("trace_events") if layers else []
        print("trace: " + write_json(tag + ".trace.json",
                                     {"traceEvents": events, "displayTimeUnit": "ms"}))
    write_json(tag + ".json", {
        "workload": workload, "seed": seed, "seconds": seconds, "host": host,
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "problems": run.problems, "metrics": metrics,
        "executions": run.untraced + run.traced,
    })
    return {"correct": correct, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    ap.add_argument("--seed", type=int, help="input seed (default: the workload's own)")
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    load_spec()
    build()
    if args.workload != "all":
        seed = WORKLOADS[args.workload] if args.seed is None else args.seed
        result = run_workload(args.workload, seed, args.seconds, args.trace)
    else:
        # Each execution runs in its own process, so no workload's figures
        # depend on the one that ran before it.
        results = {w: run_workload(w, s if args.seed is None else args.seed, args.seconds,
                                   args.trace)
                   for w, s in WORKLOADS.items()}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (w, k): v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    for name, v in result["metrics"].items():
        print("%-48s %18.10g %s" % (name, v["value"], v["unit"]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
