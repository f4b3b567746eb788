"""Round-trip and tensor-query benchmark for the semiroot library.

Usage, from the root of a checkout:

  python3 perfbench/run.py --deadline S --workload W --seed N --seconds T --trace 0|1

Workloads (README.md in this directory says why each exists):

  roundtrip-semisimple  cold jobs, one fresh worker process each, on the
                        semisimple fixtures at bounds 3 and 4 (but g2@4)
                        plus sl4 at bound 2, plus one pinned job that
                        crashes today
  roundtrip-torus       the same job shape on data with torus factors, plus
                        three pinned jobs that time out or fail today
  tensor-queries        one long-lived worker answering seeded tensor
                        product queries with warm module caches

A roundtrip run makes one pass over its job list, whatever T is, so every
run measures the same mix; a query run measures for T seconds.  Jobs run one
at a time.  A job still running S seconds after its worker started is
stopped and counts as a timeout.

Every time in the end-to-end metrics is scaled to a host of reference speed
(refspeed.py): each worker times a fixed piece of pure-Python work around
its job, and the job's seconds are multiplied by NOMINAL_S over that time.
The host's speed drifts by up to 1.7x within seconds, and this takes that
drift out of the comparison between two commits.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 the work is done with timing wrappers on the library's public
functions, then partly again without them, and the last line carries the
per-layer metrics.  Per-job detail goes to stderr.  A wrong answer (a
certificate whose label map is no isomorphism onto the source, or a tensor
product whose dimensions do not add up) sets "correct" to false and the exit
code to 1.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import refspeed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_REPEATS = 10  # set-up-only workers started by each tensor-queries run
WARM_DEADLINE = 120  # seconds a query worker may spend on set-up and cache warming
GRACE_S = 5  # seconds a worker stopped at its deadline gets to report before it is killed

STAGES = (
    "setup", "materialize", "parse", "reconstruct", "validate", "order", "addition",
    "lattice", "roots", "coroots", "assembly", "certification", "isomorphism",
)
OUTCOMES = ("certified", "failed", "timeout", "crash", "wrong")
COUNTERS = (
    "labels", "in_window_cells", "order_pairs_decided", "addition_undefined",
    "relations", "lattice_rank", "roots", "inferred_bound",
)

END_TO_END = {
    "op_s.gmean_p50": "s",
    "answer_s.gmean_p50": "s",
    "ok_share": "fraction",
    "setup_s": "s",
    "rss_mb.gmean_p50": "MB",
}

# per-layer metric -> (unit, traced function, statistic)
LAYER_TIMES = {
    "reconstruction.recover_order.s": ("s", "reconstruction.recover_order", "total"),
    "reconstruction.recover_addition.s": ("s", "reconstruction.recover_addition", "total"),
    "reconstruction.recover_lattice.s": ("s", "reconstruction.recover_lattice", "total"),
    "reconstruction.recover_simple_roots.s": ("s", "reconstruction.recover_simple_roots", "total"),
    "reconstruction.recover_simple_coroots.s": (
        "s", "reconstruction.recover_simple_coroots", "total",
    ),
    "reconstruction.certify.s": ("s", "reconstruction.recover_datum", "self"),
    "char_engine.tensor_decompose.calls": ("count", "char_engine.tensor_decompose", "calls"),
    "char_engine.tensor_decompose.self_s": ("s", "char_engine.tensor_decompose", "self"),
    "char_engine.dominant_weight_multiplicities.calls": (
        "count", "char_engine.dominant_weight_multiplicities", "calls",
    ),
    "char_engine.dominant_weight_multiplicities.self_s": (
        "s", "char_engine.dominant_weight_multiplicities", "self",
    ),
    "char_engine.dimension.calls": ("count", "char_engine.dimension", "calls"),
    "root_datum.positive_roots.calls": ("count", "root_datum.positive_roots", "calls"),
    "root_datum.positive_roots.s": ("s", "root_datum.positive_roots", "total"),
    "root_datum.root_data_isomorphic.s": ("s", "root_datum.root_data_isomorphic", "total"),
    "root_datum.weyl_order.s": ("s", "root_datum.weyl_order", "total"),
    "linalg.smith_normal_form.calls": ("count", "linalg.smith_normal_form", "calls"),
    "linalg.smith_normal_form.s": ("s", "linalg.smith_normal_form", "total"),
    "oracle.materialize_oracle.s": ("s", "oracle.materialize_oracle", "total"),
    "oracle.validate_oracle.s": ("s", "oracle.validate_oracle", "total"),
    "oracle.parse_oracle.s": ("s", "oracle.parse_oracle", "total"),
    "oracle.window_weights.calls": ("count", "oracle.window_weights", "calls"),
    "oracle.window_weights.s": ("s", "oracle.window_weights", "total"),
    "polytope.positive_functional.s": ("s", "polytope.positive_functional", "total"),
}
PER_LAYER = {
    **{name: unit for name, (unit, _, _) in LAYER_TIMES.items()},
    "linalg.smith_normal_form.max_rows": "count",
    "linalg.smith_normal_form.max_cols": "count",
    "linalg.smith_normal_form.max_entry_bits": "bits",
    **{f"counters.{c}": "count" for c in COUNTERS},
    **{f"outcome.{o}": "count" for o in OUTCOMES},
    **{f"failing_stage.{s}": "count" for s in STAGES},
    "trace_overhead_s": "s",
    "host.ref_s.p50": "s",
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def run_worker(spec: dict, timeout: float) -> dict:
    """Start a worker, wait for it at most `timeout` seconds, collect its messages.

    Returns the outcome, the stage it ended in, its set-up time, its result,
    and from the result op_s, answer_s, rss_mb and ref_s.  At the deadline
    the worker gets SIGTERM and reports a timeout with its trace so far; a
    timed-out job's op_s and answer_s are how long it had run at the kill,
    and "returned" is false.
    """
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), json.dumps(spec)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.terminate()
        try:
            out, err = proc.communicate(timeout=GRACE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    end = time.monotonic()
    msgs = []
    for line in out.splitlines():
        try:
            msgs.append(json.loads(line))
        except json.JSONDecodeError:
            pass  # a line cut short by the kill
    ready = [m["ready"] for m in msgs if "ready" in m]
    stages = [m for m in msgs if "stage" in m]
    entered = {m["stage"]: m["t"] for m in stages}
    result = next((m["result"] for m in msgs if "result" in m), None)
    w = {
        "outcome": "crash",
        "stage": stages[-1]["stage"] if stages else "setup",
        "setup_s": ready[0] - start if ready else None,
        "result": result,
        "op_s": None,
        "answer_s": None,
        "rss_mb": None,
        "ref_s": [],
    }
    if result is not None:
        w.update((k, result[k]) for k in w if k in result)
    else:
        log(f"worker exited {proc.returncode} without a result:\n{err.strip()[-2000:]}")
    w["returned"] = w["outcome"] != "timeout"
    if not w["returned"]:
        w["op_s"] = end - entered["materialize"] if "materialize" in entered else None
        w["answer_s"] = end - entered["parse"] if "parse" in entered else None
    return w


def gmean_of_medians(groups: dict) -> float:
    """Geometric mean over the groups of each group's median sample.

    A group is one table (its label seeds) or one query datum, so every
    table weighs the same whatever its size.  Samples are (value, returned)
    pairs.  A table's median is over its jobs that returned, so a hung
    relabeling moves nothing; a table none of whose jobs returned counts at
    the time they had run at the kill, a lower bound.  So every table counts
    in every run, and more hangs never read as faster.
    """
    medians = []
    for samples in groups.values():
        returned = [x for x, ok in samples if ok]
        medians.append(statistics.median(returned or [x for x, _ in samples]))
    return statistics.geometric_mean(medians)


def table_of(job: dict) -> tuple:
    return job["datum"], job["bound"]


def run_jobs(jobs: list[dict], trace: bool, deadline: float) -> list[tuple[dict, dict]]:
    start = time.monotonic()
    done = []
    for job in jobs:
        w = run_worker({"mode": "roundtrip", "trace": trace, **job}, deadline)
        line = f"{'traced ' if trace else ''}{job['datum']}@{job['bound']} "
        line += f"label_seed={job['label_seed']}: {w['outcome']}"
        if w["outcome"] != "certified":
            line += f" in stage {w['stage']}"
        if w["result"] and w["result"].get("reason"):
            line += f" ({w['result']['reason']})"
        if w["op_s"] is not None:
            line += f"; op {w['op_s']:.3f} s{'' if w['returned'] else ' at the kill'}"
        if w["ref_s"]:
            line += f", reference {statistics.median(w['ref_s']) * 1000:.2f} ms"
        log(line)
        done.append((job, w))
    log(f"{len(done)} jobs in {time.monotonic() - start:.1f} s")
    return done


def queries_run(args, count: int | None = None, trace: bool = False) -> dict:
    spec = {"mode": "queries", "trace": trace, "seed": args.seed, "seconds": args.seconds}
    if count is not None:
        spec["count"] = count
    w = run_worker(spec, args.seconds + WARM_DEADLINE)
    if w["outcome"] not in ("certified", "wrong"):
        raise SystemExit(f"tensor-queries worker ended in {w['outcome']} at {w['stage']}")
    log(f"caches warmed in {w['result']['warm_s']:.2f} s, then {len(w['result']['op_s'])} queries")
    for msg in w["result"]["wrong"][:10]:
        log(f"wrong tensor product: {msg}")
    return w


def end_to_end(args) -> tuple[dict, int, int, bool]:
    op_s, answer_s, rss = defaultdict(list), defaultdict(list), defaultdict(list)
    if args.workload == "tensor-queries":
        w = queries_run(args)
        r = w["result"]
        workers = [w] + [
            run_worker({"mode": "setup", "trace": False}, args.deadline)
            for _ in range(SETUP_REPEATS)
        ]
        for name, op, ans, ref in zip(r["datum"], r["op_s"], r["answer_s"], r["ref_s"]):
            op_s[name].append((refspeed.normalize(op, [ref]), True))
            answer_s[name].append((refspeed.normalize(ans, [ref]), True))
        rss["worker"].append((w["rss_mb"], True))
        attempted, wrong = len(r["op_s"]), len(r["wrong"])
        ok = attempted - wrong
        refs = r["ref_s"]
    else:
        done = run_jobs(workloads.roundtrip_jobs(args.workload, args.seed), False, args.deadline)
        for job, w in done:
            if job.get("pinned"):
                continue  # a known defect, kept for ok_share and the per-layer metrics
            for groups, key in ((op_s, "op_s"), (answer_s, "answer_s")):
                if w[key] is not None and w["ref_s"]:
                    value = refspeed.normalize(w[key], w["ref_s"])
                    groups[table_of(job)].append((value, w["returned"]))
            if w["rss_mb"] is not None:
                rss[table_of(job)].append((w["rss_mb"], True))
        workers = [w for _, w in done]
        attempted = len(done)
        ok = sum(w["outcome"] == "certified" for _, w in done)
        wrong = sum(w["outcome"] == "wrong" for _, w in done)
        refs = [x for w in workers for x in w["ref_s"]]
    setups = [
        refspeed.normalize(w["setup_s"], w["ref_s"])
        for w in workers
        if w["setup_s"] is not None and w["ref_s"]
    ]
    log(f"{ok} of {attempted} correct, {wrong} wrong, over {len(op_s)} tables or data; "
        f"reference median {statistics.median(refs) * 1000:.2f} ms")
    metrics = {
        "op_s.gmean_p50": gmean_of_medians(op_s),
        "answer_s.gmean_p50": gmean_of_medians(answer_s),
        "ok_share": ok / attempted,
        "setup_s": statistics.median(setups),
        "rss_mb.gmean_p50": gmean_of_medians(rss),
    }
    return metrics, attempted, attempted - ok, wrong == 0


def per_layer(args) -> tuple[dict, int, int, bool]:
    """A traced run, then part of the same work untraced for the tracing overhead.

    Jobs stopped at the deadline count with the spans they had open; their
    outcome and stage are those they reported.  trace_overhead_s compares
    scaled times (refspeed.py), so host drift between the two runs cancels.
    """
    if args.workload == "tensor-queries":
        plain = queries_run(args)
        traced = queries_run(args, count=len(plain["result"]["op_s"]), trace=True)
        results = [traced["result"]]

        def scaled(r):
            return sum(refspeed.normalize(x, [ref]) for x, ref in zip(r["op_s"], r["ref_s"]))

        overhead = scaled(traced["result"]) - scaled(plain["result"])
        attempted = len(traced["result"]["op_s"])
        failed = len(traced["result"]["wrong"])
        outcomes = Counter(certified=attempted - failed, wrong=failed)
        stages: Counter = Counter()
        refs = traced["result"]["ref_s"]
    else:
        done = run_jobs(workloads.roundtrip_jobs(args.workload, args.seed), True, args.deadline)
        # one job per table again untraced; a stopped job gives no difference
        first: dict[tuple, tuple[dict, dict]] = {}
        for job, w in done:
            if w["outcome"] in ("certified", "failed"):
                first.setdefault(table_of(job), (job, w))
        plain = run_jobs([job for job, _ in first.values()], False, args.deadline)
        overhead = sum(
            refspeed.normalize(w["op_s"], w["ref_s"]) - refspeed.normalize(p["op_s"], p["ref_s"])
            for (_, w), (_, p) in zip(first.values(), plain)
            if p["outcome"] in ("certified", "failed")
        )
        results = [w["result"] for _, w in done if w["result"] and "trace" in w["result"]]
        attempted = len(done)
        failed = sum(w["outcome"] != "certified" for _, w in done)
        outcomes = Counter(w["outcome"] for _, w in done)
        stages = Counter(
            w["stage"] for _, w in done if w["outcome"] in ("failed", "timeout", "crash")
        )
        refs = [x for _, w in done for x in w["ref_s"]]

    stats = {"calls": Counter(), "total": Counter(), "self": Counter()}
    snf: Counter = Counter()
    counters: Counter = Counter()
    for r in results:
        counters.update(r.get("counters", {}))
        for stat, acc in stats.items():
            acc.update(r["trace"][stat])
        for k, v in r["trace"]["snf"].items():
            snf[k] = max(snf[k], v)
    ranked = sorted(stats["self"].items(), key=lambda kv: -kv[1])
    log("self time by function: " + ", ".join(f"{k} {v:.3f} s" for k, v in ranked[:6]))
    layers: Counter = Counter()
    for fn, v in stats["self"].items():
        layers[fn.split(".")[0]] += v
    log("self time by layer: " + ", ".join(f"{k} {v:.3f} s" for k, v in layers.most_common()))

    metrics = {name: stats[stat][fn] for name, (_, fn, stat) in LAYER_TIMES.items()}
    for k in ("max_rows", "max_cols", "max_entry_bits"):
        metrics[f"linalg.smith_normal_form.{k}"] = snf[k]
    metrics.update({f"counters.{c}": counters[c] for c in COUNTERS})
    metrics.update({f"outcome.{o}": outcomes[o] for o in OUTCOMES})
    metrics.update({f"failing_stage.{s}": stages[s] for s in STAGES})
    metrics["trace_overhead_s"] = overhead
    metrics["host.ref_s.p50"] = statistics.median(refs)
    return metrics, attempted, failed, outcomes["wrong"] == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--deadline", type=float, required=True, help="seconds per job")
    args = parser.parse_args()
    if not (ROOT / "src" / "semiroot" / "reconstruction.py").is_file():
        log(f"no semiroot sources under {ROOT / 'src'}; run from a full checkout")
        return 2
    # a terminated benchmark still kills and reaps its current worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    metrics, attempted, failed, correct = (per_layer if args.trace else end_to_end)(args)
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
