"""The benchmark's own checks.

  python3 perfbench/selfcheck.py            fast checks, a few seconds
  python3 perfbench/selfcheck.py --metrics  also run every workload once, untraced,
                                            exactly as BENCHMARK.json says, and print
                                            each end-to-end metric with its unit

The fast checks: the same workload seed yields the identical job and query
lists twice (and another seed does not); the tracing wrappers are in place
only inside a traced span and the library's own functions are back after it;
span self times add up; a worker stopped at its deadline reports a timeout
with its stage and open spans; and BENCHMARK.json names exactly the
workloads and metrics that run.py produces.  Exits 1 on the first failed
check.
"""

from __future__ import annotations

import importlib
import itertools
import json
import subprocess
import sys
from pathlib import Path

import run
import spans
import truth
import worker
import workloads

ROOT = Path(__file__).resolve().parent.parent


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def check_seeding(lib) -> None:
    for w in ("roundtrip-semisimple", "roundtrip-torus"):
        first, again = workloads.roundtrip_jobs(w, 7), workloads.roundtrip_jobs(w, 7)
        check(first == again, f"{w}: seed 7 gives the same {len(first)} jobs twice")
        check(first != workloads.roundtrip_jobs(w, 8), f"{w}: seed 8 gives other label seeds")
    for (name, bound), slow in workloads.SLOW_RELABELINGS.items():
        pool = workloads.label_pool(name, bound)
        check(
            len(pool) == workloads.POOL_SIZE - len(slow),
            f"{name}@{bound}: each slow relabeling listed is one of its pool's draws",
        )
    weights = {
        n: worker.dominant_weights(lib, worker.load_datum(lib, n), workloads.QUERY_MAX_PAIRING)
        for n in workloads.QUERY_DATA
    }
    sizes = ", ".join(f"{n} {len(ws)}" for n, ws in weights.items())
    check(all(weights.values()), f"dominant weights with pairings <= 10: {sizes}")

    def first_queries(seed):
        return list(itertools.islice(workloads.query_stream(seed, weights), 2000))

    check(
        first_queries(7) == first_queries(7), "tensor-queries: seed 7 gives the same queries twice"
    )
    check(first_queries(7) != first_queries(8), "tensor-queries: seed 8 gives other queries")


def check_wrappers(lib) -> None:
    modules = {m: importlib.import_module(f"semiroot.{m}") for m in spans.TRACED}
    originals = {
        (m, fn): getattr(modules[m], fn) for m, names in spans.TRACED.items() for fn in names
    }
    sl3 = lib.root_datum.fixture("sl3")
    stages = []
    reports = []

    def on_stage(stage):
        stages.append(stage)
        if stage == "certification":
            reports.append(tracer.report())

    with spans.Tracer(on_stage=on_stage) as tracer:
        wrapped = all(getattr(modules[m], f) is not o for (m, f), o in originals.items())
        check(wrapped, f"all {len(originals)} traced functions are wrapped inside the span")
        table, _ = lib.oracle.materialize_oracle(sl3, 2, seed=5)
        report = lib.reconstruction.recover_datum(table)
    restored = all(getattr(modules[m], f) is o for (m, f), o in originals.items())
    check(restored, "every traced function is the library's own again after the span")
    check(report.certified, "a traced sl3 bound 2 round trip still certifies")
    check(
        stages[:2] == ["validate", "order"] and "certification" in stages,
        f"traced stages stream in pipeline order: {' > '.join(dict.fromkeys(stages))}",
    )
    datum = "reconstruction.recover_datum"
    check(
        reports[0]["calls"][datum] == 1 and reports[0]["total"][datum] > 0,
        "a report taken inside recover_datum counts it as an open span",
    )
    # materialize_oracle and recover_datum are the only outermost spans here,
    # so the self times of all spans must add up to their two durations
    total = tracer.total
    outer = total["oracle.materialize_oracle"] + total["reconstruction.recover_datum"]
    inner = sum(tracer.self_time.values())
    check(
        0.95 * outer <= inner <= outer + 1e-6,
        f"self times add up: {inner:.3f} s of the outer spans' {outer:.3f} s",
    )


def check_deadline() -> None:
    job = {"datum": "g2", "bound": 4, "label_seed": 3, "pinned": True}
    w = run.run_worker({"mode": "roundtrip", "trace": True, **job}, 3)
    trace = (w["result"] or {}).get("trace", {"total": {}})
    check(
        w["outcome"] == "timeout" and w["stage"] == "order" and w["ref_s"]
        and trace["total"].get("reconstruction.recover_order", 0) > 1,
        f"a traced g2@4 job stopped after 3 s reports a timeout in stage {w['stage']}, "
        "with its open spans and reference timings",
    )


def check_truth(lib) -> None:
    sl3, pgl3 = lib.root_datum.fixture("sl3"), lib.root_datum.fixture("pgl3")
    table, provenance = lib.oracle.materialize_oracle(sl3, 3, seed=5)
    report = lib.reconstruction.recover_datum(table)
    check(
        truth.certified_map_is_isomorphism(report.bijection, provenance, report.datum, sl3),
        "the ground-truth check accepts a certified sl3 bound 3 table",
    )
    x, y = sorted(provenance)[1:3]
    swapped = {**report.bijection, x: report.bijection[y], y: report.bijection[x]}
    accepts = truth.certified_map_is_isomorphism
    check(
        not accepts(swapped, provenance, report.datum, sl3)
        and not accepts(report.bijection, provenance, report.datum, pgl3),
        "it rejects the certificate with two labels swapped, and against pgl3",
    )


def check_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(
        [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
        "BENCHMARK.json lists the workloads run.py knows",
    )
    for key, produced in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        check(declared == produced, f"BENCHMARK.json {key} names and units match run.py")


def print_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        args = ["--workload", w["name"], "--seed", "1", "--seconds", str(spec["run_seconds"])]
        out = subprocess.run(
            spec["command"] + args + ["--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout
        result = json.loads(out.splitlines()[-1])
        print(f"{w['name']}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:16s} {m['value']:12.6g} {m['unit']}")


def main() -> None:
    lib = worker.load_library()
    check_seeding(lib)
    check_wrappers(lib)
    check_deadline()
    check_truth(lib)
    check_benchmark_json()
    if "--metrics" in sys.argv[1:]:
        print_metrics()


if __name__ == "__main__":
    main()
