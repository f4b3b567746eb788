"""One benchmark worker: a fresh interpreter that runs a single job.

Usage: python3 perfbench/worker.py '<json spec>'

The spec's "mode" is "setup" (start, import, load data, exit), "roundtrip"
(one cold materialize -> format/parse -> recover_datum -> isomorphism job) or
"queries" (warm the char engine's caches, then time tensor queries).
Every message is one JSON line on stdout, flushed at once, so a parent that
kills the worker at its deadline still reads the last stage it entered:

  {"ready": <time.monotonic() after set-up>}
  {"stage": <name>, "t": <time.monotonic() on entering it>}
  {"result": {...}}

At its deadline the parent sends SIGTERM; the worker then reports a timeout
with the stage it is in and, in a traced run, its spans so far (the open
ones closed at that moment), and exits.  Every result carries "ref_s", the
reference timings (refspeed.py) the parent scales the job's times by.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import refspeed
import spans
import truth
import workloads

ROOT = Path(__file__).resolve().parent.parent
MEMORY_CAP = 2 << 30  # bytes of address space; a runaway job dies, not the machine
REF_EVERY_S = 0.1  # a query worker times the reference again after this long

# what a worker killed at its deadline reports
state: dict = {"stage": "setup", "ref_s": [], "tracer": None}


def emit(obj) -> None:
    print(json.dumps(obj), flush=True)


def enter(stage: str) -> None:
    """Record and stream the stage the job is entering."""
    state["stage"] = stage
    emit({"stage": stage, "t": time.monotonic()})


def load_library():
    sys.path.insert(0, str(ROOT / "src"))
    from semiroot import char_engine, linalg, oracle, reconstruction, root_datum

    if not Path(root_datum.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported semiroot from {root_datum.__file__}, not from {ROOT}")
    return SimpleNamespace(
        char_engine=char_engine,
        linalg=linalg,
        oracle=oracle,
        reconstruction=reconstruction,
        root_datum=root_datum,
    )


def load_datum(lib, name: str):
    if name in workloads.INLINE_DATA:
        rank, roots, coroots = workloads.INLINE_DATA[name]
        return lib.root_datum.RootDatum(rank, roots, coroots, name)
    return lib.root_datum.fixture(name)


def dominant_weights(lib, d, max_pairing: int) -> list[tuple[int, ...]]:
    """Dominant weights of a semisimple datum with every pairing <= max_pairing."""
    out = []
    for p in itertools.product(range(max_pairing + 1), repeat=d.rank):
        x = lib.linalg.solve(d.simple_coroots, p)
        if x is not None and all(c.denominator == 1 for c in x):
            out.append(tuple(int(c) for c in x))
    return out


def run_roundtrip(spec, datum, lib) -> dict:
    """One cold job; a library exception ends it as a crash with its elapsed time."""
    clock = time.perf_counter
    marks = {"start": clock()}
    try:
        return roundtrip_steps(spec, datum, lib, marks)
    except Exception as e:  # the job's boundary: any library error is this job's outcome
        traceback.print_exc()
        end = clock()
        return {
            "outcome": "crash",
            "stage": state["stage"],
            "reason": f"{type(e).__name__}: {e}"[:200],
            "op_s": end - marks["start"],
            "answer_s": end - marks["parse"] if "parse" in marks else None,
            "counters": {},
        }


def roundtrip_steps(spec, datum, lib, marks: dict) -> dict:
    oracle, clock = lib.oracle, time.perf_counter
    enter("materialize")
    table, provenance = oracle.materialize_oracle(datum, spec["bound"], seed=spec["label_seed"])
    text = oracle.format_oracle(table)
    marks["parse"] = clock()
    enter("parse")
    parsed = oracle.parse_oracle(text)
    enter("reconstruct")  # a traced run names the stages inside
    report = lib.reconstruction.recover_datum(parsed)
    reconstructed = clock()
    enter("isomorphism")
    iso = report.certified and lib.root_datum.root_data_isomorphic(report.datum, datum) is not None
    end = clock()
    right = report.certified and truth.certified_map_is_isomorphism(
        report.bijection, provenance, report.datum, datum
    )
    if parsed != table:
        outcome, stage, reason = "wrong", "parse", "parsed table differs from the materialized one"
    elif report.certified and not right:
        outcome, stage = "wrong", "certification"
        reason = "certified, but the label map is no isomorphism onto the source"
    elif report.certified and not iso:
        # the certificate is right, so this is the isomorphism test's false negative
        outcome, stage = "failed", "isomorphism"
        reason = "root_data_isomorphic finds no map for a correct certificate"
    elif report.certified:
        outcome, stage, reason = "certified", None, None
    else:
        outcome, stage, reason = "failed", report.stage, report.reason
    monoid = report.monoid
    return {
        "outcome": outcome,
        "stage": stage,
        "reason": reason,
        "op_s": end - marks["start"],
        "answer_s": reconstructed - marks["parse"],
        "counters": {
            "labels": len(parsed.labels),
            "in_window_cells": sum(v is not None for v in parsed.products.values()),
            "order_pairs_decided": len(report.order.decided) if report.order else 0,
            "addition_undefined": len(monoid.undefined) if monoid else 0,
            "relations": len(monoid.add) if monoid else 0,
            "lattice_rank": report.lattice_rank or 0,
            "roots": len(report.simple_roots),
            "inferred_bound": report.inferred_bound or 0,
        },
    }


def warm_caches(lib, data, weights) -> float:
    """Fill the char engine's caches for every query weight; returns the seconds taken.

    Queries are then timed in the steady state of a long-lived process
    rather than while the caches fill, which takes a share of a short run
    that depends on the machine's speed.
    """
    start = time.perf_counter()
    for name, d in data.items():
        for w in weights[name]:
            lib.char_engine.dominant_weight_multiplicities(d, w)
            lib.char_engine.dimension(d, w)
    return time.perf_counter() - start


def run_queries(spec, data, weights, lib) -> dict:
    """Seeded tensor queries until `seconds` pass or `count` queries are done."""
    char_engine = lib.char_engine
    clock = time.perf_counter
    stream = workloads.query_stream(spec["seed"], weights)
    limit = spec.get("count")
    stop = clock() + spec["seconds"]
    names: list[str] = []
    op_s: list[float] = []
    answer_s: list[float] = []
    ref_s: list[float] = []
    wrong: list[str] = []
    next_ref = clock()
    while (len(op_s) < limit) if limit is not None else (clock() < stop):
        if clock() >= next_ref:
            ref = statistics.median(refspeed.measure())
            next_ref = clock() + REF_EVERY_S
        name, lam, mu = next(stream)
        names.append(name)
        d = data[name]
        t0 = clock()
        decomp = char_engine.tensor_decompose(d, lam, mu)
        t1 = clock()
        expect = char_engine.dimension(d, lam) * char_engine.dimension(d, mu)
        got = sum(m * char_engine.dimension(d, nu) for nu, m in decomp.items())
        top = decomp.get(tuple(a + b for a, b in zip(lam, mu)))
        t2 = clock()
        op_s.append(t2 - t0)
        answer_s.append(t1 - t0)
        ref_s.append(ref)
        if got != expect or top != 1:
            wrong.append(f"{name} {lam} x {mu}: dimension {got} != {expect} or top {top} != 1")
    outcome = "wrong" if wrong else "certified"
    return {
        "outcome": outcome,
        "stage": None,
        "datum": names,
        "op_s": op_s,
        "answer_s": answer_s,
        "ref_s": ref_s,
        "wrong": wrong,
    }


def on_deadline(signum, frame) -> None:
    """Report a timeout, with the trace up to the interrupted frame, and exit."""
    result = {"outcome": "timeout", "stage": state["stage"], "ref_s": state["ref_s"]}
    if state["tracer"] is not None:
        result["trace"] = state["tracer"].report(frame)
    emit({"result": result})
    os._exit(0)


def main() -> None:
    signal.signal(signal.SIGTERM, on_deadline)
    spec = json.loads(sys.argv[1])
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))
    lib = load_library()
    names = [spec["datum"]] if spec["mode"] == "roundtrip" else workloads.QUERY_DATA
    data = {n: load_datum(lib, n) for n in names}
    if spec["mode"] != "roundtrip":
        weights = {
            n: dominant_weights(lib, d, workloads.QUERY_MAX_PAIRING) for n, d in data.items()
        }
    emit({"ready": time.monotonic()})
    state["ref_s"] = refspeed.measure()
    if spec["mode"] == "setup":
        emit({"result": {"outcome": "ready", "stage": None, "ref_s": state["ref_s"]}})
        return
    if spec["mode"] == "queries":
        warm_s = warm_caches(lib, data, weights)

    tracer = state["tracer"] = spans.Tracer(on_stage=enter) if spec["trace"] else None
    with tracer or contextlib.nullcontext():
        if spec["mode"] == "roundtrip":
            result = run_roundtrip(spec, data[spec["datum"]], lib)
        else:
            result = run_queries(spec, data, weights, lib)
            result["warm_s"] = warm_s
    if spec["mode"] == "roundtrip":
        # before and after, so that a long job is scaled by the speed of its whole span
        result["ref_s"] = state["ref_s"] + refspeed.measure()
    if tracer is not None:
        result["trace"] = tracer.report()
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    emit({"result": result})


if __name__ == "__main__":
    main()
