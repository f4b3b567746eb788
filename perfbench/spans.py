"""Timing wrappers put on the library's public functions from outside.

The library calls these functions through module attributes or module
globals, so replacing the attribute catches internal calls as well.  Each
wrapped call is a span; a span's self time is its duration minus the time
covered by the wrapped calls made inside it.  Spans are folded into
per-function totals as they close, so memory stays flat on long runs.
`Tracer.report(frame)` also counts the spans still open when a job is
stopped, closed at that moment.
"""

from __future__ import annotations

import importlib
import time

TRACED = {
    "oracle": ("materialize_oracle", "validate_oracle", "parse_oracle", "window_weights"),
    "reconstruction": (
        "recover_order",
        "recover_addition",
        "recover_lattice",
        "recover_simple_roots",
        "recover_simple_coroots",
        "recover_datum",
    ),
    "char_engine": ("tensor_decompose", "dominant_weight_multiplicities", "dimension"),
    "root_datum": ("positive_roots", "root_data_isomorphic", "weyl_order"),
    "linalg": ("smith_normal_form",),
    "polytope": ("positive_functional",),
}

# the stage a job is in once each of these starts; after the coroot scan
# returns, recover_datum assembles the datum and certifies it
STAGE_OF = {
    "oracle.validate_oracle": "validate",
    "reconstruction.recover_order": "order",
    "reconstruction.recover_addition": "addition",
    "reconstruction.recover_lattice": "lattice",
    "reconstruction.recover_simple_roots": "roots",
    "reconstruction.recover_simple_coroots": "coroots",
}
STAGE_AFTER = {"reconstruction.recover_simple_coroots": "certification"}


def _max_bits(mats) -> int:
    best = 0
    for m in mats:
        for row in m:
            if row:
                best = max(best, max(row).bit_length(), (-min(row)).bit_length())
    return best


class Tracer:
    """Install with `with Tracer(...) as tr:`; the originals return on exit.

    `on_stage` is called with a stage name whenever a reconstruction stage
    starts or the certify step begins, so a caller can stream progress out
    of a process that may be killed.
    """

    def __init__(self, on_stage=None):
        self.on_stage = on_stage
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.snf = {"max_rows": 0, "max_cols": 0, "max_entry_bits": 0}
        self._stack: list[list] = []  # open spans: [start, covered by children, name]
        self._originals: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for modname, names in TRACED.items():
            mod = importlib.import_module(f"semiroot.{modname}")
            for fn in names:
                orig = getattr(mod, fn)
                self._originals.append((mod, fn, orig))
                setattr(mod, fn, self._wrap(f"{modname}.{fn}", orig))
                self.calls[f"{modname}.{fn}"] = 0
                self.total[f"{modname}.{fn}"] = 0.0
                self.self_time[f"{modname}.{fn}"] = 0.0
        return self

    def __exit__(self, *exc) -> None:
        for mod, fn, orig in reversed(self._originals):
            setattr(mod, fn, orig)
        self._originals.clear()

    def _wrap(self, name: str, fn):
        stack, clock = self._stack, time.perf_counter
        stage, after = STAGE_OF.get(name), STAGE_AFTER.get(name)
        is_snf = name == "linalg.smith_normal_form"

        def wrapper(*args, **kwargs):
            if stage and self.on_stage:
                self.on_stage(stage)
            if is_snf:
                self._record_shape(args[0])
            frame = [clock(), 0.0, name]
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                self.calls[name] += 1
                self.total[name] += dur
                self.self_time[name] += dur - frame[1]
                if is_snf and result is not None:
                    self._record_bits(result)
                if stack:
                    # the enclosing span is charged neither for this span nor
                    # for the bookkeeping done after it closed
                    stack[-1][1] += clock() - frame[0]
                if after and self.on_stage:
                    self.on_stage(after)

        return wrapper

    def report(self, frame=None) -> dict:
        """Per-function totals, counting the spans still open as ending now.

        `frame` is the interrupted Python frame when a job is stopped at its
        deadline; if a Smith normal form is running in it, the largest entry
        of its working matrices so far counts towards `max_entry_bits`.
        """
        now = time.perf_counter()
        calls, total, self_time = dict(self.calls), dict(self.total), dict(self.self_time)
        open_child = 0.0
        for start, covered, name in reversed(self._stack):
            dur = now - start
            calls[name] += 1
            total[name] += dur
            self_time[name] += dur - covered - open_child
            open_child = dur
        snf = dict(self.snf)
        snf_code = next(
            (o.__code__ for m, fn, o in self._originals if fn == "smith_normal_form"), None
        )
        while frame is not None:
            if frame.f_code is snf_code:
                mats = [frame.f_locals[k] for k in ("a", "u", "v") if k in frame.f_locals]
                snf["max_entry_bits"] = max(snf["max_entry_bits"], _max_bits(mats))
            frame = frame.f_back
        return {"calls": calls, "total": total, "self": self_time, "snf": snf}

    def _record_shape(self, mat) -> None:
        snf = self.snf
        snf["max_rows"] = max(snf["max_rows"], len(mat))
        snf["max_cols"] = max(snf["max_cols"], len(mat[0]) if mat else 0)

    def _record_bits(self, result) -> None:
        self.snf["max_entry_bits"] = max(self.snf["max_entry_bits"], _max_bits(result))
