"""Per-layer spans recorded from outside the package.

The traced run wraps each listed public function at every module
attribute bound to it.  The package's modules import one another by name
(``countermeasures.step_response``, ``scenario.forged_pressure_estimate``,
``cli.frequency_sweep``), so each of those bindings is its own entry
point and must be patched, not only the defining module's.

A span is (name, start, end, parent, job), with start and end read from
``clock``, the process's CPU time: the jobs run on one thread, so this is
their wall time less the time the host held the CPU away from them.  Spans
stay in memory and are written out when the run ends.  A span's self time is its duration minus
the time covered by its direct child spans, so the self times of one job
add up to the job's own span.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import defaultdict

clock = time.process_time

# module -> public functions that get a span.
TRACED = {
    "sensor": ("frequency_sweep", "step_response"),
    "acoustics": ("propagate",),
    "waveform": ("psd_ratio", "suppress_band", "synthesize_attack", "read_wav", "write_wav",
                 "forged_pressure_estimate", "attack_response_trace"),
    "plant": ("simulate_scenario",),
    "countermeasures": ("evaluate_countermeasure", "measurement_settle_time_s", "lpf_cascade"),
    "scenario": ("load_scenario",),
}


def _sweep_work(bound, result, raised):
    lo, hi, step = (float(bound.arguments[k]) for k in ("lo_hz", "hi_hz", "step_hz"))
    # Length of the sweep's grid, np.arange(lo, hi + step / 2, step).
    tones = math.ceil((hi + 0.5 * step - lo) / step)
    return {"tones": tones, "found": 0 if raised else 1}


def _step_work(bound, result, raised):
    return {"samples": len(bound.arguments["inlet"])}


def _psd_work(bound, result, raised):
    return {"samples": len(bound.arguments["audio"].samples)}


def _plant_work(bound, result, raised):
    if raised:
        return {}
    rows, rooms = result.true_pd_pa.shape
    return {"room_periods": (rows - 1) * rooms}


# Work counts read from a call's arguments or result.
WORK = {
    "sensor.frequency_sweep": _sweep_work,
    "sensor.step_response": _step_work,
    "waveform.psd_ratio": _psd_work,
    "plant.simulate_scenario": _plant_work,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.job: str | None = None
        self.pass_index = -1
        self.missing: list[str] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append({
            "name": name, "start": clock(), "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "job": self.job, "pass": self.pass_index,
        })
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index]["end"] = clock()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        work = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                self.end(index)
                if work is not None:
                    try:
                        bound = signature.bind(*args, **kwargs)
                        counts = work(bound, None if raised else result, raised)
                    except (TypeError, KeyError, AttributeError):
                        counts = {}  # the call's shape changed; its time still counts
                    self.spans[index]["work"] = counts

        return wrapper

    def patch(self) -> list[tuple[object, str, object]]:
        """Replace every binding of every traced function; returns the undo list."""
        self.missing = []
        originals = {}
        for mod_name, names in TRACED.items():
            module = sys.modules.get(f"nprsim.{mod_name}")
            for name in names:
                fn = getattr(module, name, None) if module is not None else None
                if fn is None:
                    self.missing.append(f"{mod_name}.{name}")
                    continue
                originals[id(fn)] = (fn, self._wrap(f"{mod_name}.{name}", fn))
        undo = []
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "nprsim" or mod_name.startswith("nprsim.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    undo.append((module, attr, value))
        return undo

    @staticmethod
    def unpatch(undo) -> None:
        for module, attr, value in undo:
            setattr(module, attr, value)


def job_totals(spans: list[dict]) -> dict[tuple[int, str], dict[str, dict[str, float]]]:
    """Per (pass, job), per span name: calls, self time and summed work counts."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    totals: dict = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
    for i, s in enumerate(spans):
        entry = totals[(s["pass"], s["job"])][s["name"]]
        entry["calls"] += 1
        entry["self_s"] += (s["end"] - s["start"]) - child_time[i]
        for key, value in s.get("work", {}).items():
            entry[key] += value
    return totals
