"""Spans around mflqg's public functions, recorded from outside the package.

`Tracer.install` replaces each public function of the layer modules, and
a few public methods, by a wrapper that records one span per call: name,
start, end, parent span and the run id of the command being replayed.
The wrapper is bound in every `mflqg.*` namespace that holds the
function, so calls made through `from .module import name` are traced
too. `Tracer.uninstall` puts the originals back. Spans stay in memory
until `write` puts them in a JSON-lines file. The tracer keeps one stack
of open spans, so it traces one thread at a time.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from pathlib import Path

LAYERS = ("model", "riccati", "linalg", "control", "sim", "oracle", "presets")
METHODS = (
    ("model", "LqMeanFieldModel", "fingerprint"),
    ("riccati", "ControlRiccatiSolution", "gain_schedule"),
    ("control", "GainSchedule", "to_dict"),
    ("sim", "LinearStrategy", "from_gains"),
    ("oracle", "EquivalenceReport", "to_dict"),
)


def stacked_flops(dim_x: int, dim_u: int, horizon: int) -> int:
    """Operations of the textbook stacked recursion, counted from its
    matrix products and the LU solve (a computed count, not a measurement)."""
    N, U = dim_x, dim_u
    per_step = (
        2 * N * N * U          # M B
        + 2 * N * U * U        # B' (M B)
        + 2 * U * N * N        # (M B)' A
        + (2 * U ** 3) // 3 + 2 * U * U * N  # LU factor and solve of H K = G
        + 4 * N ** 3           # A' M A
        + 2 * N * N * U        # G' K
    )
    return per_step * max(horizon - 1, 0)


# counts recorded at a span boundary, from the call's bound arguments
WORK = {
    "riccati.solve_control_riccati": lambda a: {"steps": a["model"].horizon - 1},
    "sim.simulate": lambda a: {"agent_steps": a["model"].horizon * a["model"].n_agents},
    "sim.monte_carlo_cost": lambda a: {
        "runs": int(a["runs"]),
        "agent_steps": int(a["runs"]) * a["model"].horizon * a["model"].n_agents,
    },
    "oracle.solve_stacked_riccati": lambda a: {
        "flops": stacked_flops(a["stacked"].dim_x, a["stacked"].dim_u, a["stacked"].horizon),
        "dim": a["stacked"].dim_x,
    },
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.run_id: str | None = None
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        counter = WORK.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            work = counter(signature.bind(*args, **kwargs).arguments) if counter else None
            span = {
                "id": len(self.spans),
                "parent": self._open[-1] if self._open else None,
                "run": self.run_id,
                "name": name,
                "start": time.perf_counter(),
                "end": None,
            }
            if work is not None:
                span["work"] = work
            self.spans.append(span)
            self._open.append(span["id"])
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()

        return traced

    def install(self) -> None:
        namespaces = [mod for key, mod in sorted(sys.modules.items())
                      if key == "mflqg" or key.startswith("mflqg.")]
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"mflqg.{layer}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(namespace, attr, wrapped[obj])
        for layer, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"mflqg.{layer}"], cls_name)
            raw = cls.__dict__[attr]
            name = f"{layer}.{cls_name}.{attr}"
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            else:
                self._patch(cls, attr, self.wrap(name, raw))

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [span["end"] - span["start"] for span in spans]
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def inclusive(spans: list[dict], name: str) -> tuple[float, dict]:
    """Total time and summed work of the calls to `name`, not counting a
    call nested inside another call to `name`."""
    seconds, work = 0.0, {}
    for span in spans:
        if span["name"] != name or _inside(spans, span, name):
            continue
        seconds += span["end"] - span["start"]
        for key, value in span.get("work", {}).items():
            work[key] = work.get(key, 0) + value
    return seconds, work


def _inside(spans: list[dict], span: dict, name: str) -> bool:
    parent = span["parent"]
    while parent is not None:
        if spans[parent]["name"] == name:
            return True
        parent = spans[parent]["parent"]
    return False


def layer_self_times(spans: list[dict]) -> dict[str, float]:
    """Self time summed per layer (the span name up to its first dot)."""
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        layer = span["name"].split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + own
    return totals
