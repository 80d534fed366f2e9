"""Per-layer timers and counters, installed from outside the program.

Each layer is timed by replacing, for the duration of a traced run, the
public functions that the program calls at that layer with wrappers.  The
wrappers replace the names where the caller looks them up (for example
``nlsp.survey.generate``), so the program's code is unchanged.  Times are
summed over the survey's worker threads, so a layer's figure is its busy
time, which can exceed wall time when both workers are in it.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager

TIMES = (
    "families.generate_s",
    "graphs.assemble_s",
    "spectral.dense_s",
    "spectral.iterative_s",
    "spectral.sparsity_s",
    "fitting.fit_s",
    "solvers.classify_s",
    "survey.persist_s",
    "hhl.prepare_s",
    "hhl.solve_s",
)
COUNTS = ("families.edges", "spectral.eigsh_calls", "hhl.amplitudes")


class Layers:
    """Busy time and work counts per layer, safe to update from threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.busy: dict[str, float] = defaultdict(float)
            self.counts: dict[str, int] = defaultdict(int)

    def add(self, layer: str, seconds: float) -> None:
        with self._lock:
            self.busy[layer] += seconds

    def count(self, name: str, amount: int) -> None:
        with self._lock:
            self.counts[name] += amount

    def snapshot(self) -> dict[str, float]:
        with self._lock:
            out = {name: self.busy.get(name, 0.0) for name in TIMES}
            out.update({name: float(self.counts.get(name, 0)) for name in COUNTS})
        return out


def _timed(layers: Layers, layer: str, fn, after=None):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            layers.add(layer, time.perf_counter() - start)
        if after is not None:
            after(args, result)
        return result

    return wrapper


class _LinalgView:
    """``scipy.sparse.linalg`` as spectral.py sees it, with some names
    replaced; scipy itself stays untouched."""

    def __init__(self, module, **replaced):
        self._module = module
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._module, name)


@contextmanager
def installed(layers: Layers):
    """Wrap the layer entry points of an imported ``nlsp`` while active."""
    import nlsp
    import nlsp.hhl
    import nlsp.spectral
    import nlsp.survey

    spectral = nlsp.spectral
    original_extreme_eigs = spectral.extreme_eigs
    original_eigsh = spectral.spla.eigsh

    def extreme_eigs(m, *args, **kwargs):
        layer = "spectral.dense_s" if m.order <= spectral.dense_limit() else "spectral.iterative_s"
        start = time.perf_counter()
        try:
            return original_extreme_eigs(m, *args, **kwargs)
        finally:
            layers.add(layer, time.perf_counter() - start)

    def eigsh(*args, **kwargs):
        layers.count("spectral.eigsh_calls", 1)
        return original_eigsh(*args, **kwargs)

    def count_edges(_args, instance):
        layers.count("families.edges", instance.n_edges)

    def count_amplitudes(args, _outcome):
        layers.count("hhl.amplitudes", args[0].order * args[2].n_bins)

    generate = _timed(layers, "families.generate_s", nlsp.survey.generate, count_edges)
    patches = [
        (nlsp, "generate", generate),
        (nlsp.survey, "generate", generate),
        (nlsp.survey, "system_matrix", _timed(layers, "graphs.assemble_s", nlsp.survey.system_matrix)),
        (spectral, "extreme_eigs", extreme_eigs),
        (spectral, "spla", _LinalgView(spectral.spla, eigsh=eigsh)),
        (spectral, "sparsity", _timed(layers, "spectral.sparsity_s", spectral.sparsity)),
        (nlsp.hhl, "hhl_solve", _timed(layers, "hhl.solve_s", nlsp.hhl.hhl_solve, count_amplitudes)),
        (nlsp.survey, "persist", _timed(layers, "survey.persist_s", nlsp.survey.persist)),
    ]
    for name in ("fit_series", "upper_envelope"):
        patches.append((nlsp.survey, name, _timed(layers, "fitting.fit_s", getattr(nlsp.survey, name))))
    for name in ("compose", "crossover", "evaluate_advantage"):
        patches.append((nlsp.survey, name, _timed(layers, "solvers.classify_s", getattr(nlsp.survey, name))))
    for name in ("laplacian", "incidence_matrix", "hermitian_dilation", "pad_to_power_of_two",
                 "default_config"):
        patches.append((nlsp.hhl, name, _timed(layers, "hhl.prepare_s", getattr(nlsp.hhl, name))))

    saved = [(obj, name, getattr(obj, name)) for obj, name, _ in patches]
    for obj, name, replacement in patches:
        setattr(obj, name, replacement)
    try:
        yield layers
    finally:
        for obj, name, original in saved:
            setattr(obj, name, original)
