"""Outside-in tracing of the manifold_ukf layers.

Inside a `patched()` block every traced function is replaced by a wrapper
that records one span: name, start, end, parent span and trace id.  Nothing
in the package changes.  lie_groups, sigma_core and montecarlo functions are
swapped as module attributes; calls inside those modules resolve through the
module globals, so nested spans appear.  Retractions and model callables are
swapped with dataclasses.replace on the copies handed to the filter.

Spans stay in flat arrays in memory and are written out once, at the end.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from array import array

import numpy as np

LIE = ("exp_so3", "log_so3", "exp_sek", "log_sek", "inverse", "exp_so2",
       "log_so2", "wedge_so3", "left_jacobian_so3", "inv_left_jacobian_so3",
       "left_jacobian_so2", "polar_project")
SIGMA = ("propagate", "update", "sigma_points", "set_weights", "filter_run")
MONTECARLO = ("simulate", "run_record", "nees", "benchmark")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("q")
        self.trace = array("i")
        self.start = array("q")
        self.end = array("q")
        self.trace_id = 0
        self._stack = []

    def __len__(self):
        return len(self.name)

    def wrap(self, name, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        clock = time.perf_counter_ns
        stack = self._stack
        names, parents, traces = self.name, self.parent, self.trace
        starts, ends = self.start, self.end

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            traces.append(self.trace_id)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        return traced

    def wrap_retraction(self, retr):
        return dataclasses.replace(
            retr, phi=self.wrap("retraction.phi", retr.phi),
            phi_inv=self.wrap("retraction.phi_inv", retr.phi_inv))

    def wrap_model(self, model):
        return dataclasses.replace(
            model, f=self.wrap("models.f", model.f),
            h=self.wrap("models.h", model.h),
            retractions={k: self.wrap_retraction(r)
                         for k, r in model.retractions.items()})

    @contextlib.contextmanager
    def patched(self, mu):
        """Swap the module-level layer functions for traced ones."""
        targets = [(mu.lie_groups, fn, f"lie_groups.{fn}") for fn in LIE]
        for fn in SIGMA:
            for mod in (mu.sigma_core, mu):
                targets.append((mod, fn, f"sigma_core.{fn}"))
        targets.append((mu.montecarlo, "filter_run", "sigma_core.filter_run"))
        for fn in MONTECARLO:
            for mod in (mu.montecarlo, mu):
                targets.append((mod, fn, f"montecarlo.{fn}"))
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
        try:
            for mod, attr, name in targets:
                setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
            yield
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "trace": np.frombuffer(self.trace, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self, lo, hi):
        """Per span name over spans [lo, hi): calls, inclusive ns, self ns.

        Self time is a span's duration minus the part its child spans cover.
        """
        a = self.arrays()
        dur = (a["end_ns"] - a["start_ns"]).astype(float)
        parent = a["parent"]
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        self_ns = dur - child
        sl = slice(lo, hi)
        ids = a["name"][sl]
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        incl = np.bincount(ids, weights=dur[sl], minlength=n)
        own = np.bincount(ids, weights=self_ns[sl], minlength=n)
        return {name: (int(calls[i]), float(incl[i]), float(own[i]))
                for i, name in enumerate(self.names) if calls[i]}
