"""Spans around every call into the package's public functions.

`Tracer.install` wraps, in this process only, each public function of the
layer modules and each public method (and constructor) of their public
classes, then rebinds every module attribute that still points at an
original function, so ``from``-imported names such as
``robustpriors.cli.sample`` are traced too.  Spans live in flat arrays in
memory and are written once, at the end of the run.
"""

import importlib
import inspect
import os
import sys
import time
from array import array
from functools import wraps
from pathlib import Path

import numpy as np

from metrics import self_times

LAYERS = ("specfun", "priors", "model", "sampler", "oracle", "asymptotics",
          "cli")


def _rows(args, result):
    q = args[1]
    return np.shape(q)[0] if np.ndim(q) == 2 else 1


def _elems(args, result):
    return int(np.size(args[1]))


def _panels(args, result):
    return result.n_panels


def _iterations(args, result):
    return args[1].n_warmup + args[1].n_samples


def _file_bytes(args, result):
    return os.path.getsize(args[1])


def _cli_output_bytes(args, result):
    # Output files of fit and check: --out, --chains-out and the derived
    # ``_chains``/``_series`` companions.
    argv = list(args[0])
    out = Path(argv[argv.index("--out") + 1])
    paths = {out.with_name(out.stem + s + out.suffix) for s in ("", "_chains", "_series")}
    if "--chains-out" in argv:
        paths.add(Path(argv[argv.index("--chains-out") + 1]))
    return sum(p.stat().st_size for p in paths if p.exists())


# Work counted per span, stored as the span's ``size``.
SIZES = {
    "model.PosteriorTarget.logpdf": _rows,
    "model.PosteriorTarget.grad_logpdf": _rows,
    "oracle.quadrature_moments": _panels,
    "sampler.sample": _iterations,
    "sampler.save_chains": _file_bytes,
    "cli.main": _cli_output_bytes,
}
for _fam in ("Normal", "Student", "LPTN", "CTN"):
    SIZES[f"priors.{_fam}.log_density"] = _elems
    SIZES[f"priors.{_fam}.grad_log_density"] = _elems

# Parts of a call's result kept for the run summary.
KEEP = {
    "sampler.sample": lambda chains: [(c.accept_rate, c.divergences)
                                      for c in chains],
}


class Tracer:
    """Records (name, start, end, parent, size) for every traced call."""

    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.size = array("q")
        self.raised = array("b")
        self.kept = {name: [] for name in KEEP}
        self.enabled = False
        self._stack = [-1]

    def wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        size_of = SIZES.get(name)
        keep = KEEP.get(name)
        kept = self.kept.get(name)
        name_id, parent, start, end = (self.name_id, self.parent,
                                       self.start, self.end)
        size, raised, stack = self.size, self.raised, self._stack
        clock = time.perf_counter_ns

        @wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            size.append(0)
            raised.append(0)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if size_of is not None:
                size[idx] = size_of(args, result)
            if keep is not None:
                kept.append(keep(result))
            return result

        return traced

    def install(self, package="robustpriors"):
        """Wrap the public surface of each layer and rebind every alias."""
        swapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package}.{layer}")
            names = getattr(mod, "__all__", None) or [
                n for n in vars(mod) if not n.startswith("_")]
            for attr in names:
                obj = getattr(mod, attr)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    swapped[obj] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in swapped:
                    setattr(mod, attr, swapped[val])

    def _wrap_class(self, layer, cls):
        for attr, val in list(vars(cls).items()):
            if not inspect.isfunction(val):
                continue
            if attr == "__init__":
                setattr(cls, attr, self.wrap(f"{layer}.{cls.__name__}", val))
            elif not attr.startswith("_"):
                setattr(cls, attr,
                        self.wrap(f"{layer}.{cls.__name__}.{attr}", val))

    # -- results ----------------------------------------------------------

    def arrays(self):
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "size": np.frombuffer(self.size, dtype=np.int64).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class SpanTable:
    """Per-name totals over a set of recorded spans."""

    def __init__(self, tracer):
        a = tracer.arrays()
        self.names = tracer.names
        self.name_id = a["name_id"]
        self.parent = a["parent"]
        self.size = a["size"]
        self.raised = a["raised"]
        self.dur = a["end"] - a["start"]
        self.self_ns = self_times(a["start"], a["end"], a["parent"])
        self._ids = {n: i for i, n in enumerate(self.names)}

    def mask(self, names, parent_names=None):
        ids = [self._ids[n] for n in names if n in self._ids]
        m = np.isin(self.name_id, ids)
        if parent_names is not None:
            pids = [self._ids[n] for n in parent_names if n in self._ids]
            has_parent = self.parent >= 0
            pname = np.full(len(m), -1)
            pname[has_parent] = self.name_id[self.parent[has_parent]]
            m &= np.isin(pname, pids)
        return m

    def calls(self, m):
        return int(m.sum())

    def total_size(self, m):
        return int(self.size[m].sum())

    def seconds(self, m):
        return float(self.dur[m].sum()) * 1e-9

    def self_seconds(self, m):
        return float(self.self_ns[m].sum()) * 1e-9

    def raised_count(self, m):
        return int(self.raised[m].sum())

    def subtree(self, root_names):
        """Mask of every span at or below a span with one of these names."""
        inside = self.mask(root_names)
        child = self.parent >= 0
        while True:
            grown = inside.copy()
            grown[child] |= inside[self.parent[child]]
            if (grown == inside).all():
                return inside
            inside = grown
