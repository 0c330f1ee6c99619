"""Run one workload process under call tracing.

    python bench/trace_child.py SPANS.json WORKLOAD -m rvpmodes.cli ARGS...
    python bench/trace_child.py SPANS.json WORKLOAD SCRIPT.py ARGS...

The target is imported (timed as ``<target>.import``), every traced
function is wrapped in each module namespace that binds it, and the
target's ``main(ARGS)`` runs in-process.  Modules import functions by name
(``from .spectral import laplace_beta_imag``), so patching only the defining
module would miss calls made through the other bindings.  Spans stay in
memory and are written to SPANS.json when the target returns; the exit code
is the target's.
"""

from __future__ import annotations

import functools
import importlib
import importlib.util
import inspect
import json
import os
import sys
from pathlib import Path
from time import perf_counter

# module -> functions whose calls become spans
TRACED = {
    "cli": ("main", "cmd_fit", "_write_csv"),
    "spectral": ("sample_kernels", "laplace_beta_imag",
                 "laplace_beta_halfplane", "find_y0"),
    "quadrature": ("integrate_finite",),
    "volterra": ("solve_volterra", "resolvent_kernel", "apply_resolvent"),
    "decay": ("fit_mode_decay", "bootstrap_s_interval"),
}


def _bound(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        ba = sig.bind(*args, **kwargs)
        ba.apply_defaults()
        return ba.arguments
    return bind


def _extras(name, fn):
    """Counter extractor for one traced function, or None.

    Called after the span closes with (args, kwargs, result, exc); returns
    a dict stored on the span.  Counts read from arguments and results are
    exact.  numpy is imported here, after the timed import of the target.
    """
    import numpy as np

    if name == "quadrature.integrate_finite":
        def extra(a, kw, res, exc):
            res = res if exc is None else getattr(exc, "result", None)
            return {"evaluations": res.evaluations if res is not None else 0}
        return extra
    if name == "spectral.sample_kernels":
        bind = _bound(fn)

        def extra(a, kw, res, exc):
            ar = bind(a, kw)
            out = {"samples": int(np.size(ar["times"]))}
            if exc is None:
                out["err_ratio"] = res.abs_error / ar["tol"]
            return out
        return extra
    if name == "volterra.solve_volterra":
        bind = _bound(fn)

        def extra(a, kw, res, exc):
            if exc is not None:
                return {"steps": 0, "growth": False}
            rho, growth = res
            steps = rho.size - 1
            if growth:
                # samples from the crossing onward are frozen at the cap
                cap = bind(a, kw)["growth_cap"]
                steps = int(np.argmax(np.abs(rho) >= cap * (1 - 1e-9)))
            return {"steps": steps, "growth": bool(growth)}
        return extra
    if name == "decay.bootstrap_s_interval":
        bind = _bound(fn)
        return lambda a, kw, res, exc: {"replicates": bind(a, kw)["n_boot"]}
    if name == "decay.fit_mode_decay":
        return lambda a, kw, res, exc: {"fitted": exc is None}
    if name == "cli._write_csv":
        bind = _bound(fn)

        def extra(a, kw, res, exc):
            path = bind(a, kw)["path"]
            ok = exc is None and path not in (None, "-")
            return {"bytes": os.path.getsize(path) if ok else 0}
        return extra
    return None


class Tracer:
    """Spans as [name, start, end, parent_index, extras] in call order."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        extra = _extras(name, fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), None,
                    stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = perf_counter()
                stack.pop()
                if extra is not None:
                    span[4] = extra(args, kwargs, None, exc)
                raise
            span[2] = perf_counter()
            stack.pop()
            if extra is not None:
                span[4] = extra(args, kwargs, result, None)
            return result
        return traced


def install(tracer, extra_modules=()):
    """Replace each traced function in every namespace that binds it."""
    namespaces = [m for n, m in list(sys.modules.items())
                  if n == "rvpmodes" or n.startswith("rvpmodes.")]
    namespaces += list(extra_modules)
    for mod, names in TRACED.items():
        home = sys.modules.get(f"rvpmodes.{mod}")
        if home is None:  # not imported by this target
            continue
        for fname in names:
            orig = getattr(home, fname)
            wrapped = tracer.wrap(f"{mod}.{fname}", orig)
            for ns in namespaces:
                for attr, val in list(vars(ns).items()):
                    if val is orig:
                        setattr(ns, attr, wrapped)


def main(argv) -> int:
    spans_path, workload, *target = argv
    tracer = Tracer()
    t0 = perf_counter()
    if target[0] == "-m":
        module = importlib.import_module(target[1])
        label, args = target[1].rsplit(".", 1)[-1], target[2:]
        extra_modules = ()
    else:
        path = Path(target[0])
        spec = importlib.util.spec_from_file_location(path.stem, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        label, args, extra_modules = path.stem, target[1:], (module,)
    import_s = perf_counter() - t0
    try:
        install(tracer, extra_modules)
        entry = module.main  # already wrapped for the rvpmodes modules
        if label not in TRACED:
            entry = tracer.wrap(f"{label}.main", entry)
        rc = entry(args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"workload": workload, "target": target[:2],
                       "import": [f"{label}.import", import_s],
                       "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
