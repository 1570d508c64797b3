"""In-memory span tracer for the benchmark's traced runs.

Each call into a traced library function records one span: name, start,
end, the enclosing span and the id of the workload repetition it belongs to.
Spans are kept in flat typed arrays during the run and written out once at
the end.  A span's self time is its duration minus the time of its direct
child spans; calls happen on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.code = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("i")
        self.run_id = 0
        self.counters: dict[tuple[int, str], float] = {}
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        idx = len(self.code)
        self.code.append(code)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def count(self, key: str, amount: float = 1) -> None:
        k = (self.run_id, key)
        self.counters[k] = self.counters.get(k, 0) + amount

    def wrap(self, name: str, fn, hook=None):
        """Traced stand-in for ``fn``.  Exceptions leaving ``fn`` are counted
        as ``<name>.errors``; ``hook(args, kwargs, result)`` yields extra
        (counter, amount) pairs for a call that returned."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.count(name + ".errors")
                raise
            finally:
                self._close(idx)
            if hook is not None:
                for key, amount in hook(args, kwargs, result):
                    self.count(f"{name}.{key}", amount)
            return result

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names, dtype=str),
            "code": np.frombuffer(self.code, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the summed duration of its direct children."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
    return dur - covered


def per_run_totals(spans: dict) -> dict[int, dict[str, tuple[int, float]]]:
    """{run id: {span name: (calls, summed self time)}}."""
    own = self_times(spans["start"], spans["end"], spans["parent"])
    out: dict[int, dict[str, tuple[int, float]]] = {}
    for code, run, t in zip(spans["code"].tolist(), spans["run"].tolist(), own.tolist()):
        name = str(spans["names"][code])
        calls, total = out.setdefault(run, {}).get(name, (0, 0.0))
        out[run][name] = (calls + 1, total + t)
    return out


@contextmanager
def patched(tracer: Tracer, package, targets):
    """Install traced wrappers for ``targets`` and restore the originals on exit.

    ``targets`` holds (span name, module, attribute, hook) entries.  An
    attribute ``Class.method`` is replaced on the class.  A module-level
    function is replaced in every module of ``package`` that binds the same
    object, since modules that import it by name look it up in their own
    namespace.  Returns, through the context, the span names whose target
    does not exist in this version of the library.
    """
    saved = []
    missing = []
    modules = [
        mod
        for key, mod in list(sys.modules.items())
        if mod is not None and (key == package.__name__ or key.startswith(package.__name__ + "."))
    ]
    try:
        for name, module, attr, hook in targets:
            mod = sys.modules.get(f"{package.__name__}.{module}")
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            if owner is None:
                missing.append(name)
                continue
            if owner_name:
                original = owner.__dict__.get(leaf)
                if original is None:
                    missing.append(name)
                    continue
                saved.append((owner, leaf, original))
                setattr(owner, leaf, tracer.wrap(name, original, hook))
                continue
            original = getattr(owner, leaf, None)
            if original is None:
                missing.append(name)
                continue
            wrapped = tracer.wrap(name, original, hook)
            for m in modules:
                for key in [k for k, v in vars(m).items() if v is original]:
                    saved.append((m, key, original))
                    setattr(m, key, wrapped)
        yield missing
    finally:
        for obj, key, original in reversed(saved):
            setattr(obj, key, original)
