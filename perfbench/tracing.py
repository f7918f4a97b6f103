"""Span recorder for the benchmark's traced mode.

A `Tracer` wraps public icflow callables from outside the package. Each
call becomes a span: name, start, end, parent span and run id, kept in
flat in-memory arrays until the benchmark ends. A span's self time is its
duration minus the durations of its direct children; calls in one thread
nest, so the children of a span never overlap.

Functions are replaced wherever a module of the package holds them, since
modules import each other's functions by name; methods are replaced on
their class. `restore` puts every original back.

`icflow sweep` forks its workers, so they inherit the wrappers. A fork
hook empties the inherited spans in the child, and the child writes its
spans to the spool directory each time its outermost span ends. The
parent reads them back with `collect_spool`.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

# (module, attribute) of every callable the traced mode wraps; a dotted
# attribute names a method of a class in that module.
TRACED = (
    ("background", "build_warp_profile"),
    ("background", "WarpProfile.lambda_of_r"),
    ("background", "WarpProfile.radius_from_gauge"),
    ("sphere", "grad_components"),
    ("sphere", "grad_norm_sq"),
    ("sphere", "covariant_hess"),
    ("sphere", "hessian_mixed"),
    ("curvature", "elementary_symmetric"),
    ("curvature", "cone_contains"),
    ("curvature", "f_eval"),
    ("curvature", "f_grad"),
    ("geometry", "compute_extrinsic"),
    ("geometry", "state_from_gauge"),
    ("flow", "run"),
    ("flow", "step"),
    ("flow", "stable_dt"),
    ("flow", "save_checkpoint"),
    ("flow", "load_checkpoint"),
    ("diagnostics", "snapshot"),
    ("diagnostics", "theorem_report"),
    ("diagnostics", "limit_profile"),
    ("config", "parse_run_config"),
    ("cli", "execute_run"),
    ("cli", "main"),
)

# The untraced mode wraps only flow.run: one call per run, to read the
# step count and admissibility retries from the events it returns.
CAPTURE = (("flow", "run"),)


def _run_summary(args, kwargs, result):
    events = result[2]
    steps = sum(e.payload.get("steps", 0) for e in events if e.kind == "completed")
    retries = sum(1 for e in events if e.kind == "admissibility_violation")
    return {"steps": steps, "retries": retries}


def _step_dt(args, kwargs, result):
    return args[2] if len(args) > 2 else kwargs["dt"]


def _table_nodes(args, kwargs, result):
    return len(result.table_r)


def _file_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return os.path.getsize(path)


# Per-span values recorded after a successful call, keyed by span name.
_EXTRA = {
    "flow.run": _run_summary,
    "flow.step": _step_dt,
    "background.build_warp_profile": _table_nodes,
    "flow.save_checkpoint": _file_bytes,
}

_active = None
_fork_hook_registered = False


def _after_fork_in_child():
    if _active is not None:
        _active._enter_child()


class Tracer:
    """Records spans for a set of callables while installed.

    One tracer can be installed several times, with different targets;
    spans accumulate across installs and run ids tell the runs apart.
    """

    def __init__(self, spool_dir=None):
        self.spool_dir = Path(spool_dir) if spool_dir is not None else None
        self.names: list[str] = []
        self.run_labels: list[str] = []
        self.run_id = self.new_run("default")
        self.name = array("i")
        self.parent = array("q")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.extra: dict[int, object] = {}
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._in_child = False
        self._spooled = 0

    # -- install / restore ------------------------------------------------

    def install(self, targets=TRACED) -> list:
        """Wrap every (module, attribute) in `targets`. Returns the targets
        the package does not have, which are left out."""
        global _active, _fork_hook_registered
        if _active is not None:
            raise RuntimeError("another tracer is already installed")
        missing = []
        try:
            for module, attr in targets:
                mod = sys.modules.get("icflow." + module)
                name = f"{module}.{attr.rsplit('.', 1)[-1]}"
                cls_name, _, key = attr.rpartition(".")
                owner = getattr(mod, cls_name, None) if cls_name else mod
                orig = vars(owner).get(key) if owner is not None else None
                if orig is None:
                    missing.append(f"{module}.{attr}")
                elif owner is mod:
                    self._replace(orig, self.wrap(orig, name))
                else:
                    self._patch(owner, key, self.wrap(orig, name))
        except BaseException:
            self.restore()
            raise
        _active = self
        if not _fork_hook_registered:
            os.register_at_fork(after_in_child=_after_fork_in_child)
            _fork_hook_registered = True
        return missing

    def call_before(self, module: str, attr: str, hook) -> None:
        """Until `restore`, make icflow.<module>.<attr> call `hook()` first."""
        orig = getattr(sys.modules["icflow." + module], attr)

        def patched(*args, **kwargs):
            hook()
            return orig(*args, **kwargs)

        self._replace(orig, functools.wraps(orig)(patched))

    def _replace(self, orig, new):
        # modules import each other's functions by name, so replace every
        # reference the package holds
        for key, mod in list(sys.modules.items()):
            if key == "icflow" or key.startswith("icflow."):
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, attr, new)

    def _patch(self, owner, key, value):
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def restore(self) -> None:
        global _active
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)
        if _active is self:
            _active = None

    # -- recording --------------------------------------------------------

    def new_run(self, label: str) -> int:
        """Register a run label; spans recorded while it is current share its id."""
        self.run_labels.append(label)
        return len(self.run_labels) - 1

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name):
        """`fn`, recording a span named `name` for each call."""
        nid = self._name_id(name)
        extra = _EXTRA.get(name)
        names, parents, runs = self.name, self.parent, self.run
        starts, ends, stack = self.start, self.end, self._stack

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if extra is not None:
                    self.extra[idx] = extra(args, kwargs, result)
                return result
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()
                if not stack and self._in_child:
                    self._spool()

        return functools.wraps(fn)(wrapper)

    def _clear(self):
        for arr in (self.name, self.parent, self.run, self.start, self.end):
            del arr[:]
        self.extra.clear()
        self._stack.clear()

    def _enter_child(self):
        self._clear()
        self._in_child = True
        self._spooled = 0

    def _spool(self):
        if self.spool_dir is None:
            raise RuntimeError("a forked worker recorded spans but no spool_dir was given")
        self._spooled += 1
        path = self.spool_dir / f"spans-{os.getpid()}-{self._spooled}.npz"
        extra = json.dumps({str(k): v for k, v in self.extra.items()})
        np.savez(path, **self.arrays(), extra=np.array(extra))
        self._clear()

    def collect_spool(self, label: str) -> list[int]:
        """Merge the spans written by forked workers; one new run id per
        worker root span. Returns the new run ids."""
        ids = []
        if self.spool_dir is None:
            return ids
        for path in sorted(self.spool_dir.glob("spans-*.npz")):
            with np.load(path) as doc:
                base = len(self.name)
                run_id = self.new_run(f"{label}/{path.stem}")
                ids.append(run_id)
                remap = np.array([self._name_id(str(n)) for n in doc["names"]])
                parent = doc["parent"]
                self.name.extend(remap[doc["name"]].tolist())
                self.parent.extend(np.where(parent >= 0, parent + base, -1).tolist())
                self.run.extend([run_id] * len(parent))
                self.start.extend(doc["start"].tolist())
                self.end.extend(doc["end"].tolist())
                for idx, value in json.loads(str(doc["extra"])).items():
                    self.extra[int(idx) + base] = value
            path.unlink()
        return ids

    # -- results ----------------------------------------------------------

    def find(self, name: str, runs) -> np.ndarray:
        """Indices of the spans called `name` recorded under any of `runs`."""
        if name not in self.names:
            return np.zeros(0, dtype=np.intp)
        arr = self.arrays()
        return np.nonzero((arr["name"] == self.names.index(name))
                          & np.isin(arr["run"], runs))[0]

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "runs": np.array(self.run_labels),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        """Write every span recorded in this process."""
        np.savez_compressed(path, **self.arrays())


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    child = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], duration[has_parent])
    return duration - child
