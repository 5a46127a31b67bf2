"""Span tracing of algmech's layers from outside the library.

``Tracer.install()`` replaces each public function named in ``TARGETS`` at
every module attribute of ``algmech`` that is bound to it (a function
imported with ``from .x import f`` is resolved through the importing module's
own globals, so each binding must be replaced), and each traced method on its
class.  ``uninstall()`` restores the originals.

Each call records one span (name, start, end, parent, request) in flat arrays
kept in memory; the request is the outermost span the call ran under.  Self
time is a span's duration minus the durations of its direct children, which
cover disjoint parts of it.  Two wrappers also keep the byte image of each
evaluation point they see per structure object, which gives the repeat ratio
a point cache keyed on those bytes could reach.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np


def _omega_name(args, kwargs):
    method = kwargs.get("method", args[2] if len(args) > 2 else "frame_formula")
    return f"prolongation.omega.{method}"


def _check_name(args, kwargs):
    return f"verify.{args[0]}"


def _structure_key(args, kwargs):
    A, q = args[0], args[1]
    return A, np.asarray(q, dtype=float).reshape(-1).tobytes()


def _prolong_key(args, kwargs):
    P, x = args[0], args[1]
    return P, x.z.tobytes()


def _rows(args, kwargs):
    return len(args[0].samples)


def _points(args, kwargs):
    return int(args[2]["points"])


# (span name or name function, module, attribute, repeat key, item count)
# Attribute "Class.method" wraps the method on its class.
TARGETS = [
    ("fields.gradient", "algmech.fields", "SmoothField.gradient", None, None),
    ("fields.eval", "algmech.fields", "TensorField.eval", None, None),
    ("fields.eval_grad", "algmech.fields", "TensorField.eval_grad", None, None),
    ("algebroid.structure_eval", "algmech.algebroid", "structure_eval", _structure_key, None),
    ("algebroid.structure_checks", "algmech.algebroid", "structure_checks", None, None),
    ("hamiltonian.ham_field", "algmech.hamiltonian", "ham_field", None, None),
    ("hamiltonian.rk4_step", "algmech.hamiltonian", "rk4_step", None, None),
    ("hamiltonian.energy_rate", "algmech.hamiltonian", "energy_rate", None, None),
    ("hamiltonian.integrate", "algmech.hamiltonian", "integrate", None, None),
    ("hamiltonian.to_csv", "algmech.hamiltonian", "Trajectory.to_csv", None, _rows),
    ("connections.verify_split", "algmech.connections", "verify_split", None, None),
    ("connections.christoffels_at", "algmech.connections", "christoffels_at", None, None),
    ("connections.curvature_at", "algmech.connections", "curvature_at", None, None),
    ("prolongation.prolong_eval", "algmech.prolongation", "prolong_eval", _prolong_key, None),
    ("prolongation.lr_ham_field", "algmech.prolongation", "lr_ham_field", None, None),
    (_omega_name, "algmech.prolongation", "omega", None, None),
    ("prolongation.closedness_residual", "algmech.prolongation", "closedness_residual", None, None),
    ("prolongation.d_squared", "algmech.prolongation", "d_squared_scalar_residual", None, None),
    ("prolongation.d_squared", "algmech.prolongation", "d_squared_oneform_residual", None, None),
    ("scenarios.lagrangian_reference", "algmech.scenarios", "lagrangian_reference", None, None),
    ("scenarios.adapted_frame", "algmech.scenarios", "_AdaptedFrame._compute_core", None, None),
    (_check_name, "algmech.verify", "run_check", None, _points),
    ("config.load_config", "algmech.config", "load_config", None, None),
    ("config.build_scenario", "algmech.config", "build_scenario", None, None),
    ("cli.main", "algmech.cli", "main", None, None),
    ("cli.simulate", "algmech.cli", "cmd_simulate", None, None),
    ("cli.verify", "algmech.cli", "cmd_verify", None, None),
]


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.items = array("q")
        self.repeat = array("b")
        self._stack = [-1]
        self._seen: dict[int, tuple[object, set]] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, name, key_fn, items_fn):
        fixed = None if callable(name) else self._name_id(name)
        stack = self._stack
        names, parents, requests = self.name, self.parent, self.request
        starts, ends, items, repeats = self.start, self.end, self.items, self.repeat
        seen = self._seen
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(fixed if fixed is not None else self._name_id(name(args, kwargs)))
            top = stack[-1]
            parents.append(top)
            requests.append(requests[top] if top >= 0 else idx)
            items.append(items_fn(args, kwargs) if items_fn is not None else 0)
            if key_fn is not None:
                owner, key = key_fn(args, kwargs)
                entry = seen.get(id(owner))
                if entry is None:
                    # holding the owner keeps its id from being reused
                    entry = seen[id(owner)] = (owner, set())
                repeats.append(key in entry[1])
                entry[1].add(key)
            else:
                repeats.append(0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target at each algmech binding; idempotent per tracer."""
        if self._patched:
            return
        mods = {k: m for k, m in sys.modules.items() if k == "algmech" or k.startswith("algmech.")}
        for name, modname, attr, key_fn, items_fn in TARGETS:
            home = mods[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, name, key_fn, items_fn))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, name, key_fn, items_fn)
            for mod in mods.values():
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, binding, original))
                        setattr(mod, binding, wrapper)

    def uninstall(self):
        for target, attr, original in reversed(self._patched):
            setattr(target, attr, original)
        self._patched.clear()

    def end_request(self):
        """Forget the points seen so far: the next request builds new structures."""
        self._seen.clear()

    def arrays(self) -> dict:
        """Spans as numpy arrays (copies), plus the name table."""
        return {
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "request": np.array(self.request, dtype=np.int32),
            "start": np.array(self.start, dtype=float),
            "end": np.array(self.end, dtype=float),
            "items": np.array(self.items, dtype=np.int64),
            "repeat": np.array(self.repeat, dtype=bool),
            "names": np.array(self.names, dtype=object),
        }

    def save(self, path):
        spans = self.arrays()
        spans["names"] = np.array(self.names, dtype=str)
        np.savez(path, **spans)


def under(spans, ancestor_name) -> np.ndarray:
    """Mask of spans that have an ancestor with the given name."""
    names = list(spans["names"])
    parent = spans["parent"]
    if ancestor_name not in names:
        return np.zeros(parent.shape[0], dtype=bool)
    is_anc = spans["name"] == names.index(ancestor_name)
    flag = np.zeros(parent.shape[0], dtype=bool)
    cur = parent.copy()
    live = cur >= 0
    while live.any():
        flag[live] |= is_anc[cur[live]]
        cur[live] = parent[cur[live]]
        live = cur >= 0
    return flag


def summarize(spans, mask=None) -> dict:
    """Per span name: calls, inclusive and self seconds, items, repeats.

    ``mask`` restricts the spans counted (self time is still computed against
    every child, masked or not).
    """
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.shape[0])
    self_time = dur - child
    sel = np.ones(dur.shape[0], dtype=bool) if mask is None else mask
    out = {}
    ids = spans["name"]
    for nid, name in enumerate(spans["names"]):
        m = sel & (ids == nid)
        calls = int(m.sum())
        if not calls:
            continue
        rep = spans["repeat"][m]
        fresh = ~rep
        out[str(name)] = {
            "calls": calls,
            "total_s": float(dur[m].sum()),
            "self_s": float(self_time[m].sum()),
            "items": int(spans["items"][m].sum()),
            "repeats": int(rep.sum()),
            "fresh_calls": int(fresh.sum()),
            "fresh_s": float(dur[m][fresh].sum()),
        }
    return out
