"""Layer spans recorded from outside the program.

``Tracer.install`` wraps the public functions of each torsionlab layer and
rebinds the wrapper under every module attribute that held the original, so
that calls made through names imported into another module (``bounds``
holds its own ``factorize``, ``cosets`` its own ``smith_normal_form``) are
recorded too.  Spans stay in memory as per-name totals: calls, and self time,
which is the span's duration minus the time of the spans it encloses.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict

#: span name -> (layer, defining module, attribute path)
SPANS = {
    "integers.factorize": ("integers", "torsionlab.integers", "factorize"),
    "integers.jacobsthal": ("integers", "torsionlab.integers", "jacobsthal"),
    "integers.nth_prime": ("integers", "torsionlab.integers", "nth_prime"),
    "integers.minimal_coprime_shift": ("integers", "torsionlab.integers", "minimal_coprime_shift"),
    "bounds.BoundParams.init": ("bounds", "torsionlab.bounds", "BoundParams.__post_init__"),
    "bounds.bound_report": ("bounds", "torsionlab.bounds", "bound_report"),
    "bounds.final_delta": ("bounds", "torsionlab.bounds", "final_delta"),
    "bounds.closed_form_threshold": ("bounds", "torsionlab.bounds", "closed_form_threshold"),
    "bounds.iterated_f": ("bounds", "torsionlab.bounds", "iterated_f"),
    "bounds.threshold_inequalities_hold": ("bounds", "torsionlab.bounds", "threshold_inequalities_hold"),
    "linalg.rref": ("linalg", "torsionlab.linalg", "rref"),
    "linalg.solve": ("linalg", "torsionlab.linalg", "solve"),
    "linalg.span_intersect": ("linalg", "torsionlab.linalg", "span_intersect"),
    "linalg.smith_normal_form": ("linalg", "torsionlab.linalg", "smith_normal_form"),
    "linalg.iroot": ("linalg", "torsionlab.linalg", "iroot"),
    "cosets.enumerate_summands": ("cosets", "torsionlab.cosets", "enumerate_summands"),
    "cosets.ModelSubvariety.init": ("cosets", "torsionlab.cosets", "ModelSubvariety.__post_init__"),
    "cosets.special_closure": ("cosets", "torsionlab.cosets", "special_closure"),
    "cosets.keyprop_witness": ("cosets", "torsionlab.cosets", "keyprop_witness"),
    "cosets.lang_orbit": ("cosets", "torsionlab.cosets", "lang_orbit"),
    "glorbits.generate_group": ("glorbits", "torsionlab.glorbits", "generate_group"),
    "glorbits.all_subspaces": ("glorbits", "torsionlab.glorbits", "all_subspaces"),
    "glorbits.orbit": ("glorbits", "torsionlab.glorbits", "orbit"),
    "glorbits.verify_bound": ("glorbits", "torsionlab.glorbits", "verify_bound"),
    "glorbits.extremal_subspace": ("glorbits", "torsionlab.glorbits", "extremal_subspace"),
    "glorbits.stabilizer": ("glorbits", "torsionlab.glorbits", "stabilizer"),
    "glorbits.Subspace.contains": ("glorbits", "torsionlab.glorbits", "Subspace.contains"),
    "algebras.Representation.init": ("algebras", "torsionlab.algebras", "Representation.__post_init__"),
    "algebras.AlgebraEmbedding.init": ("algebras", "torsionlab.algebras", "AlgebraEmbedding.__post_init__"),
    "algebras.standard_representation": ("algebras", "torsionlab.algebras", "standard_representation"),
    "algebras.lift_idempotent": ("algebras", "torsionlab.algebras", "lift_idempotent"),
    "algebras.lift_idempotent_central": ("algebras", "torsionlab.algebras", "lift_idempotent_central"),
    "algebras.ideal_membership_mod_pi": ("algebras", "torsionlab.algebras", "ideal_membership_mod_pi"),
    "algebras.right_ideal_generator": ("algebras", "torsionlab.algebras", "right_ideal_generator"),
    "cli.main": ("cli", "torsionlab.cli", "main"),
    "jsonio.dumps": ("cli", "torsionlab.jsonio", "dumps"),
}

LAYERS = ["integers", "bounds", "linalg", "cosets", "glorbits", "algebras", "cli"]


def _catalog_counter(counter, key_of):
    """Count the size of each distinct catalog the run asks for, once."""
    seen = set()

    def hook(tracer, args, kwargs, result):
        key = key_of(*args, **kwargs)
        if key not in seen:
            seen.add(key)
            tracer.counts[counter] += len(result)

    return hook


def _ambient_key(ambient, rank, *_, **__):
    return (ambient.N, ambient.g, rank)


def _lattice_key(ell, dim, *_, **__):
    return (ell, dim)


def _group_order(tracer, args, kwargs, result):
    tracer.counts["glorbits.group_order_sum"] += len(result.elements)


def _hooks():
    return {
        "cosets.enumerate_summands": _catalog_counter("cosets.catalog_summands", _ambient_key),
        "glorbits.all_subspaces": _catalog_counter("glorbits.lattice_subspaces", _lattice_key),
        "glorbits.generate_group": _group_order,
    }


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.errors = defaultdict(int)
        self.counts = defaultdict(int)
        self.missing = []
        self._stack = []  # one [child seconds, layer] frame per open span
        self._saved = []  # (owner, attribute, original) to restore
        self._hooks = _hooks()

    def _wrap(self, name, layer, fn):
        calls, self_s, errors, stack = self.calls, self.self_s, self.errors, self._stack
        hook = self._hooks.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0, layer]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if len(stack) < 2 or stack[-2][1] != layer:
                    errors[layer] += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                calls[name] += 1
                self_s[name] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if hook is not None:
                try:
                    hook(tracer, args, kwargs, result)
                except (TypeError, AttributeError):
                    pass  # a changed signature loses the counter, not the call
            return result

        return span

    def install(self):
        """Wrap every span target; targets the program no longer has are listed in ``missing``."""
        for modname in {spec[1] for spec in SPANS.values()}:
            with contextlib.suppress(ImportError):
                importlib.import_module(modname)
        loaded = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == "torsionlab" or n.startswith("torsionlab."))]
        for name, (layer, modname, path) in SPANS.items():
            try:
                owner = sys.modules[modname]
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
            except (AttributeError, KeyError):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, layer, original)
            if outer:
                self._rebind(owner, attr, original, wrapper)
                continue
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, original, wrapper)

    def _rebind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._saved.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "errors": dict(self.errors),
            "counts": dict(self.counts),
            "missing": list(self.missing),
        }
