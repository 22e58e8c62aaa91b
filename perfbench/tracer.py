"""Layer tracer that wraps cremona_kit's public functions from outside.

install() replaces each function listed in layers.LAYERS with a wrapper in
every cremona_kit namespace that binds it (catalog does
`from .orbits import pgl3_matrices`, so patching orbits alone would miss
its sweep) and patches Poly.pow_mod on the class.  While `active` is set,
each call appends a span [function, start, end, parent span, raised] to an
in-memory list; nothing is written until raw() is read at the end of the
run.  Per-element field arithmetic is left unwrapped: its time counts in
the calling function's self time.

raw() returns sums that add across processes (the cli workload merges one
per child); metrics() turns summed raws into the per-layer metrics.
"""

import functools
import sys
import time

from layers import LAYERS, per_layer_metrics


def _inc(table, key, by=1):
    table[key] = table.get(key, 0) + by


# Counts read off outputs: hook(tracer, args, kwargs, result).

def _irreducible_check(tracer, args, kwargs, result):
    _inc(tracer.counters, f"fields.irreducible_check.{result.verdict}")


def _pgl3_classify(tracer, args, kwargs, result):
    _inc(tracer.counters, "orbits.pgl3_classify.orbits_in", len(args[0]))
    _inc(tracer.counters, "orbits.pgl3_classify.classes_out", len(result))


def _match_transform(tracer, args, kwargs, result):
    _inc(tracer.counters, "orbits.match_transform.calls")
    _inc(tracer.counters, "orbits.match_transform.found", result is not None)


def _push(tracer, args, kwargs, result):
    """push_type2 and push_oracle on the same (class, link): compare."""
    key = (id(args[0]), id(args[1]))
    other = tracer.pending_push.pop(key, None)
    if other is None:
        tracer.pending_push[key] = result
    elif other != result:
        _inc(tracer.counters, "linsys.push.mismatches")


def _reduce_relation(tracer, args, kwargs, result):
    _inc(tracer.counters, "rewrite.reduce_relation.letters_in", len(args[0].letters))
    _inc(tracer.counters, "rewrite.reduce_relation.stuck", bool(result.stuck))
    for move in result.moves:
        _inc(tracer.counters, f"rewrite.moves.{move[0]}")


def _reorder_by_depth(tracer, args, kwargs, result):
    _inc(tracer.counters, "rewrite.reorder_by_depth.moves", len(result[1]))


HOOKS = {
    "fields.irreducible_check": _irreducible_check,
    "orbits.pgl3_classify": _pgl3_classify,
    "orbits.match_transform": _match_transform,
    "linsys.push_type2": _push,
    "linsys.push_oracle": _push,
    "rewrite.reduce_relation": _reduce_relation,
    "rewrite.reorder_by_depth": _reorder_by_depth,
}


class Tracer:
    def __init__(self):
        self.names = []  # function id -> "layer.function"
        self.spans = []
        self.stack = []
        self.counters = {}
        self.pending_push = {}
        self.active = False

    def _wrap(self, fid, orig, hook):
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter, self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            span = [fid, clock(), 0.0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = orig(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every listed function that exists; a missing one stays at
        0 calls."""
        namespaces = [
            mod for name, mod in list(sys.modules.items())
            if name == "cremona_kit" or name.startswith("cremona_kit.")
        ]
        for layer, funcs in LAYERS.items():
            module = sys.modules.get(f"cremona_kit.{layer}")
            if module is None:
                continue
            for func in funcs:
                qual = f"{layer}.{func}"
                if "." in func:
                    cls_name, attr = func.split(".")
                    cls = getattr(module, cls_name, None)
                    orig = getattr(cls, "__dict__", {}).get(attr)
                    if orig is None:
                        continue
                    self.names.append(qual)
                    wrapper = self._wrap(len(self.names) - 1, orig, HOOKS.get(qual))
                    setattr(cls, attr, wrapper)
                    continue
                orig = getattr(module, func, None)
                if orig is None:
                    continue
                self.names.append(qual)
                wrapper = self._wrap(len(self.names) - 1, orig, HOOKS.get(qual))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is orig:
                            setattr(ns, attr, wrapper)

    def raw(self):
        """Additive sums over the recorded spans."""
        spans, names = self.spans, self.names
        child = [0.0] * len(spans)
        for fid, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s, errors = {}, {}, {}
        counters = dict(self.counters)
        for i, (fid, start, end, parent, raised) in enumerate(spans):
            name = names[fid]
            layer = name.split(".")[0]
            _inc(calls, name)
            _inc(self_s, name, end - start - child[i])
            parent_name = names[spans[parent][0]] if parent >= 0 else None
            if raised and (parent_name is None or parent_name.split(".")[0] != layer):
                _inc(errors, layer)
            if name == "fields.is_irreducible" and parent_name == "fields.find_irreducible":
                _inc(counters, "fields.find_irreducible.tests")
            if name == "fields.find_irreducible" and not raised:
                _inc(counters, "fields.find_irreducible.results")
            if name == "freeprod.homo_eval" and parent_name == "rewrite.reduce_relation":
                _inc(counters, "freeprod.homo_eval.observer_calls")
        return {"calls": calls, "self_s": self_s, "errors": errors, "counters": counters}


def merge(raws):
    out = {"calls": {}, "self_s": {}, "errors": {}, "counters": {}}
    for raw in raws:
        for part in out:
            for key, value in raw.get(part, {}).items():
                _inc(out[part], key, value)
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def metrics(raw, extra=None):
    """Every per-layer metric by name, 0 for what did not run."""
    counters = dict(raw["counters"])
    counters["fields.find_irreducible.hit_ratio"] = _ratio(
        counters.get("fields.find_irreducible.results", 0),
        counters.get("fields.find_irreducible.tests", 0),
    )
    counters["orbits.match_transform.found_ratio"] = _ratio(
        counters.get("orbits.match_transform.found", 0),
        counters.get("orbits.match_transform.calls", 0),
    )
    counters.update(extra or {})
    out = {}
    for name, unit, _ in per_layer_metrics():
        if name.endswith(".calls"):
            value = raw["calls"].get(name[: -len(".calls")], 0)
        elif name.endswith(".self_s"):
            value = raw["self_s"].get(name[: -len(".self_s")], 0.0)
        elif name.endswith(".errors"):
            value = raw["errors"].get(name[: -len(".errors")], 0)
        else:
            value = counters.get(name, 0)
        out[name] = {"value": value, "unit": unit}
    return out
