"""Per-layer tracing of a latticebv run, installed from outside the package.

`Tracer.install()` replaces the public functions of each layer with wrappers
that record a span (name, parent, start, end) or only count calls.  Spans are
kept in memory in flat arrays; a layer's self time is the time its spans cover
minus the time their child spans cover.  Arithmetic on the exact scalars is
counted only, and each operation is charged to the layer of the innermost open
span.

`suites.py` and `quantize.py` import functions by name, so a wrapper is bound
in every `latticebv` module namespace that holds the original object, not only
in the module that defines it.
"""

from __future__ import annotations

import sys
import time
from array import array

# layer -> (module, qualified name, key argument indices or None)
# Key indices mark the Green-layer arguments (solver or direction, source
# section) that are keyed to count distinct sources.
SPAN_TARGETS = {
    "lattice": [
        ("lattice", "causal_hull", None),
        ("lattice", "slab", None),
        ("lattice", "causally_disjoint", None),
        ("lattice", "factorize_tuple", None),
        ("lattice", "find_time_ordering", None),
    ],
    "bvtheory.stencil": [
        ("bvtheory", "Stencil.apply", None),
        ("bvtheory", "Stencil.compose", None),
        ("bvtheory", "FreeBVModel.int_pairing", None),
    ],
    "bvtheory.green": [
        ("bvtheory", "GreenSolver.apply", (0, 1)),
        ("bvtheory", "GreenSolver.value_at", (0, 1)),
        ("bvtheory", "lambda_pm", (1, 2)),
        ("bvtheory", "quasi_inverse_g", (2,)),
        ("bvtheory", "homotopy_eta", (2,)),
        ("bvtheory", "homotopy_zeta", (3,)),
    ],
    "bvtheory.pairing": [
        ("bvtheory", "tau_minus1", None),
        ("bvtheory", "tau_0", None),
        ("bvtheory", "tau_dirac", None),
    ],
    "symalg": [
        ("symalg", "mul", None),
        ("symalg", "extend_derivation", None),
        ("symalg", "sym_map", None),
        ("symalg", "bider_apply", None),
        ("symalg", "bider_recursive", None),
        ("symalg", "laplacian_apply", None),
        ("symalg", "laplacian_recursive", None),
        ("symalg", "exp_bider", None),
        ("symalg", "exp_laplacian", None),
        ("symalg", "tensor_mu", None),
    ],
    "quantize": [
        ("quantize", "SymModel.moyal_mul", None),
        ("quantize", "SymModel.dirac_mul", None),
        ("quantize", "SymModel.q_hbar", None),
        ("quantize", "SymModel.q_sym", None),
        ("quantize", "SymModel.time_ordering", None),
        ("quantize", "fa_product", None),
        ("quantize", "tpfa_product", None),
        ("quantize", "dirac_nary", None),
        ("quantize", "sym_power_homotopy", None),
        ("quantize", "sym_power_homotopy_defect", None),
        ("quantize", "filtration_defects", None),
    ],
    "reporting": [
        ("reporting", "make_report", None),
        ("reporting", "render_report", None),
        ("reporting", "digest_inputs", None),
    ],
}

SCALAR_CLASSES = ("HScalar", "GaussianRational")
ARITH_DUNDERS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__truediv__",
)
ORACLES = ("tau_m1", "tau_0", "tau_D")

# layers that report calls, self time and scalar operations
LAYERS = ("suites", "lattice", "bvtheory.stencil", "bvtheory.green",
          "bvtheory.pairing", "symalg.oracle", "symalg", "quantize", "reporting")


def _resolve(owner, qualname):
    obj = owner
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def _freeze(arg):
    """Hashable key for a Section (by content) or another argument (as is;
    a GreenSolver hashes by identity, one per direction)."""
    data = getattr(arg, "data", None)
    if isinstance(data, dict):
        # Section keys are unique, so sorting never compares the values
        return tuple(sorted(data.items()))
    return arg


class Tracer:
    def __init__(self):
        self.layer_index = {name: i for i, name in enumerate(LAYERS)}
        self.layer = 0  # layer of the innermost open span; 0 = "suites"
        self.scalar_ops = [0] * len(LAYERS)
        self.names: list = []        # span name per name index
        self.name_layer: list = []   # layer index per name index
        self.stats: list = []        # [calls, inclusive_s, self_s] per name
        # the spans themselves, one entry per span, parent = -1 at the root
        self.span_parent = array("q")
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list = []       # [span id, start, child time, outer layer]
        self.sources: set = set()
        self.oracle_calls = dict.fromkeys(ORACLES, 0)
        self.oracle_misses = dict.fromkeys(ORACLES, 0)
        self.normalize_calls = 0
        self.max_word_len = 0
        self.terms_out = 0

    # -- wrappers --------------------------------------------------------

    def _name(self, name, layer):
        self.names.append(name)
        self.name_layer.append(self.layer_index[layer])
        self.stats.append([0, 0.0, 0.0])
        return len(self.names) - 1

    def span(self, fn, name, layer, key_args=None, count_terms=False):
        """Wrap fn in a span; optionally key some of its arguments as a
        distinct source, or count the terms of its result."""
        tracer = self
        name_idx = self._name(name, layer)
        layer_idx = self.layer_index[layer]
        stat = self.stats[name_idx]
        stack = self._stack
        parents, names = self.span_parent, self.span_name
        starts, ends = self.span_start, self.span_end
        sources = self.sources
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if key_args is not None:
                sources.add((name_idx,) + tuple(_freeze(args[i]) for i in key_args))
            sid = len(starts)
            parents.append(stack[-1][0] if stack else -1)
            names.append(name_idx)
            ends.append(0.0)
            entry = [sid, 0.0, 0.0, tracer.layer]
            stack.append(entry)
            tracer.layer = layer_idx
            start = entry[1] = clock()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                ends[sid] = end
                dur = end - start
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - entry[2]
                if stack:
                    stack[-1][2] += dur
                tracer.layer = entry[3]
            if count_terms:
                tracer.terms_out += len(result.terms)
            return result

        return wrapper

    def counted_scalar_op(self, fn):
        tracer = self
        ops = self.scalar_ops

        def wrapper(*args):
            ops[tracer.layer] += 1
            return fn(*args)

        return wrapper

    def counted_normalize(self, fn):
        tracer = self

        def wrapper(gens):
            tracer.normalize_calls += 1
            if len(gens) > tracer.max_word_len:
                tracer.max_word_len = len(gens)
            return fn(gens)

        return wrapper

    def counted_oracle_call(self, fn):
        calls = self.oracle_calls

        def wrapper(oracle, g1, g2):
            if oracle.name in calls:
                calls[oracle.name] += 1
            return fn(oracle, g1, g2)

        return wrapper

    def oracle_miss(self, evaluate, oracle_name):
        misses = self.oracle_misses
        timed = self.span(evaluate, f"{oracle_name}.evaluate", "symalg.oracle")

        def wrapper(g1, g2):
            misses[oracle_name] += 1
            return timed(g1, g2)

        return wrapper

    # -- installation ------------------------------------------------------

    def _rebind(self, original, replacement):
        """Bind replacement wherever a latticebv module holds original."""
        for modname, mod in list(sys.modules.items()):
            if modname != "latticebv" and not modname.startswith("latticebv."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)

    def install(self):
        import latticebv  # noqa: F401  (loads every submodule)
        from latticebv import quantize, scalars, suites, symalg

        mods = {name: sys.modules[f"latticebv.{name}"]
                for name in ("lattice", "bvtheory", "symalg", "quantize", "reporting")}
        for layer, targets in SPAN_TARGETS.items():
            for modname, qualname, key_args in targets:
                mod = mods[modname]
                original = _resolve(mod, qualname)
                wrapped = self.span(original, qualname, layer, key_args,
                                    count_terms=(layer == "symalg"))
                if "." in qualname:
                    cls_name, meth = qualname.split(".")
                    setattr(getattr(mod, cls_name), meth, wrapped)
                else:
                    self._rebind(original, wrapped)

        for name in list(suites.SUITES):
            suites.SUITES[name] = self.span(suites.SUITES[name], name, "suites")

        for cls_name in SCALAR_CLASSES:
            cls = getattr(scalars, cls_name)
            for dunder in ARITH_DUNDERS:
                if dunder in vars(cls):
                    setattr(cls, dunder, self.counted_scalar_op(vars(cls)[dunder]))

        self._rebind(symalg.normalize, self.counted_normalize(symalg.normalize))
        oracle_cls = symalg.PairingOracle
        oracle_cls.__call__ = self.counted_oracle_call(oracle_cls.__call__)

        tracer = self
        sym_init = quantize.SymModel.__init__

        def init(sm, model):
            sym_init(sm, model)
            for oracle in (sm.tau_m1, sm.tau_0, sm.tau_d):
                oracle.evaluate = tracer.oracle_miss(oracle.evaluate, oracle.name)

        quantize.SymModel.__init__ = init

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics by name; see BENCHMARK.json for the list."""
        calls = [0] * len(LAYERS)
        self_s = [0.0] * len(LAYERS)
        out = {"scalars.ops": sum(self.scalar_ops)}
        for idx, (n_calls, incl, own) in enumerate(self.stats):
            layer = self.name_layer[idx]
            calls[layer] += n_calls
            self_s[layer] += own
            if LAYERS[layer] == "suites":
                out[f"suites.{self.names[idx]}.wall_s"] = incl
        for i, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = calls[i]
            out[f"{layer}.self_s"] = self_s[i]
            out[f"{layer}.scalar_ops"] = self.scalar_ops[i]
        green = self.layer_index["bvtheory.green"]
        out["bvtheory.green.distinct_sources"] = len(self.sources)
        out["bvtheory.green.reuse_ratio"] = (
            1.0 - len(self.sources) / calls[green] if calls[green] else 0.0
        )
        for name in ORACLES:
            n = self.oracle_calls[name]
            out[f"symalg.oracle.{name}.calls"] = n
            out[f"symalg.oracle.{name}.hit_ratio"] = (
                1.0 - self.oracle_misses[name] / n if n else 0.0
            )
        out["symalg.terms_out"] = self.terms_out
        out["symalg.max_word_len"] = self.max_word_len
        out["symalg.normalize.calls"] = self.normalize_calls
        n_homotopy, incl_homotopy, _ = self.stats[self.names.index("sym_power_homotopy")]
        out["quantize.sym_power_homotopy.calls"] = n_homotopy
        out["quantize.sym_power_homotopy.incl_s"] = incl_homotopy
        out["trace.spans"] = len(self.span_start)
        return out
