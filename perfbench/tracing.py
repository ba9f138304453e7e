"""Tracing sectorsim from outside: spans around public functions, kept in
memory, turned into per-layer metrics.

``Tracer.install`` replaces each traced function by a wrapper in every
module namespace that binds it (``apply_two_site_gate`` is imported by
name into ``avalanche`` and ``measurement``, and ``cli`` holds its own
references), so calls made inside the package are seen without editing
it.  ``DenseState`` and ``TwoSiteGate`` are traced through their
``__post_init__`` validation.  ``uninstall`` restores every original, so
untraced runs execute the package untouched.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc
from array import array
from pathlib import Path

import numpy as np

PACKAGE = "sectorsim"
LAYERS = ("hilbert", "avalanche", "sector", "measurement", "cli")

# Traced public functions, by the layer that defines them.
FUNCTIONS = {
    "hilbert": ("apply_two_site_gate", "tensor_product", "inner_product"),
    "avalanche": ("dense_avalanche", "dense_no_avalanche_overlap", "structured_avalanche",
                  "structured_amplitude", "overlap_no_avalanche", "block_ground_overlap"),
    "sector": ("commutator_norm", "dense_sector_operator", "sector_apply",
               "sector_expectation", "dense_product_state"),
    "measurement": ("evolve", "photoexcite", "initial_state", "sector_parameter_expectation"),
    "cli": ("build_config", "run_experiment", "emit"),
}
CONSTRUCTORS = ("DenseState", "TwoSiteGate")  # hilbert dataclasses, traced via __post_init__

# commutator_norm is reported per method, the dense and analytic routes
# being different layers of work.
SPANS = tuple(
    name
    for layer, functions in FUNCTIONS.items()
    for fn in functions
    for name in ((f"{layer}.{fn}.dense", f"{layer}.{fn}.analytic")
                 if fn == "commutator_norm" else (f"{layer}.{fn}",))
) + tuple(f"hilbert.{cls}" for cls in CONSTRUCTORS)

# Bytes one two-site gate application moves per amplitude, computed from
# the kernel rather than measured: tensordot's transposed copy, the matrix
# product and the final Fortran-order reshape each read and write 16 B per
# amplitude (3 x 32 B), and DenseState's finiteness scan reads 16 B more.
GATE_BYTES_PER_AMP_COMPUTED = 112.0


def _count_metric(span: str) -> str:
    """Constructors count instances built, functions count calls."""
    return f"{span}.inits" if span.split(".")[1] in CONSTRUCTORS else f"{span}.calls"


def _per_layer_catalogue() -> tuple[tuple[str, str, str], ...]:
    """(metric name, unit, better) of every per-layer metric, in report order."""
    out = []
    for span in SPANS:
        out.append((_count_metric(span), "count", "lower"))
        out.append((f"{span}.self_s", "s", "lower"))
    out += [
        ("hilbert.apply_two_site_gate.amps", "count", "lower"),
        ("hilbert.apply_two_site_gate.ns_per_amp", "ns", "lower"),
        ("hilbert.apply_two_site_gate.copies_per_call", "ratio", "lower"),
        ("hilbert.apply_two_site_gate.bytes_per_amp_computed", "B", "lower"),
        ("hilbert.DenseState.validated_amps", "count", "lower"),
        ("avalanche.structured_amplitude.us_per_call", "us", "lower"),
        ("avalanche.gates_needed", "count", "lower"),
        ("avalanche.gate_useful_ratio", "ratio", "higher"),
        ("cli.emit.bytes", "B", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
        ("trace.coverage_frac", "ratio", "higher"),
    ]
    return tuple(out)


PER_LAYER = _per_layer_catalogue()


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so children never overlap and the part of a
    span's interval they cover is the sum of their durations.
    """
    duration = end - start
    covered = np.zeros_like(duration)
    nested = parent >= 0
    np.add.at(covered, parent[nested], duration[nested])
    return duration - covered


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


class Tracer:
    """In-memory span recorder plus the counters measured at the same calls."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.job = array("q")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.job_id = -1
        self.gate_amps = 0
        self.gate_peak_bytes = 0
        self.gate_state_bytes = 0
        self.validated_amps = 0
        self.emit_bytes = 0
        self.cascades: dict[tuple, int] = {}  # (job, register or setup) -> deepest generation
        self._probed: set[tuple] = set()  # (job, state dims) already measured by tracemalloc
        self.probing = False
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, nid: int, fn, args, kwargs):
        """Run ``fn`` inside a span named by ``nid``."""
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.current)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.current = i
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[i] = time.perf_counter()
            self.current = self.parent[i]

    def _plain(self, span: str, fn):
        nid = self.name_id(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(nid, fn, args, kwargs)
        return wrapper

    def _gate(self, span: str, fn):
        nid = self.name_id(span)
        probe = self.name_id("trace.tracemalloc_probe")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = _arg(args, kwargs, 0, "state")
            result = self.call(nid, fn, args, kwargs)
            self.gate_amps += state.amps.size
            key = (self.job_id, state.dims)
            if key not in self._probed:
                self._probed.add(key)
                self.call(probe, self._peak_bytes, (fn, args, kwargs, state), {})
            return result
        return wrapper

    def _peak_bytes(self, fn, args, kwargs, state) -> None:
        """Re-run one gate application under tracemalloc for its peak bytes.

        tracemalloc slows small numpy calls several-fold, so it runs only
        here, once per job and state shape, in a span of its own that the
        caller's self time excludes.  Traced allocations start from zero,
        so the peak is what the call holds at once.
        """
        self.probing = True
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            self.gate_peak_bytes += tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            self.probing = False
        self.gate_state_bytes += state.amps.nbytes

    def _commutator(self, span: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            method = args[2] if len(args) > 2 else kwargs.get("method", "analytic")
            return self.call(self.name_id(f"{span}.{method}"), fn, args, kwargs)
        return wrapper

    def _cascade(self, span: str, fn, first: str, key_of):
        """Span plus the deepest generation built per register, for the
        gates a sweep would need if it carried each state forward."""
        nid = self.name_id(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(nid, fn, args, kwargs)
            key = (self.job_id,) + key_of(_arg(args, kwargs, 0, first))
            n = int(_arg(args, kwargs, 1, "n"))
            self.cascades[key] = max(self.cascades.get(key, 0), n)
            return result
        return wrapper

    def _emit(self, span: str, fn):
        nid = self.name_id(span)

        # CLI jobs run with standard output redirected to a StringIO
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = sys.stdout.tell()
            try:
                return self.call(nid, fn, args, kwargs)
            finally:
                self.emit_bytes += sys.stdout.tell() - before
        return wrapper

    def _post_init(self, span: str, fn, counts_amps: bool):
        nid = self.name_id(span)

        @functools.wraps(fn)
        def wrapper(obj):
            if self.probing:
                return fn(obj)
            if counts_amps:
                self.validated_amps += np.size(obj.amps)
            return self.call(nid, fn, (obj,), {})
        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function in every package namespace binding it."""
        modules = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS
        ]
        for layer, functions in FUNCTIONS.items():
            home = importlib.import_module(f"{PACKAGE}.{layer}")
            for fn_name in functions:
                original = getattr(home, fn_name)
                span = f"{layer}.{fn_name}"
                if fn_name == "apply_two_site_gate":
                    wrapper = self._gate(span, original)
                elif fn_name == "commutator_norm":
                    wrapper = self._commutator(span, original)
                elif fn_name == "dense_avalanche":
                    wrapper = self._cascade(span, original, "params",
                                            lambda p: ("register", p.n_dopants, p.eta))
                elif fn_name == "evolve":
                    wrapper = self._cascade(span, original, "setup",
                                            lambda setup: ("evolve", setup))
                elif fn_name == "emit":
                    wrapper = self._emit(span, original)
                else:
                    wrapper = self._plain(span, original)
                for module in modules:
                    if module.__dict__.get(fn_name) is original:
                        self._patches.append((module, fn_name, original))
                        setattr(module, fn_name, wrapper)
        hilbert = importlib.import_module(f"{PACKAGE}.hilbert")
        for cls_name in CONSTRUCTORS:
            cls = getattr(hilbert, cls_name)
            original = cls.__dict__["__post_init__"]
            self._patches.append((cls, "__post_init__", original))
            cls.__post_init__ = self._post_init(f"hilbert.{cls_name}", original,
                                                counts_amps=cls_name == "DenseState")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "job": np.frombuffer(self.job, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: Path) -> None:
        """Write the spans (name, start, end, parent, job id) as one .npz."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names, dtype=str), **self.arrays())

    def gates_needed(self) -> int:
        """Gate applications if each register state were built once and
        carried across generations: 2^n - 1 per cascade register, twice
        that for a joint evolution, which cascades both registers."""
        return sum((2 if key[1] == "evolve" else 1) * ((1 << n) - 1)
                   for key, n in self.cascades.items())

    def metrics(self, traced_job_s: float, untraced_job_s: float) -> dict[str, float]:
        """Per-layer metric values of one traced pass.

        ``traced_job_s`` and ``untraced_job_s`` are the summed wall times
        of the same jobs run with and without tracing.
        """
        spans = self.arrays()
        n_names = len(self.names)
        duration = spans["end"] - spans["start"]
        own = self_times(spans["parent"], spans["start"], spans["end"])
        calls = np.bincount(spans["name"], minlength=n_names)
        self_s = np.bincount(spans["name"], weights=own, minlength=n_names)
        total_s = np.bincount(spans["name"], weights=duration, minlength=n_names)
        by_name = {name: (int(calls[i]), float(self_s[i]), float(total_s[i]))
                   for i, name in enumerate(self.names)}

        out: dict[str, float] = {}
        for span in SPANS:
            n_calls, own_s, _ = by_name.get(span, (0, 0.0, 0.0))
            out[_count_metric(span)] = n_calls
            out[f"{span}.self_s"] = own_s
        gate_calls, _, gate_total = by_name.get("hilbert.apply_two_site_gate", (0, 0.0, 0.0))
        amp_calls, _, amp_total = by_name.get("avalanche.structured_amplitude", (0, 0.0, 0.0))
        needed = self.gates_needed()
        top = spans["parent"] < 0
        out.update({
            "hilbert.apply_two_site_gate.amps": self.gate_amps,
            "hilbert.apply_two_site_gate.ns_per_amp":
                gate_total * 1e9 / self.gate_amps if self.gate_amps else 0.0,
            "hilbert.apply_two_site_gate.copies_per_call":
                self.gate_peak_bytes / self.gate_state_bytes if self.gate_state_bytes else 0.0,
            "hilbert.apply_two_site_gate.bytes_per_amp_computed": GATE_BYTES_PER_AMP_COMPUTED,
            "hilbert.DenseState.validated_amps": self.validated_amps,
            "avalanche.structured_amplitude.us_per_call":
                amp_total * 1e6 / amp_calls if amp_calls else 0.0,
            "avalanche.gates_needed": needed,
            # no gate applied means none wasted
            "avalanche.gate_useful_ratio": needed / gate_calls if gate_calls else 1.0,
            "cli.emit.bytes": self.emit_bytes,
            "trace.overhead_frac": traced_job_s / untraced_job_s - 1.0,
            "trace.coverage_frac": float(duration[top].sum()) / traced_job_s,
        })
        return out
