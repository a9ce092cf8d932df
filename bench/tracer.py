"""Per-layer tracing from outside the program.

The tracer replaces each layer function with a timing wrapper in every
loaded ``liesolve`` module namespace that binds it (and, for a method, on
its class), and puts the originals back when it is removed.  Each wrapped
call is a span: its self time is its duration minus the durations of the
spans it caused.  Totals are kept per span name, in memory.

A target that a later version of the program no longer has is listed in
``absent`` and reported as zero; it never stops a run.
"""

import importlib
import sys
from time import perf_counter

# (span name, home module, attribute or Class.attribute).  Several targets
# may share one span name.
TARGETS = (
    ("matrixcore.mat_exp", "liesolve.matrixcore", "mat_exp"),
    ("matrixcore.commutator", "liesolve.matrixcore", "commutator"),
    ("matrixcore.central_second_derivatives", "liesolve.matrixcore", "central_second_derivatives"),
    ("algebra.dexpinv", "liesolve.algebra", "dexpinv"),
    ("algebra.assemble_A", "liesolve.algebra", "assemble_A"),
    ("algebra.assemble_A_derivatives", "liesolve.algebra", "assemble_A_derivatives"),
    ("algebra.AlgebraBasis", "liesolve.algebra", "AlgebraBasis.__post_init__"),
    ("ckspaces.ck_lie_system", "liesolve.ckspaces", "ck_lie_system"),
    ("integrators.increment", "liesolve.integrators", "magnus2_increment"),
    ("integrators.increment", "liesolve.integrators", "magnus4_increment"),
    ("integrators.increment", "liesolve.integrators", "rkmk_increment"),
    ("integrators.rk4_direct_step", "liesolve.integrators", "rk4_direct_step"),
    ("liesystem.solve", "liesolve.liesystem", "solve"),
    ("liesystem.act", "liesolve.liesystem", "GroupAction.act"),
    ("ckspaces.extract", "liesolve.ckspaces", "ck_extract_coords"),
    ("ckspaces.flow", "liesolve.ckspaces", "ck_flow"),
    ("benchmarks.flow", "liesolve.benchmarks", "rotation_flow"),
    ("benchmarks.flow", "liesolve.benchmarks", "radial_flow"),
    ("cli.write_csv", "liesolve.cli", "_write_csv"),
)

# Errors counted where they leave a span: the action's domain errors.
COUNTED_ERRORS = {"liesystem.act": ("liesolve.liesystem", "ActionDomainError")}


class SpanStats:
    __slots__ = ("calls", "self_s", "total_s", "errors")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.errors = 0


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.stats = {name: SpanStats() for name, _, _ in targets}
        self.coeff_evals = 0
        self.absent = []
        self._stack = []
        self._restore = []

    def install(self):
        """Wrap every target that exists; list the rest in ``absent``."""
        for name, module, attr in self.targets:
            owner, key = _resolve_owner(module, attr)
            orig = getattr(owner, key, None) if owner is not None else None
            if orig is None:
                self.absent.append(f"{module}.{attr}")
                continue
            wrapper = self._wrap(name, orig)
            if isinstance(owner, type):
                self._restore.append((owner, key, owner.__dict__.get(key, _INHERITED)))
                setattr(owner, key, wrapper)
                continue
            self._restore += rebind(orig, wrapper)

    def remove(self):
        for owner, key, orig in reversed(self._restore):
            if orig is _INHERITED:
                delattr(owner, key)
            else:
                setattr(owner, key, orig)
        self._restore.clear()

    def reset(self):
        for st in self.stats.values():
            st.__init__()
        self.coeff_evals = 0

    def count(self, func):
        """Wrap a coefficient callable so that every evaluation is counted."""

        def counted(t):
            self.coeff_evals += 1
            return func(t)

        return counted

    def _wrap(self, name, func):
        stat = self.stats[name]
        stack = self._stack
        counted = _counted_error(name)

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return func(*args, **kwargs)
            except Exception as err:
                if counted is not None and isinstance(err, counted):
                    stat.errors += 1
                raise
            finally:
                duration = perf_counter() - start
                children = stack.pop()
                stat.calls += 1
                stat.self_s += duration - children
                stat.total_s += duration
                if stack:
                    stack[-1] += duration

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", name)
        return wrapper


_INHERITED = object()


def _resolve_owner(module, attr):
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return None, attr
    if "." not in attr:
        return mod, attr
    cls_name, key = attr.split(".", 1)
    return getattr(mod, cls_name, None), key


def rebind(orig, wrapper):
    """Bind wrapper in place of orig in every loaded liesolve module;
    returns the (module, name, orig) triples that undo it."""
    undo = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "liesolve" or name.startswith("liesolve.")):
            continue
        for bound, value in list(vars(mod).items()):
            if value is orig:
                undo.append((mod, bound, orig))
                setattr(mod, bound, wrapper)
    return undo


def unbind(undo):
    for owner, key, orig in reversed(undo):
        setattr(owner, key, orig)


def _counted_error(name):
    spec = COUNTED_ERRORS.get(name)
    if spec is None:
        return None
    owner, key = _resolve_owner(*spec)
    return getattr(owner, key, None) if owner is not None else None
