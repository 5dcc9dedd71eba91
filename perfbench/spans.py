"""In-memory spans around the program's public functions.

A ``Tracer`` replaces a function by a wrapper at the place where the
program looks it up (a module global, a class attribute or a dict entry),
records one span per call, and puts the original back on ``close``.
Spans are kept in memory and reduced to per-layer metrics at the end.
"""

from __future__ import annotations

import functools
import statistics
import time
from dataclasses import dataclass

from anderbox import cli, experiments, geometry, hamiltonian, noise


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int       # index of the enclosing span, -1 at the top
    failed: bool


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            span = Span(name, time.perf_counter(), 0.0,
                        self._stack[-1] if self._stack else -1, False)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
        return wrapper

    def patch(self, owner, attr: str, name: str) -> None:
        """Trace ``owner.attr`` (or ``owner[attr]`` for a dict) as ``name``."""
        if isinstance(owner, dict):
            self._restore.append((owner, attr, owner[attr]))
            owner[attr] = self._wrap(owner[attr], name)
        else:
            orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._restore.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name))

    def close(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._restore.clear()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]


def solve_counter() -> Tracer:
    """The only instrumentation of an untraced run: one span per
    eigen-solve, to count attempted and failed solves."""
    tr = Tracer()
    tr.patch(experiments, "eigenvalues", "solve")
    return tr


def layer_tracer() -> Tracer:
    """Spans at every layer boundary the studies cross.  ``experiments``
    binds assemble, eigenvalues, sample, mollify and restrict at import,
    ``cli`` binds the study functions and write_manifest, and the
    variational code imports inverse_transform from ``geometry`` at call
    time, so each is patched where it is looked up."""
    tr = Tracer()
    tr.patch(experiments, "eigenvalues", "solve")
    tr.patch(experiments, "assemble", "assemble")
    tr.patch(hamiltonian.GalerkinOperator, "apply", "apply")
    for fn in ("sample", "mollify", "restrict"):
        tr.patch(experiments, fn, fn)
    tr.patch(geometry, "inverse_transform", "inverse_transform")
    tr.patch(cli._STUDIES, "growth", "study")
    tr.patch(cli._STUDIES, "scaling-test", "study")
    tr.patch(cli, "chi_estimate", "chi")
    tr.patch(cli, "rate_infimum_estimate", "rate_inf")
    tr.patch(cli, "write_manifest", "write")
    tr.patch(experiments.StudyRecord, "to_csv", "write")
    return tr


def b_matrix_cache() -> tuple[int, int]:
    info = noise._b_matrix_cached.cache_info()
    return info.hits, info.misses


def layer_metrics(tr: Tracer, rounds: int, cache_before, cache_after) -> dict:
    """Per-layer metrics from the spans of ``rounds`` rounds.  Times and
    counts are per round; ratios and percentiles pool every round."""
    spans = tr.spans
    child_s = [0.0] * len(spans)
    applies_in = [0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_s[s.parent] += s.end - s.start
            if s.name == "apply":
                applies_in[s.parent] += 1

    def total(name):
        return sum(s.end - s.start for s in spans if s.name == name)

    def under(span: Span, name: str) -> bool:
        while span.parent >= 0:
            span = spans[span.parent]
            if span.name == name:
                return True
        return False

    solves = [i for i, s in enumerate(spans) if s.name == "solve"]
    solve_ms = [(spans[i].end - spans[i].start) * 1e3 for i in solves]
    applies = tr.named("apply")
    apply_s = sum(s.end - s.start for s in applies)
    study_names = ("study", "chi", "rate_inf")
    hits = cache_after[0] - cache_before[0]
    calls = hits + cache_after[1] - cache_before[1]
    per = 1.0 / rounds
    return {
        "solvers.solves": (len(solves) * per, "count"),
        "solvers.self_s": (sum(spans[i].end - spans[i].start - child_s[i]
                               for i in solves) * per, "s"),
        "solvers.applies_per_solve": (
            sum(applies_in[i] for i in solves) / max(len(solves), 1), "count"),
        "solvers.solve_ms_p50": (statistics.median(solve_ms) if solve_ms else 0.0, "ms"),
        "solvers.failed": (sum(spans[i].failed for i in solves) * per, "count"),
        "hamiltonian.applies": (len(applies) * per, "count"),
        "hamiltonian.apply_s": (apply_s * per, "s"),
        "hamiltonian.apply_us": (apply_s / max(len(applies), 1) * 1e6, "us"),
        "hamiltonian.assembles": (len(tr.named("assemble")) * per, "count"),
        "hamiltonian.assemble_s": (total("assemble") * per, "s"),
        "noise.sample_s": (total("sample") * per, "s"),
        "noise.mollify_s": (total("mollify") * per, "s"),
        "noise.restrict_s": (total("restrict") * per, "s"),
        "noise.b_matrix_hit_ratio": (hits / calls if calls else 0.0, "ratio"),
        "geometry.inverse_transform_s": (total("inverse_transform") * per, "s"),
        "experiments.self_s": (sum(s.end - s.start - child_s[i]
                                   for i, s in enumerate(spans)
                                   if s.name in study_names) * per, "s"),
        "experiments.chi_s": (total("chi") * per, "s"),
        "experiments.rate_inf_s": (total("rate_inf") * per, "s"),
        "experiments.rate_inf_applies": (
            sum(under(s, "rate_inf") for s in applies) * per, "count"),
        "cli.write_s": (total("write") * per, "s"),
    }
