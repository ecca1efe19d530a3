"""Static per-thread work models and load-imbalance prediction.

The divergence analysis says *which* loops diverge; this module says
*how much* they cost. A symbolic interpreter walks each device kernel
and expresses every loop trip count as a linear form over the thread's
own vertex degree — ``range(indptr[v], indptr[v+1])`` is recognised as
``degree(v)`` iterations — yielding a per-thread work polynomial

    cost(d) = c0 + c1·d + c2·d²

per kernel. Combined with a graph's degree array the polynomial
predicts, *before any simulation*, the same quantities the simulator
measures dynamically: per-wavefront lockstep cost (max over lanes),
SIMD efficiency, and — by replaying the static-persistent schedule's
chunking and contiguous-slab ownership — the per-CU busy-time
imbalance factor that E5 measures as ``imbalance_factor(cu_busy)``.

The model deliberately mirrors :mod:`repro.engine.plan`'s persistent
path: lockstep rounds of ``workgroup_size`` lanes, ``chunk_vertices``
vertices per chunk, ``ceil(chunks/workers)``-sized contiguous slabs.
Agreement is checked empirically: the benchmark and tests assert a
Spearman rank correlation ≥ 0.8 between predicted and measured
imbalance across the generator graph zoo.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from repro.coloring.device_kernels import DeviceKernel, kernel_ast, kernels_for
from repro.metrics import imbalance_factor

__all__ = [
    "SymLin",
    "WorkModel",
    "ImbalancePrediction",
    "work_model",
    "algorithm_work_models",
    "predict_imbalance",
    "spearman",
]


# ----------------------------------------------------------------------
# symbolic linear forms over (1, degree, row-start, vertex-id)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SymLin:
    """A linear form ``const + c_deg·deg + c_start·start + c_vid·vid``.

    ``start`` is the thread's CSR row offset (``indptr[v]``) and ``vid``
    its vertex id; both cancel in well-formed trip counts (``end -
    start = deg``) and are carried only so that cancellation can
    happen.
    """

    const: float = 0.0
    c_deg: float = 0.0
    c_start: float = 0.0
    c_vid: float = 0.0

    def __add__(self, other: "SymLin") -> "SymLin":
        return SymLin(
            self.const + other.const,
            self.c_deg + other.c_deg,
            self.c_start + other.c_start,
            self.c_vid + other.c_vid,
        )

    def __sub__(self, other: "SymLin") -> "SymLin":
        return SymLin(
            self.const - other.const,
            self.c_deg - other.c_deg,
            self.c_start - other.c_start,
            self.c_vid - other.c_vid,
        )

    def scale(self, k: float) -> "SymLin":
        return SymLin(self.const * k, self.c_deg * k, self.c_start * k, self.c_vid * k)

    @property
    def is_const(self) -> bool:
        return self.c_deg == 0.0 and self.c_start == 0.0 and self.c_vid == 0.0


ZERO = SymLin()
ONE = SymLin(const=1.0)
DEG = SymLin(c_deg=1.0)
START = SymLin(c_start=1.0)
VID = SymLin(c_vid=1.0)

#: work polynomial (c0, c1·deg, c2·deg²)
Poly = tuple[float, float, float]

_SymEnv = dict[str, Optional[SymLin]]


def _padd(a: Poly, b: Poly) -> Poly:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def _pscale(a: Poly, k: float) -> Poly:
    return (a[0] * k, a[1] * k, a[2] * k)


class _WorkWalker:
    """Structural AST walk accumulating the per-thread work polynomial.

    Kernels are structured programs (the strict CFG dialect), so a
    recursive statement walk is exact — no fixed point needed. Cost
    conventions: every simple statement is one unit; a loop costs
    ``trip · (1 + body)``; an ``if`` costs both sides (SIMT lockstep
    serializes divergent branches); allocating ``[x] * n`` costs ``n``.
    Early-exit guards (``if colored: return``) are costed as written —
    the model targets the all-active first iteration, where they do
    not fire.
    """

    def __init__(self, uniform_values: Mapping[str, float]) -> None:
        self.uniform_values = dict(uniform_values)
        self.warnings: list[str] = []

    # -- symbolic expression evaluation --------------------------------

    def sym(self, node: ast.expr, env: _SymEnv) -> Optional[SymLin]:
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return SymLin(const=float(node.value))
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.BinOp):
            left = self.sym(node.left, env)
            right = self.sym(node.right, env)
            if left is None or right is None:
                return None
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                if right.is_const:
                    return left.scale(right.const)
                if left.is_const:
                    return right.scale(left.const)
                return None
            if isinstance(node.op, (ast.Div, ast.FloorDiv)) and right.is_const:
                if right.const != 0:
                    return left.scale(1.0 / right.const)
            return None
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            inner = self.sym(node.operand, env)
            return inner.scale(-1.0) if inner is not None else None
        if isinstance(node, ast.Subscript):
            return self._sym_load(node, env)
        return None

    def _sym_load(self, node: ast.Subscript, env: _SymEnv) -> Optional[SymLin]:
        base = node.value
        if not (isinstance(base, ast.Name) and base.id == "indptr"):
            return None
        idx = self.sym(node.slice, env)
        if idx is None:
            return None
        if idx == VID:
            return START
        if idx == VID + ONE:
            return START + DEG
        return None

    # -- trip counts ---------------------------------------------------

    def trip_count(self, node: ast.For, env: _SymEnv) -> Poly:
        it = node.iter
        if isinstance(it, (ast.Tuple, ast.List)):
            return (float(len(it.elts)), 0.0, 0.0)
        if (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Name)
            and it.func.id == "range"
        ):
            args = it.args
            start = self.sym(args[0], env) if len(args) > 1 else ZERO
            stop = self.sym(args[-1] if len(args) == 1 else args[1], env)
            step = self.sym(args[2], env) if len(args) > 2 else ONE
            if start is None or stop is None:
                self.warnings.append(
                    f"line {node.lineno}: unresolvable range bounds "
                    f"({ast.unparse(it)}); assuming one iteration"
                )
                return (1.0, 0.0, 0.0)
            span = stop - start
            if step is not None and step.is_const and step.const not in (0.0, 1.0):
                span = span.scale(1.0 / step.const)
            elif step is not None and not step.is_const:
                self.warnings.append(
                    f"line {node.lineno}: non-constant step; assuming unit step"
                )
            return self._lin_to_poly(span, node.lineno)
        self.warnings.append(
            f"line {node.lineno}: cannot model iterable "
            f"{ast.unparse(it)}; assuming one iteration"
        )
        return (1.0, 0.0, 0.0)

    def _lin_to_poly(self, lin: SymLin, lineno: int) -> Poly:
        if lin.c_start != 0.0 or lin.c_vid != 0.0:
            self.warnings.append(
                f"line {lineno}: trip count depends on raw row offsets; "
                "dropping the non-degree terms"
            )
        return (lin.const, lin.c_deg, 0.0)

    # -- statement walk ------------------------------------------------

    def body_cost(self, stmts: list[ast.stmt], env: _SymEnv) -> Poly:
        cost: Poly = (0.0, 0.0, 0.0)
        for stmt in stmts:
            cost = _padd(cost, self.stmt_cost(stmt, env))
        return cost

    def stmt_cost(self, stmt: ast.stmt, env: _SymEnv) -> Poly:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            return self._assign_cost(stmt, env)
        if isinstance(stmt, ast.If):
            then_env = dict(env)
            else_env = dict(env)
            cost = _padd((1.0, 0.0, 0.0), self.body_cost(stmt.body, then_env))
            cost = _padd(cost, self.body_cost(stmt.orelse, else_env))
            _merge(env, then_env, else_env)
            return cost
        if isinstance(stmt, ast.For):
            trip = self.trip_count(stmt, env)
            before = dict(env)
            body_env = dict(env)
            for name in _bound_names(stmt.target):
                body_env[name] = None
            body = _padd((1.0, 0.0, 0.0), self.body_cost(stmt.body, body_env))
            _merge(env, before, body_env)  # zero-trip path joins in
            return _padd((1.0, 0.0, 0.0), _poly_mul(trip, body, self.warnings))
        if isinstance(stmt, ast.While):
            self.warnings.append(
                f"line {stmt.lineno}: while-loop trip count unknown; "
                "costing one iteration"
            )
            before = dict(env)
            body_env = dict(env)
            body = self.body_cost(stmt.body, body_env)
            _merge(env, before, body_env)
            return _padd((1.0, 0.0, 0.0), body)
        if isinstance(stmt, ast.Pass):
            return (0.0, 0.0, 0.0)
        # return / break / continue / expr / assert: one unit
        return (1.0, 0.0, 0.0)

    def _assign_cost(self, stmt: ast.stmt, env: _SymEnv) -> Poly:
        value = getattr(stmt, "value", None)
        cost: Poly = (1.0, 0.0, 0.0)
        if isinstance(value, ast.BinOp) and isinstance(value.op, ast.Mult):
            # [x] * n — a degree-sized private allocation costs its length
            length = None
            if isinstance(value.left, (ast.List, ast.Tuple)):
                length = self.sym(value.right, env)
            elif isinstance(value.right, (ast.List, ast.Tuple)):
                length = self.sym(value.left, env)
            if length is not None:
                cost = _padd(cost, self._lin_to_poly(length, stmt.lineno))
        targets: list[ast.expr]
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        else:
            targets = [stmt.target]  # type: ignore[list-item]
        sym = self.sym(value, env) if value is not None else None
        if isinstance(stmt, ast.AugAssign):
            sym = None  # x op= y rarely stays linear; drop precision
        for t in targets:
            for name in _bound_names(t):
                env[name] = sym
        return cost


def _bound_names(target: ast.expr) -> list[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        return [n for elt in target.elts for n in _bound_names(elt)]
    return []


def _merge(env: _SymEnv, a: _SymEnv, b: _SymEnv) -> None:
    """Join two branch environments back into ``env`` (conservative)."""
    for name in set(a) | set(b):
        va, vb = a.get(name), b.get(name)
        env[name] = va if va == vb else None


def _poly_mul(trip: Poly, body: Poly, warnings: list[str]) -> Poly:
    """(t0 + t1·d) · (b0 + b1·d + b2·d²), capped at degree 2."""
    if trip[2] != 0.0:
        warnings.append("quadratic trip count; capping work model at degree 2")
    out = [0.0, 0.0, 0.0]
    overflow = 0.0
    for i, t in enumerate(trip):
        if t == 0.0:
            continue
        for j, b in enumerate(body):
            if b == 0.0:
                continue
            if i + j <= 2:
                out[i + j] += t * b
            else:
                overflow += t * b
    if overflow:
        warnings.append(
            "work model exceeds degree 2; folding overflow into the d² term"
        )
        out[2] += overflow
    return (out[0], out[1], out[2])


# ----------------------------------------------------------------------
# public model objects
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WorkModel:
    """Static per-thread cost of one kernel: ``c0 + c1·d + c2·d²``."""

    kernel: str
    grid: str  # "vertex" | "edge" | "vertex-wavefront"
    mapping: str
    coeffs: Poly
    warnings: tuple[str, ...] = ()

    def evaluate(self, degrees: np.ndarray) -> np.ndarray:
        d = np.asarray(degrees, dtype=np.float64)
        c0, c1, c2 = self.coeffs
        return c0 + c1 * d + c2 * d * d

    @property
    def is_degree_dependent(self) -> bool:
        return self.coeffs[1] != 0.0 or self.coeffs[2] != 0.0

    def to_dict(self) -> dict[str, object]:
        return {
            "kernel": self.kernel,
            "grid": self.grid,
            "mapping": self.mapping,
            "coeffs": [round(c, 3) for c in self.coeffs],
            "degree_dependent": self.is_degree_dependent,
            "warnings": list(self.warnings),
        }


_DEFAULT_UNIFORMS = {"wavefront_size": 64.0}


def work_model(
    kernel: DeviceKernel,
    *,
    uniform_values: Mapping[str, float] | None = None,
) -> WorkModel:
    """Derive the static per-thread work polynomial of one kernel.

    ``uniform_values`` supplies numeric values for launch constants that
    appear in loop steps (by default ``wavefront_size = 64``); other
    uniforms stay symbolic and simply never feed a trip count.
    """
    values = dict(_DEFAULT_UNIFORMS)
    if uniform_values:
        values.update(uniform_values)
    walker = _WorkWalker(values)
    env: _SymEnv = {}
    for p in kernel.params:
        if p in ("tid", "wid"):
            env[p] = VID
        elif p == "lane":
            # lane 0 runs the longest cooperative stride — lockstep
            # pays exactly its trip count, so model the max-work lane.
            env[p] = ZERO
        elif p in kernel.uniform_params:
            env[p] = SymLin(const=values[p]) if p in values else None
        else:
            env[p] = None  # array handle
    fn = kernel_ast(kernel)
    coeffs = walker.body_cost(fn.body, env)
    return WorkModel(
        kernel=kernel.name,
        grid=kernel.grid,
        mapping=kernel.mapping,
        coeffs=coeffs,
        warnings=tuple(walker.warnings),
    )


def algorithm_work_models(
    algorithm: str, *, mapping: str = "thread"
) -> list[WorkModel]:
    """Work models for every kernel one iteration of ``algorithm`` runs."""
    return [work_model(k) for k in kernels_for(algorithm, mapping=mapping)]


# ----------------------------------------------------------------------
# the static imbalance predictor
# ----------------------------------------------------------------------


@dataclass
class ImbalancePrediction:
    """Statically predicted load metrics for one (algorithm, graph)."""

    algorithm: str
    imbalance_factor: float
    simd_efficiency: float
    wavefront_cv: float
    worker_loads: np.ndarray = field(repr=False)
    models: list[WorkModel] = field(default_factory=list)

    def to_dict(self) -> dict[str, object]:
        return {
            "algorithm": self.algorithm,
            "imbalance_factor": round(self.imbalance_factor, 4),
            "simd_efficiency": round(self.simd_efficiency, 4),
            "wavefront_cv": round(self.wavefront_cv, 4),
            "kernels": [m.to_dict() for m in self.models],
        }


def _static_owner(num_chunks: int, workers: int) -> np.ndarray:
    """Contiguous-slab ownership: the executor's static and stealing slabs."""
    if num_chunks == 0:
        return np.empty(0, dtype=np.int64)
    per = -(-num_chunks // workers)
    return np.arange(num_chunks, dtype=np.int64) // per


def _round_costs(item_costs: np.ndarray, group: int) -> np.ndarray:
    """Lockstep rounds: max over consecutive groups of ``group`` items."""
    if item_costs.size == 0:
        return np.empty(0, dtype=np.float64)
    bounds = np.arange(0, item_costs.size, group, dtype=np.int64)
    return np.maximum.reduceat(item_costs, bounds)


def _chunk_sums(costs: np.ndarray, per_chunk: int) -> np.ndarray:
    if costs.size == 0:
        return np.empty(0, dtype=np.float64)
    per_chunk = max(1, per_chunk)
    bounds = np.arange(0, costs.size, per_chunk, dtype=np.int64)
    return np.add.reduceat(costs, bounds)


def predict_imbalance(
    algorithm: str,
    degrees: np.ndarray,
    *,
    mapping: str = "thread",
    wavefront_size: int = 64,
    workgroup_size: int = 256,
    chunk_vertices: int = 256,
    num_workers: int = 28,
    uniform_values: Mapping[str, float] | None = None,
) -> ImbalancePrediction:
    """Predict static-persistent load imbalance for one algorithm + graph.

    Replays the simulator's static schedule structurally: per-thread
    cost from the work polynomials, lockstep rounds of
    ``workgroup_size`` lanes, ``chunk_vertices`` vertices per chunk,
    contiguous ``ceil(chunks/workers)`` slabs over ``num_workers``
    persistent workers. Idle workers count as zero load — exactly what
    ``imbalance_factor(cu_busy)`` sees in a traced run.
    """
    deg = np.asarray(degrees, dtype=np.int64).ravel()
    models = [
        work_model(k, uniform_values=uniform_values)
        for k in kernels_for(algorithm, mapping=mapping)
    ]
    loads = np.zeros(num_workers, dtype=np.float64)
    useful = 0.0
    lockstep = 0.0
    wf_costs: list[np.ndarray] = []

    for model in models:
        if model.grid == "edge":
            num_items = int(deg.sum())
            item_costs = np.full(num_items, model.coeffs[0], dtype=np.float64)
        else:
            item_costs = model.evaluate(deg)
        if item_costs.size == 0:
            continue
        if model.grid == "vertex-wavefront":
            # one wavefront per vertex: the per-vertex cost already is
            # the wavefront cost; chunks hold one task per round.
            rounds = item_costs
            chunks = _chunk_sums(rounds, max(1, chunk_vertices // workgroup_size))
            wf = item_costs
            useful += float(item_costs.sum()) * wavefront_size
            lockstep += float(item_costs.sum()) * wavefront_size
        else:
            rounds = _round_costs(item_costs, workgroup_size)
            per_chunk = max(1, chunk_vertices // workgroup_size)
            chunks = _chunk_sums(rounds, per_chunk)
            wf = _round_costs(item_costs, wavefront_size)
            useful += float(item_costs.sum())
            lockstep += float(wf.sum()) * wavefront_size
        wf_costs.append(wf)
        owner = _static_owner(chunks.size, num_workers)
        loads += np.bincount(owner, weights=chunks, minlength=num_workers)

    all_wf = np.concatenate(wf_costs) if wf_costs else np.empty(0)
    mean_wf = float(all_wf.mean()) if all_wf.size else 0.0
    cv = float(all_wf.std() / mean_wf) if mean_wf > 0 else 0.0
    eff = useful / lockstep if lockstep > 0 else 1.0
    return ImbalancePrediction(
        algorithm=algorithm,
        imbalance_factor=imbalance_factor(loads),
        simd_efficiency=float(eff),
        wavefront_cv=cv,
        worker_loads=loads,
        models=models,
    )


# ----------------------------------------------------------------------
# rank correlation (no scipy dependency)
# ----------------------------------------------------------------------


def _ranks(values: np.ndarray) -> np.ndarray:
    """Average ranks (1-based), ties sharing their mean rank."""
    x = np.asarray(values, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size, dtype=np.float64)
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman rank correlation (average-rank tie handling)."""
    a = np.asarray(x, dtype=np.float64)
    b = np.asarray(y, dtype=np.float64)
    if a.size != b.size:
        raise ValueError("spearman needs equal-length inputs")
    if a.size < 2:
        return 1.0
    ra, rb = _ranks(a), _ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    denom = float(np.sqrt((ra * ra).sum() * (rb * rb).sum()))
    if denom == 0.0:
        return 0.0
    return float((ra * rb).sum() / denom)
