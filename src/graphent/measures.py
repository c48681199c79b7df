"""Entanglement measures for pure multiqubit states.

Two measures are provided. The closed-form one (GCM) aggregates the
purities of every nonempty proper subsystem:

    2^(1 - n/2) * sqrt(2^n - 2 - 2 sum_A Tr rho_A^2)

with A running over one side of each of the 2^(n-1) - 1 bipartitions
(both sides have the same purity). It takes either input, of at most
MAX_VERTICES qubits. For a Graph, every purity is exact and
combinatorial, Tr rho_A^2 = 2^-cutrank(A) with the cut-rank taken over
GF(2), and their sum has a closed form in the stabilizer weight counts
c_w (graphs.stabilizer_weight_counts): with the integer
K = sum_w c_w 3^(n - w), the sum over bipartitions is
(K - 2^(n+1)) / 2^(n+1) (Shor & Laflamme, PRL 78, 1600 (1997)). Its
numerator is below 6^n < 2^42 and its denominator a power of two, so the
float is exact. No statevector and no cut-rank is computed; the path
keeps the name "cut-rank", the name of the exact graph path. A
statevector, such as a graph state after arbitrary local unitaries,
passes the one statevector rule, states.checked_state, once as it
enters any public function here; the reductions it reaches take it at
unit norm, with its n. Each purity comes from a reduced Gram matrix
("statevector" path). The geometric one is

    1 - max |<phi|psi>|^2

over product states phi. No product state beats the top Schmidt weight
of any cut, so the smallest such weight is a ceiling on the fidelity;
for a graph it is 2^-(max cut-rank) (the bound E >= max cut-rank of
Markham, Miyake, Virmani, NJP 9, 194 (2007)). For a graph there is also
a floor: |+> on a maximum independent set and |0> elsewhere has
fidelity exactly 2^-(n - alpha(G)). Where floor and ceiling meet, that
is the value ("bound" path), with no statevector and no sweep.
Otherwise the value comes from alternating (see-saw) optimization with
random restarts, which stops, certified, as soon as it reaches the
ceiling. A sweep costs about 4n numpy calls for all restarts at once,
none of which reaches BLAS: its threads stall whenever another process
holds a core. Two independent oracles bound the geometric value: the
largest Schmidt coefficient across any single bipartition (lower bound,
exact for two qubits) and a dense parameter grid (upper bound, small
systems only).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from graphent.graphs import (
    Graph,
    cut_rank_histogram,
    independence_number,
    is_int,
    stabilizer_weight_counts,
)
from graphent.reductions import purity_sum, schmidt_ceiling, top_schmidt_weight
from graphent.states import build_graph_state, checked_state

_TIE_TOL = 1e-9
_DEGENERATE_NORM = 1e-15
_MAX_REDRAWS = 8
_MAX_SWEEPS = 500
_TOLERANCE = 1e-12
_GRID_DENSITY = 24


class DegenerateContractionError(RuntimeError):
    """A gem start's qubit-1 contraction against its other factors
    vanished through _MAX_REDRAWS redraws."""


@dataclass(frozen=True)
class GemConfig:
    """Restart count and seed of the one random stream that draws the
    see-saw's starts; its tolerance and sweep cap are fixed (_TOLERANCE,
    _MAX_SWEEPS). The CLI sets only the seed, so it always runs the
    default 64 restarts; another count is set here, through the API."""

    restarts: int = 64
    seed: int = 0

    def __post_init__(self):
        for name, value in (("restarts", self.restarts), ("seed", self.seed)):
            if not is_int(value):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class GemDiagnostics:
    """Work and outcome of one gem call. degenerate_redraws counts starting
    draws redrawn before sweep 1; restart_sweeps sums, over the sweeps,
    the restarts still active in each. The largest product fidelity lies
    in [best_fidelity, ceiling], so the geometric measure lies in
    [1 - ceiling, 1 - best_fidelity]; gem clamps every fidelity to the
    ceiling, so rounding never inverts it. The bound path does no work: no
    restarts, no sweeps, and best_restart_index -1."""

    restarts_used: int
    best_restart_index: int
    iterations: int
    converged: bool
    best_fidelity: float
    degenerate_redraws: int
    restarts_at_best: int
    restart_sweeps: int
    ceiling: float


@dataclass(frozen=True)
class MeasureResult:
    """A measure value and the path that produced it. For GCM,
    "cut-rank" names the exact graph path, which sums the purities from
    the stabilizer weight counts, and "statevector" the reduced one. For
    GEM, "bound" when a graph's floor meets its ceiling, "certified" when
    the see-saw reached the Schmidt ceiling, else "see-saw"."""

    kind: str
    value: float
    method: str
    diagnostics: GemDiagnostics | None = None


def gcm(state: Graph | np.ndarray) -> MeasureResult:
    """Closed-form measure from all subsystem purities. Deterministic.

    A Graph stands for its graph state |G>, and its sum of purities
    comes from its stabilizer weight counts c_w, w = 0..n: summed over
    all 2^n subsystems it is K / 2^n, with K = sum_w c_w 3^(n - w) an
    integer taken in Python ints. Leaving out the empty and the full
    subsystem and halving for the two sides of each bipartition gives
    (K - 2^(n+1)) / 2^(n+1), an exact dyadic rational, so the value is
    bit for bit the one the cut-rank histogram gives ("cut-rank" path).
    A statevector is reduced explicitly, once per bipartition
    (reductions.purity_sum): a subsystem and its complement have equal
    purity.
    """
    if not isinstance(state, Graph):
        psi, n = checked_state(state)
        return _gcm_result(n, purity_sum(psi, n), "statevector")
    n, k = state.n, 0
    for c in stabilizer_weight_counts(state).tolist():  # Horner: c_w gains 3^(n - w)
        k = 3 * k + c
    return _gcm_result(n, (k - 2 ** (n + 1)) / 2 ** (n + 1), "cut-rank")


def _gcm_result(n: int, purities: float, method: str) -> MeasureResult:
    """2^(1 - n/2) sqrt(2^n - 2 - 2 purities), summed over bipartitions."""
    radicand = 2**n - 2 - 2.0 * purities
    if radicand < -1e-10:
        raise ValueError(f"purity sum exceeds bound by {-radicand}")
    value = 2.0 ** (1.0 - n / 2.0) * np.sqrt(max(radicand, 0.0))
    return MeasureResult(kind="GCM", value=float(value), method=method)


def _environments(psi: np.ndarray, factors: np.ndarray):
    """Yield, for k = 0..n-1, the contraction of the state psi with every
    factor except k, for all restarts at once; factors is (R, n, 2) and
    each result (R, 2).

    The optimal factor k is each row normalized, and the fidelity it
    achieves is the row's squared norm. The caller may overwrite
    factors[:, k] before asking for the next result, which then uses it.
    The factors after k enter as their product vector, built for every
    k before the first result; psi absorbs each factor before k once it
    is overwritten. A step is then two einsums and a conj for all R
    restarts, over arrays of 2^(n-k) entries per restart with the long
    axis innermost, so a sweep costs about 4n numpy calls. einsum never
    reaches BLAS. matmul, matvec, vecmat and vecdot do, and OpenBLAS
    threads a long product, which stalls whenever another process holds
    a core, so none of them is used.
    """
    r, n = factors.shape[:2]
    conj = factors.conj()
    after = [np.ones((r, 1), dtype=complex)]
    for k in range(n - 1, 0, -1):
        after.append((conj[:, k, :, None] * after[-1][:, None, :]).reshape(r, -1))
    state = psi.reshape(1, 2, -1)
    for k in range(n):
        yield np.einsum("rjm,rm->rj", state, after[n - 1 - k])
        if k + 1 < n:
            state = np.einsum("rjm,rj->rm", state, factors[:, k].conj()).reshape(r, 2, -1)


def _draw_factors(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """count starts of n unit factors, (count, n, 2), from the next count *
    4n standard normals of rng: real and imaginary parts interleave in the
    last axis, so start r is block r of the stream."""
    raw = rng.standard_normal((count, n, 4)).view(complex)
    return raw / np.linalg.norm(raw, axis=2, keepdims=True)


def _fidelity_ceiling(g: Graph) -> float:
    """2^-(max cut-rank), the top Schmidt weight of |G>'s most entangled cut."""
    return 0.5 ** (cut_rank_histogram(g).size - 1)


def gem(state: Graph | np.ndarray, cfg: GemConfig | None = None) -> MeasureResult:
    """Geometric measure from a graph's bounds, else by see-saw over
    random product-state restarts.

    A Graph stands for its graph state |G>. If its floor 2^-(n - alpha)
    equals its ceiling 2^-(max cut-rank), the result is 1 - ceiling with
    method "bound": exact, built from alpha(G) and the cut-rank
    histogram alone, with no statevector and no sweep, so cfg has no
    effect. Any other graph, and every statevector, goes to the see-saw.

    One generator, np.random.default_rng(seed), draws every start:
    restart r takes block r of its stream, so a start depends only on
    (seed, n, r). Sweeps update qubits 1..n cyclically. A start whose
    qubit-1 contraction vanishes is redrawn before sweep 1 from the next
    block of the stream; still degenerate after _MAX_REDRAWS redraws, it
    raises DegenerateContractionError.
    Later contractions cannot vanish: each squared norm is at least the
    fidelity before it, which the see-saw never lowers.
    The sweeps stop for one of three reasons:

    - certified: the best fidelity is within the tolerance _TOLERANCE
      (1e-12) of the ceiling, the smallest top Schmidt weight over all
      cuts, so no product state does better. For a Graph the ceiling is
      2^-(max cut-rank); for a statevector it is taken over the cuts the
      cut-rank histogram counts, one at a time, before any sweep: about
      2 to 6x more per qubit, and 1.5 minutes at n = 16 (see the README).
    - converged: every restart converged on its own. From sweep 2 on, a
      restart whose fidelity moved less than _TOLERANCE is frozen: it
      keeps its fidelity, and its factors leave the active batch.
    - the sweep cap _MAX_SWEEPS (500) ran out with restarts still
      active; this is the only case with converged=False. At the
      default config, catalog id 44 ends there (id 42 at seed 7).

    The winner is the highest final fidelity with ties (within
    _TIE_TOL, the restarts that restarts_at_best counts) broken toward
    the lowest restart index. The see-saw result is reproducible for a
    fixed config and is an upper bound on the true measure; the
    diagnostics' ceiling gives 1 - ceiling as a lower one. Every final
    fidelity is clamped to the ceiling, so that interval holds by
    construction even where rounding lifts a fidelity past the ceiling.
    """
    cfg = cfg or GemConfig()
    if isinstance(state, Graph):
        n, ceiling = state.n, _fidelity_ceiling(state)
        if 0.5 ** (n - independence_number(state)) == ceiling:
            diag = GemDiagnostics(
                restarts_used=0, best_restart_index=-1, iterations=0,
                converged=True, best_fidelity=ceiling, degenerate_redraws=0,
                restarts_at_best=0, restart_sweeps=0, ceiling=ceiling,
            )
            return MeasureResult(kind="GEM", value=1.0 - ceiling, method="bound",
                                 diagnostics=diag)
        # Already at unit norm as checked_state reads it: at odd n the
        # squared norm is 1.0000000000000002, whose square root rounds to 1.0.
        psi = build_graph_state(state)
    else:
        psi, n = checked_state(state)
        ceiling = schmidt_ceiling(psi, n)
    r = cfg.restarts

    rng = np.random.default_rng(cfg.seed)
    factors = _draw_factors(rng, r, n)
    degenerate_redraws = 0
    for attempt in range(1, _MAX_REDRAWS + 2):
        norms = np.linalg.norm(next(_environments(psi, factors)), axis=1)
        bad = np.flatnonzero(norms < _DEGENERATE_NORM)
        if bad.size == 0:
            break
        if attempt > _MAX_REDRAWS:
            raise DegenerateContractionError(
                f"restart {bad[0]} starts degenerate after {_MAX_REDRAWS} redraws"
            )
        factors[bad] = _draw_factors(rng, bad.size, n)
        degenerate_redraws += bad.size
    fidelities, swept = np.zeros(r), np.zeros(r)
    active = np.arange(r)
    restart_sweeps = 0
    iterations = 0
    method = "see-saw"

    # Frozen restarts sat below the ceiling when they froze, so only the
    # active ones can certify; fidelities is written as restarts freeze.
    for iterations in range(1, _MAX_SWEEPS + 1):
        restart_sweeps += active.size
        for k, env in enumerate(_environments(psi, factors)):
            size = np.abs(env)
            norms = np.hypot(size[:, 0], size[:, 1])
            np.divide(env, norms[:, None], out=factors[:, k])
        previous, swept = swept, norms * norms
        if swept.max() >= ceiling - _TOLERANCE:
            method = "certified"
            break
        settled = np.abs(swept - previous) < _TOLERANCE
        if iterations > 1 and settled.any():
            fidelities[active] = swept
            active, factors, swept = active[~settled], factors[~settled], swept[~settled]
            if active.size == 0:
                break
    fidelities[active] = swept
    fidelities = np.minimum(fidelities, ceiling)
    best_fid = float(fidelities.max())
    at_best = np.flatnonzero(fidelities >= best_fid - _TIE_TOL)
    diag = GemDiagnostics(
        restarts_used=r, best_restart_index=int(at_best[0]), iterations=iterations,
        converged=method == "certified" or active.size == 0, best_fidelity=best_fid,
        degenerate_redraws=degenerate_redraws, restarts_at_best=at_best.size,
        restart_sweeps=restart_sweeps, ceiling=ceiling,
    )
    return MeasureResult(kind="GEM", value=1.0 - best_fid, method=method,
                         diagnostics=diag)


def gem_bipartite_oracle(state: np.ndarray, cut) -> float:
    """1 minus the largest eigenvalue of the reduction onto the cut.

    Across one fixed bipartition the best product fidelity equals the
    top Schmidt weight, so this is exact for 2 qubits and a lower bound
    on the geometric measure otherwise.
    """
    s, n = checked_state(state)
    return 1.0 - top_schmidt_weight(s, cut, n)


def _grid_refine(s: np.ndarray, angles: np.ndarray,
                 spacing: tuple[float, float]) -> float:
    """Coordinate-wise local grid descent on the (theta, phi) parameters.

    Evaluates plain product fidelities on 3 rounds of shrinking windows;
    shares no machinery with the alternating optimizer.
    """
    n = angles.shape[0]
    wt, wp = spacing
    best = _angles_fidelity(s, angles)
    for _ in range(3):
        for k in range(n):
            th = np.clip(angles[k, 0] + np.linspace(-wt, wt, 17), 0.0, np.pi)
            ph = angles[k, 1] + np.linspace(-wp, wp, 17)
            tg, pg = np.meshgrid(th, ph, indexing="ij")
            cand = np.stack(
                [np.cos(tg / 2) + 0j, np.sin(tg / 2) * np.exp(1j * pg)], axis=-1
            ).reshape(-1, 2)
            others = [
                np.array([np.cos(a / 2), np.sin(a / 2) * np.exp(1j * b)])
                for a, b in angles
            ]
            red = np.moveaxis(s.reshape((2,) * n), k, n - 1).reshape(-1, 2)
            for j in [j for j in range(n) if j != k]:
                red = np.tensordot(np.conj(others[j]), red.reshape(2, -1, 2),
                                   axes=(0, 0))
            fid = np.abs(cand.conj() @ red.reshape(2)) ** 2
            i = int(np.argmax(fid))
            if fid[i] > best:
                best = float(fid[i])
                angles[k, 0] = tg.reshape(-1)[i]
                angles[k, 1] = pg.reshape(-1)[i]
        wt *= 0.2
        wp *= 0.2
    return best


def _angles_fidelity(s: np.ndarray, angles: np.ndarray) -> float:
    v = np.array([1.0 + 0j])
    for th, ph in angles:
        v = np.kron(v, np.array([np.cos(th / 2), np.sin(th / 2) * np.exp(1j * ph)]))
    return float(abs(np.vdot(v, s)) ** 2)


def brute_force_gem(state: np.ndarray) -> float:
    """Dense-grid maximization of product fidelity; small systems only.

    Scans every combination of per-qubit states on a fixed grid,
    _GRID_DENSITY (24) polar angles, poles included, by as many
    azimuths, then polishes the best grid point with local window
    searches. An upper bound on the geometric measure. Deterministic.
    """
    s, n = checked_state(state)
    if n > 3:
        raise ValueError(f"grid search supports at most 3 qubits, got {n}")
    theta = np.linspace(0.0, np.pi, _GRID_DENSITY)
    phi = np.linspace(0.0, 2.0 * np.pi, _GRID_DENSITY, endpoint=False)
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    grid = np.stack(
        [np.cos(th / 2) + 0j, np.sin(th / 2) * np.exp(1j * ph)], axis=-1
    ).reshape(-1, 2)
    g = grid.shape[0]

    def grid_angles(flat_index: int) -> tuple[float, float]:
        return theta[flat_index // len(phi)], phi[flat_index % len(phi)]

    if n == 1:
        fid = np.abs(grid.conj() @ s) ** 2
        i = int(np.argmax(fid))
        best, angles = float(fid[i]), np.array([grid_angles(i)])
    elif n == 2:
        m = grid.conj() @ s.reshape(2, 2)
        fid = np.abs(m @ grid.conj().T) ** 2
        ia, ib = np.unravel_index(int(np.argmax(fid)), fid.shape)
        best = float(fid[ia, ib])
        angles = np.array([grid_angles(int(ia)), grid_angles(int(ib))])
    else:
        best = -1.0
        best_idx = (0, 0, 0)
        psi_m = s.reshape(2, 4)
        for ia in range(g):
            t1 = (np.conj(grid[ia]) @ psi_m).reshape(2, 2)
            m = grid.conj() @ t1
            fid = np.abs(m @ grid.conj().T) ** 2
            ib, ic = np.unravel_index(int(np.argmax(fid)), fid.shape)
            if fid[ib, ic] > best:
                best = float(fid[ib, ic])
                best_idx = (ia, int(ib), int(ic))
        angles = np.array([grid_angles(i) for i in best_idx])

    spacing = (np.pi / (_GRID_DENSITY - 1), 2.0 * np.pi / _GRID_DENSITY)
    best = max(best, _grid_refine(s, angles, spacing))
    return 1.0 - min(best, 1.0)
