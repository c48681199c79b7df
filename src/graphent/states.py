"""Statevector construction and manipulation for graph states.

A state on n qubits is a complex vector of length 2^n. Qubit 1 maps to
the most significant bit of the basis index, so |q1 q2 ... qn> sits at
index q1*2^(n-1) + ... + qn. All qubit arguments are 1-indexed.
One helper serves X_a and the Z's on N(a) for the vertex operators. Every
public statevector function, here and in reductions and measures, starts
with checked_state, the one statevector rule.
"""

from __future__ import annotations

import math

import numpy as np

from graphent.graphs import MAX_VERTICES, Graph, check_label


def checked_state(state) -> tuple[np.ndarray, int]:
    """The statevector as a contiguous complex array, and its qubit count n.
    It must hold 2^n amplitudes, 1 <= n <= MAX_VERTICES (checked first),
    and a norm of at least 1e-12 whose square, one einsum over the float
    view (off BLAS), is finite; a state that fails is rescanned for the cause."""
    s = np.asarray(state)
    if s.ndim != 1:
        raise ValueError(f"statevector must be 1-D, got shape {s.shape}")
    if s.size < 2 or s.size & (s.size - 1):
        raise ValueError(f"statevector length {s.size} is not a power of two")
    n = s.size.bit_length() - 1
    if n > MAX_VERTICES:
        raise ValueError(f"at most MAX_VERTICES = {MAX_VERTICES} qubits, got {n}")
    s = np.ascontiguousarray(s, dtype=complex)
    squared = float(np.einsum("i,i->", s.view(float), s.view(float)))
    if not math.isfinite(squared):
        cause = "norm overflows" if np.isfinite(s).all() else "amplitudes are not finite"
        raise ValueError(f"statevector {cause}")
    if math.sqrt(squared) < 1e-12:
        raise ValueError("statevector has (near-)zero norm")
    return s, n


def build_graph_state(g: Graph) -> np.ndarray:
    """|G>: one CZ per edge of g applied to |+>^n, in n doubling steps:
    qubits join from n down to 1 as the new top bit, and where it is set
    the amplitudes so far change sign once per later neighbour set. They
    stay real until the end, so no imaginary part is -0.0. 1.3-1.6 ms at
    n = 16 with 60 edges."""
    n = g.n
    state = np.full(1, 2.0 ** (-n / 2.0))
    for v in range(n - 1, -1, -1):
        later = sum(1 << (n - 1 - u) for u in range(v + 1, n) if g.adj[v] >> u & 1)
        signs = 1.0 - 2.0 * (np.bitwise_count(np.arange(state.size) & later) & 1)
        state = np.concatenate((state, state * signs))
    return state.astype(complex)


def apply_local_unitary(state: np.ndarray, u: np.ndarray, qubit: int) -> np.ndarray:
    """Apply a single-qubit unitary u to one qubit of the state.

    Raises ValueError if u is not 2x2 unitary to within 1e-10.
    """
    s, n = checked_state(state)
    check_label(qubit, n, "qubit")
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {u.shape}")
    if not np.allclose(u.conj().T @ u, np.eye(2), atol=1e-10):
        raise ValueError("matrix is not unitary")
    t = s.reshape((2,) * n)
    t = np.moveaxis(t, qubit - 1, 0)
    t = (u @ t.reshape(2, -1)).reshape((2,) + (2,) * (n - 1))
    return np.moveaxis(t, 0, qubit - 1).reshape(-1)


def _vertex_action(state: np.ndarray, g: Graph, a: int):
    """The checked state as a complex vector, the index map of X_a (it
    flips qubit a) and how many of a's neighbours each basis index sets;
    a is not its own neighbour, so an index and its flip share that count."""
    s, n = checked_state(state)
    if n != g.n:
        raise ValueError(f"state has {n} qubits but graph has {g.n} vertices")
    check_label(a, n)
    zmask = sum(1 << (n - 1 - u) for u in range(n) if g.adj[a - 1] >> u & 1)
    idx = np.arange(1 << n)
    return s, idx ^ (1 << (n - a)), np.bitwise_count(idx & zmask)


def lc_unitary_apply(state: np.ndarray, g: Graph, a: int) -> np.ndarray:
    """Local Clifford that realizes local complementation at vertex a:
    exp(-i pi/4 X) = (1 - iX)/sqrt(2) on a and exp(+i pi/4 Z) on each
    neighbour, which with k of the deg neighbours set is one phase
    exp(i pi/4 (deg - 2k)). Up to global phase, this maps |G> onto the
    state of the locally complemented graph.
    """
    s, flipped, count = _vertex_action(state, g, a)
    deg = g.adj[a - 1].bit_count()
    phase = np.exp(0.25j * np.pi * (deg - 2 * np.arange(deg + 1))) / np.sqrt(2.0)
    return (s - 1j * s[flipped]) * phase[count]


def inner_product(a: np.ndarray, b: np.ndarray) -> complex:
    """<a|b> with the first argument conjugated."""
    a, b = checked_state(a)[0], checked_state(b)[0]
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def stabilizer_expectation(state: np.ndarray, g: Graph, a: int) -> float:
    """<s| X_a prod_{b in N(a)} Z_b |s>; the Z's give the parity of the
    neighbours set as a sign.

    Equals 1 exactly when the state is stabilized by the generator at
    vertex a; graph states satisfy this for every vertex.
    """
    s, flipped, count = _vertex_action(state, g, a)
    signs = 1.0 - 2.0 * (count & 1)
    return float(np.real(np.sum(np.conj(s) * signs * s[flipped])))
