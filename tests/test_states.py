"""Statevector tests: construction, local unitaries, stabilizers."""

import itertools
import random

import numpy as np
import pytest

from graphent.graphs import MAX_VERTICES, local_complement, make_graph
from graphent.states import (
    apply_local_unitary,
    build_graph_state,
    checked_state,
    inner_product,
    lc_unitary_apply,
    stabilizer_expectation,
)

_S2 = 1.0 / np.sqrt(2.0)
_KETS = {
    "0": np.array([1.0, 0.0]),
    "1": np.array([0.0, 1.0]),
    "+": np.array([_S2, _S2]),
    "-": np.array([_S2, -_S2]),
}


def ket(symbols: str) -> np.ndarray:
    """Product ket from a symbol string, first symbol = qubit 1."""
    v = np.array([1.0])
    for ch in symbols:
        v = np.kron(v, _KETS[ch])
    return v.astype(complex)


def pauli_string(n: int, xs=(), zs=()) -> np.ndarray:
    """Dense X/Z Pauli product for cross-checking bit-trick code."""
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    m = np.array([[1.0 + 0j]])
    for q in range(1, n + 1):
        op = np.eye(2, dtype=complex)
        if q in xs:
            op = op @ x
        if q in zs:
            op = op @ z
        m = np.kron(m, op)
    return m


def random_unitary(rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_graph(rng: random.Random, n: int, p: float = 0.5):
    edges = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < p]
    return make_graph(n, edges)


def plus_state(n: int) -> np.ndarray:
    """|+>^n, the graph state of the edgeless graph."""
    return build_graph_state(make_graph(n, []))


def apply_cz(state: np.ndarray, i: int, j: int) -> np.ndarray:
    """Controlled-Z between qubits i and j: negate the amplitudes with
    both bits set. The one-CZ-per-edge oracle for build_graph_state."""
    n = checked_state(state)[1]
    mask = (1 << (n - i)) | (1 << (n - j))
    out = np.array(state, dtype=complex)
    out[(np.arange(out.size) & mask) == mask] *= -1.0
    return out


def edge_list_neighbors(g, a):
    """The vertices adjacent to a, read off the edge list."""
    return {j for i, j in g.edges if i == a} | {i for i, j in g.edges if j == a}


def for_random_graphs(check, max_n: int) -> None:
    """Run check on 60 derandomized hypothesis graphs with 2 <= n <= max_n,
    and on three graphs with exactly max_n vertices, a size the draws
    need not reach: the path, the complete graph and a seeded random one."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    top_pairs = list(itertools.combinations(range(1, max_n + 1), 2))
    rng = random.Random(max_n)
    top = [make_graph(max_n, [(v, v + 1) for v in range(1, max_n)]),
           make_graph(max_n, top_pairs),
           make_graph(max_n, [p for p in top_pairs if rng.random() < 0.5])]

    @st.composite
    def graphs(draw):
        n = draw(st.integers(2, max_n))
        pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        return make_graph(n, [p for p, k in zip(pairs, keep) if k])

    test = hypothesis.given(graphs())(check)
    for g in top:
        test = hypothesis.example(g)(test)
    settings = hypothesis.settings(max_examples=60, deadline=None, database=None,
                                   derandomize=True)
    settings(test)()


def test_plus_state():
    for n in (1, 2, 5, 16):
        s = plus_state(n)
        assert s.shape == (2**n,)
        assert np.array_equal(s, np.full(2**n, 2.0 ** (-n / 2.0), dtype=complex))
    for n in (0, 17):
        with pytest.raises(ValueError, match="vertex count"):
            plus_state(n)


def test_apply_cz_two_qubits():
    got = apply_cz(plus_state(2), 1, 2)
    assert np.allclose(got, 0.5 * np.array([1, 1, 1, -1]))
    # symmetric in the qubit pair, and an involution
    assert np.allclose(apply_cz(got, 2, 1), plus_state(2))


def test_apply_cz_targets_correct_bits():
    # On 3 qubits, CZ(2,3) must leave qubit 1 alone: index bit layout is
    # qubit 1 at the most significant position.
    state = np.zeros(8, dtype=complex)
    state[0b011] = 1.0
    assert np.allclose(apply_cz(state, 2, 3)[0b011], -1.0)
    state = np.zeros(8, dtype=complex)
    state[0b110] = 1.0
    assert np.allclose(apply_cz(state, 2, 3)[0b110], 1.0)


def test_build_matches_sequential_cz():
    # Every amplitude is +-2^(-n/2), so the doubling build and one CZ per
    # edge agree to the bit, and no imaginary part is a negative zero
    # (graphent state would print it as -0.00000).
    rng = random.Random(3)
    sizes = [rng.randint(2, 6) for _ in range(20)] + list(range(1, 17))
    for n in sizes:
        g = random_graph(rng, n)
        state = np.full(2**n, 2.0 ** (-n / 2.0), dtype=complex)
        for i, j in g.edges:
            state = apply_cz(state, i, j)
        built = build_graph_state(g)
        assert np.array_equal(built, state), g
        assert not np.signbit(built.imag).any(), g


# Closed-form expansions in mixed local bases, each certified by the
# stabilizer conditions K_a |psi> = |psi> for every vertex.
_EXPANSIONS = [
    ((2, [(1, 2)]), _S2, ["0+", "1-"]),
    ((3, [(1, 2), (1, 3)]), _S2, ["0++", "1--"]),
    ((4, [(1, 2), (1, 3), (1, 4)]), _S2, ["0+++", "1---"]),
    ((5, [(1, 2), (1, 3), (1, 4), (1, 5)]), _S2, ["0++++", "1----"]),
    ((5, [(1, 2), (2, 3), (3, 4), (4, 5)]), 0.5,
     ["+0+0+", "+0-1-", "-1-0+", "-1+1-"]),
    ((6, [(1, 2), (2, 3), (3, 4), (4, 5), (2, 6)]), 0.5,
     ["+0+0++", "+0-1-+", "-1-0+-", "-1+1--"]),
    ((6, [(1, 6), (2, 4), (3, 4), (4, 5), (5, 6), (3, 6)]), 0.5,
     ["+++0+0", "+--1-0", "-+-0-1", "--+1+1"]),
    ((7, [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7)]), _S2,
     ["0++++++", "1------"]),
]


@pytest.mark.parametrize("graph_args,coeff,branches", _EXPANSIONS)
def test_known_expansions(graph_args, coeff, branches):
    n, edges = graph_args
    expected = coeff * np.sum([ket(b) for b in branches], axis=0)
    got = build_graph_state(make_graph(n, edges))
    assert np.allclose(got, expected, atol=1e-12)


@pytest.mark.parametrize("graph_args,coeff,branches", _EXPANSIONS)
def test_expansions_are_stabilized(graph_args, coeff, branches):
    # Independent certification of the closed forms above: dense Pauli
    # products, no bit tricks involved.
    n, edges = graph_args
    g = make_graph(n, edges)
    psi = coeff * np.sum([ket(b) for b in branches], axis=0)
    assert abs(np.vdot(psi, psi) - 1.0) < 1e-12
    for a in range(1, n + 1):
        ka = pauli_string(n, xs={a}, zs={j for i, j in g.edges if i == a}
                          | {i for i, j in g.edges if j == a})
        assert np.linalg.norm(ka @ psi - psi) < 1e-12


def test_stabilizer_expectation_matches_dense_oracle():
    rng = random.Random(7)
    for _ in range(15):
        g = random_graph(rng, rng.randint(2, 5))
        nrng = np.random.default_rng(rng.randint(0, 10**9))
        raw = nrng.normal(size=2**g.n) + 1j * nrng.normal(size=2**g.n)
        psi = raw / np.linalg.norm(raw)
        for a in range(1, g.n + 1):
            zs = {j for i, j in g.edges if i == a} | {i for i, j in g.edges if j == a}
            dense = np.vdot(psi, pauli_string(g.n, xs={a}, zs=zs) @ psi).real
            assert abs(stabilizer_expectation(psi, g, a) - dense) < 1e-10


def test_graph_states_are_stabilized():
    rng = random.Random(19)
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 7))
        psi = build_graph_state(g)
        for a in range(1, g.n + 1):
            assert abs(stabilizer_expectation(psi, g, a) - 1.0) < 1e-12


def test_stabilizer_expectation_flags_wrong_state():
    g = make_graph(2, [(1, 2)])
    # X (x) Z has zero expectation in |++>
    assert abs(stabilizer_expectation(plus_state(2), g, 1)) < 1e-12


def test_apply_local_unitary_basis_action():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    state = np.zeros(8, dtype=complex)
    state[0b000] = 1.0
    assert np.allclose(apply_local_unitary(state, x, 1)[0b100], 1.0)
    assert np.allclose(apply_local_unitary(state, x, 3)[0b001], 1.0)


def test_apply_local_unitary_rejects_non_unitary():
    state = plus_state(2)
    with pytest.raises(ValueError):
        apply_local_unitary(state, np.array([[1.0, 0.0], [0.0, 2.0]]), 1)
    with pytest.raises(ValueError):
        apply_local_unitary(state, np.eye(3), 1)


def test_qubit_and_vertex_checks():
    g = make_graph(3, [(1, 2), (2, 3)])
    psi = build_graph_state(g)
    with pytest.raises(ValueError, match="qubit 4 out of range for n=3"):
        apply_local_unitary(psi, np.eye(2), 4)
    for apply in (lc_unitary_apply, stabilizer_expectation):
        with pytest.raises(ValueError, match="state has 2 qubits but graph has 3"):
            apply(plus_state(2), g, 1)
        with pytest.raises(ValueError, match="out of range for n=3"):
            apply(psi, g, 4)
    # A bool would act on qubit 1, and a float used to fail with a bare
    # TypeError: both are refused as labels.
    for label in (True, 1.0, 1.5):
        with pytest.raises(ValueError, match=f"qubit {label!r} out of range"):
            apply_local_unitary(psi, np.eye(2), label)
    with pytest.raises(ValueError, match="vertex 2.0 out of range for n=3"):
        stabilizer_expectation(psi, g, 2.0)


def test_apply_local_unitary_matches_dense_kron():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        u = random_unitary(rng)
        q = int(rng.integers(1, n + 1))
        raw = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        psi = raw / np.linalg.norm(raw)
        ops = [np.eye(2, dtype=complex)] * n
        ops[q - 1] = u
        full = np.array([[1.0 + 0j]])
        for op in ops:
            full = np.kron(full, op)
        assert np.allclose(apply_local_unitary(psi, u, q), full @ psi, atol=1e-12)


def test_lc_unitary_matches_graph_move():
    rng = random.Random(41)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 7))
        a = rng.randint(1, g.n)
        direct = build_graph_state(local_complement(g, a))
        moved = lc_unitary_apply(build_graph_state(g), g, a)
        assert abs(abs(inner_product(direct, moved)) - 1.0) < 1e-12


# exp(-i pi/4 X) and exp(+i pi/4 Z), the one-qubit factors of the LC
# local Clifford, for the oracles of lc_unitary_apply.
_EXP_X = np.array([[1.0, -1.0j], [-1.0j, 1.0]]) / np.sqrt(2.0)
_EXP_Z = np.diag([np.exp(0.25j * np.pi), np.exp(-0.25j * np.pi)])


def random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    raw = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return raw / np.linalg.norm(raw)


def test_lc_unitary_matches_dense_kron_with_phase():
    # exp(-i pi/4 X_a) (x) prod_{b in N(a)} exp(+i pi/4 Z_b) as one dense
    # matrix, on random complex states, global phase included.
    rng, nrng = random.Random(43), np.random.default_rng(43)
    for n in range(1, 8):
        g = random_graph(rng, n)
        psi = random_state(nrng, n)
        for a in range(1, n + 1):
            full, nbrs = np.array([[1.0 + 0j]]), edge_list_neighbors(g, a)
            for q in range(1, n + 1):
                op = _EXP_X if q == a else _EXP_Z if q in nbrs else np.eye(2)
                full = np.kron(full, op)
            np.testing.assert_allclose(lc_unitary_apply(psi, g, a), full @ psi,
                                       rtol=0, atol=1e-12)


def test_lc_unitary_matches_per_qubit_composition():
    # The same operator as one apply_local_unitary per qubit it acts on,
    # at sizes too large for a dense matrix.
    rng, nrng = random.Random(47), np.random.default_rng(47)
    for n in range(10, 17):
        g = random_graph(rng, n)
        psi = random_state(nrng, n)
        for a in range(1, n + 1):
            want = apply_local_unitary(psi, _EXP_X, a)
            for b in sorted(edge_list_neighbors(g, a)):
                want = apply_local_unitary(want, _EXP_Z, b)
            np.testing.assert_allclose(lc_unitary_apply(psi, g, a), want,
                                       rtol=0, atol=1e-12)


def test_inner_product_conjugates_first_argument():
    a = np.array([1.0j, 0.0])
    b = np.array([1.0, 0.0])
    assert inner_product(a, b) == pytest.approx(-1.0j)
    with pytest.raises(ValueError):
        inner_product(a, np.ones(4))


def test_checked_state_validation():
    s, n = checked_state(np.ones(8))
    assert n == 3 and s.dtype == complex
    np.testing.assert_array_equal(s, np.ones(8))
    with pytest.raises(ValueError, match="length 6 is not a power of two"):
        checked_state(np.ones(6))
    with pytest.raises(ValueError, match="must be 1-D"):
        checked_state(np.ones((2, 2)))
    with pytest.raises(ValueError, match="length 0 is not a power of two"):
        checked_state(np.zeros(0))
    nan = np.ones(8)
    nan[3] = np.nan
    with pytest.raises(ValueError, match="not finite"):
        checked_state(nan)
    with pytest.raises(ValueError, match="zero norm"):
        checked_state(np.zeros(8))
    with pytest.raises(ValueError, match=f"MAX_VERTICES = 16 qubits, got {MAX_VERTICES + 1}"):
        checked_state(np.ones(2 ** (MAX_VERTICES + 1)))
