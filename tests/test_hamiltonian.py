import numpy as np
import pytest
from scipy import stats
from scipy.integrate import dblquad

from anderbox.errors import ContractError, ConvergenceError
from anderbox.geometry import (
    DIRICHLET,
    NEUMANN,
    BoxDomain,
    GridField,
    SpectralField,
    forward_transform,
    inverse_transform,
)
from anderbox.hamiltonian import (
    TRANSFORM_BLOCK,
    assemble,
    eigenvalues,
    ims_partition,
    operator_from_noise,
    potential_on_grid,
    stack,
)
from anderbox.experiments import (
    ExperimentConfig,
    StudyRecord,
    _ascent_grid,
    _normalized_grid,
    _start_bump,
    box_bounds_study,
)
from anderbox.noise import INDICATOR, SMOOTH, enhance, mollify, restrict, sample
from anderbox import hamiltonian, solvers
from anderbox.solvers import lobpcg_top

from oracles import basis_value, dense_matrix, ims_fd_residual, min_max

BOX = BoxDomain.square(1.0)


def neumann_field(N, seed, box=BOX):
    rng = np.random.default_rng(seed)
    return SpectralField(box, NEUMANN, rng.standard_normal((N + 1, N + 1)))


class TestAssemble:
    def test_zero_potential_is_diagonal(self):
        for L in (1.0, 2.0, 4.0):
            box = BoxDomain.square(L)
            op = assemble(None, box, 16)
            vals = eigenvalues(op, 3).values
            exact = np.array([-2.0, -5.0, -5.0]) * np.pi**2 / L**2
            assert np.abs(vals - exact).max() < 1e-8

    def test_constant_potential_shifts(self):
        V = neumann_field(8, seed=0)
        base = eigenvalues(assemble(V, BOX, 12), 4).values
        shifted = eigenvalues(assemble(V, BOX, 12, shift=-2.5), 4).values
        assert np.abs(shifted - (base + 2.5)).max() < 1e-10
        plus_const = eigenvalues(assemble(3.0, BOX, 12), 3).values
        lap = eigenvalues(assemble(None, BOX, 12), 3).values
        assert np.abs(plus_const - (lap + 3.0)).max() < 1e-12

    def test_matrix_symmetric(self):
        A = dense_matrix(assemble(neumann_field(10, seed=1), BOX, 10))
        assert np.abs(A - A.T).max() < 1e-12

    def test_pairing_matches_triple_product_quadrature(self):
        # oracle: adaptive quadrature of the closed triple product
        V = SpectralField.unit_mode(BOX, NEUMANN, (1, 0), (2, 2))
        op = assemble(V, BOX, 3)
        f = lambda y, x: (
            basis_value((1, 0), NEUMANN, BOX, (x, y))
            * basis_value((1, 1), DIRICHLET, BOX, (x, y))
            * basis_value((2, 1), DIRICHLET, BOX, (x, y))
        )
        oracle, _ = dblquad(f, 0, 1, 0, 1, epsabs=1e-12)
        # layout: (k1-1)*N2 + (k2-1); (1,1) -> 0, (2,1) -> 3
        assert abs(dense_matrix(op)[3, 0] - oracle) < 1e-10


def transform_apply(op, X):
    """A X for a single-problem operator, one column at a time through the
    public (pocketfft) transforms: the reference for the apply's tables."""
    cols = []
    for x in X.T:
        u = inverse_transform(op.coeff_field(x), op._grid_M)
        w = forward_transform(GridField(op.box, u.samples * op._v_grid[0]),
                              DIRICHLET, op.trunc)
        cols.append(op.diag[0] * x + w.coeffs[1:, 1:].ravel())
    return np.column_stack(cols)


class TestBlockApply:
    # rectangular box, N0 != N1, on the grid assemble picks for the band
    RECT = BoxDomain((0.0, 0.0), (1.0, 1.5))

    def rect_operator(self):
        rng = np.random.default_rng(12)
        V = SpectralField(self.RECT, NEUMANN, rng.standard_normal((8, 5)))
        return assemble(V, self.RECT, (6, 9))

    def test_block_matches_per_column_transforms(self):
        op = self.rect_operator()
        assert op.trunc == (6, 9) and op._grid_M[0] != op._grid_M[1]
        X = np.random.default_rng(13).standard_normal((op.dim, 5))
        ref = transform_apply(op, X)
        scale = np.abs(ref).max()
        assert np.abs(op.apply(X) - ref).max() <= 1e-12 * scale
        assert op.apply(X[:, 0]).shape == (op.dim,)
        assert op.apply(X[:, :1]).shape == (op.dim, 1)
        assert np.abs(op.apply(X[:, 0]) - ref[:, 0]).max() <= 1e-12 * scale
        assert np.abs(op.apply(X[:, :1])[:, 0] - ref[:, 0]).max() <= 1e-12 * scale

    def test_lobpcg_applies_whole_blocks(self):
        op = self.rect_operator()
        shapes = []

        def counting_apply(block, which):
            shapes.append(np.shape(block))
            return op.apply(block, which)

        precond = 1.0 / (-op.diag + op.diag.max() + np.abs(op._v_grid).max() + 1.0)
        vals, _, res = lobpcg_top(counting_apply, 3, precond, tol=1e-9)
        assert res.max() <= 1e-9
        # one call per (problems, dim, columns) block: n = 3 plus 2 guards
        assert shapes and all(len(s) == 3 and s[:2] == (1, op.dim) for s in shapes)
        assert any(s[2] == 5 for s in shapes)
        ref = np.linalg.eigvalsh(dense_matrix(op))[::-1][:3]
        assert np.abs(vals[0] - ref).max() < 1e-9


class TestSineTableApply:
    """The apply's sine-table matmuls on the grids ``assemble`` picks for
    sampled potentials (odd M among them), against the public transforms
    and the operator's dense matrix."""

    @pytest.mark.parametrize("N, M", [((20, 20), (45, 45)), ((32, 32), (72, 72)),
                                      ((60, 60), (125, 125)), ((12, 20), (27, 45))])
    def test_apply_matches_transforms_and_dense(self, N, M):
        box = BoxDomain((0.0, 0.0), (1.0, 1.0 if N[0] == N[1] else 1.5))
        rng = np.random.default_rng(N[0] + N[1])
        op = assemble(rng.standard_normal(M), box, N)
        assert op._grid_M == M
        X = rng.standard_normal((op.dim, 4))
        got = op.apply(X)
        ref = transform_apply(op, X)
        scale = np.abs(ref).max()
        assert np.abs(got - ref).max() <= 1e-12 * scale
        assert np.abs(op.apply(X[:, 1]) - ref[:, 1]).max() <= 1e-12 * scale
        A = dense_matrix(op)
        assert np.abs(A - A.T).max() <= 1e-12 * np.abs(A).max()
        assert np.abs(A @ X - got).max() <= 1e-12 * scale

    def test_stack_of_block_groups_with_permuted_which(self):
        box, N, M = BoxDomain.square(1.0), (20, 20), (45, 45)
        ops = [assemble(np.random.default_rng(60 + i).standard_normal(M), box, N)
               for i in range(5)]
        st = stack(ops)
        k = TRANSFORM_BLOCK // (M[0] * M[1]) // 2
        step = TRANSFORM_BLOCK // (k * M[0] * M[1])
        assert 1 < step < 5  # three groups of problems per apply
        X = np.random.default_rng(65).standard_normal((5, st.dim, k))
        ref = np.stack([transform_apply(op, x) for op, x in zip(ops, X)])
        scale = np.abs(ref).max()
        for which in (np.array([4, 1, 3, 0, 2]), np.array([2, 0, 3])):
            assert np.abs(st.apply(X[which], which) - ref[which]).max() <= 1e-12 * scale

    def test_tables_read_only_and_cached(self):
        hamiltonian._sine_table.cache_clear()
        op = assemble(neumann_field(6, seed=3), BOX, (5, 7))
        X = np.random.default_rng(66).standard_normal((op.dim, 2))
        first = op.apply(X)
        assert np.array_equal(op.apply(X), first)
        info = hamiltonian._sine_table.cache_info()
        assert (info.misses, info.hits) == (2, 2)  # one table per axis, built once
        S = hamiltonian._sine_table(5, op._grid_M[0])
        assert not S.flags.writeable
        with pytest.raises(ValueError):
            S[0, 0] = 0.0

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="the reference needs extended-precision long double")
    def test_table_entries_at_large_N_M(self):
        # entries to an ulp of 2 at N M = 81000, where the plain float
        # argument pi k (j + 1/2) / M of up to 628 is off by up to 3e-13
        N, M = 200, 405
        j, k = np.arange(M)[:, None], np.arange(1, N + 1)[None, :]
        pi = np.arccos(np.longdouble(-1))  # extended precision
        exact = 2 * np.sin(pi * (k * (2 * j + 1)) / (2 * M))
        assert np.abs(hamiltonian._sine_table(N, M) - exact).max() <= 4.5e-16


class TestEigenvalues:
    def test_deterministic_scaling_identity(self):
        # lambda_n([0,L]^2, V) = beta^{-2} lambda_n([0,L/beta]^2, beta^2 V(beta .))
        rng = np.random.default_rng(4)
        L = 2.0
        for beta in (2.0, 0.5):
            coeffs = rng.standard_normal((7, 7))
            Vb = SpectralField(BoxDomain.square(L), NEUMANN, coeffs)
            Vs = SpectralField(BoxDomain.square(L / beta), NEUMANN, coeffs * beta)
            eb = eigenvalues(assemble(Vb, BoxDomain.square(L), 20), 5).values
            es = eigenvalues(assemble(Vs, BoxDomain.square(L / beta), 20), 5).values
            rel = np.abs(eb - es / beta**2) / np.abs(eb)
            assert rel.max() < 1e-8

    def test_iterative_matches_dense(self):
        op = assemble(neumann_field(10, seed=5), BOX, 14)
        dense = np.linalg.eigvalsh(dense_matrix(op))[::-1][:5]
        free = eigenvalues(op, 5, tol=1e-10)
        assert np.abs(free.values - dense).max() < 1e-9
        assert free.residuals.max() < 1e-9

    @pytest.mark.parametrize("n, N", [(n, N) for n in (1, 4) for N in (8, 16, 32)]
                             + [(n, 6) for n in (34, 35, 36)])
    @pytest.mark.parametrize("seed", [None, 0, 1])
    def test_iterative_matches_eigh(self, N, n, seed):
        # random Neumann potentials and the zero potential, whose top four
        # (-2, -5, -5, -8) pi^2 / L^2 hold a degenerate pair; dims 64..1024,
        # and dim 36 on the unit box with n up to the whole spectrum, where
        # round-off leaves some Gram diagonals of the solver's basis below zero
        L, tol = (4.0 if N > 6 else 1.0), 1e-9
        box = BoxDomain.square(L)
        V = None if seed is None else neumann_field(6, seed=100 + seed, box=box)
        free = assemble(V, box, N)
        ref = np.linalg.eigvalsh(dense_matrix(free))[::-1][:n]
        r = eigenvalues(free, n, vectors=True, tol=tol, seed=N + n)
        # the same problem between two others in one stack
        M = free._grid_M
        others = [assemble(np.random.default_rng(200 + i).standard_normal(M), box, N,
                           grid_M=M) for i in range(2)]
        rs = eigenvalues([others[0], free, others[1]], n, vectors=True, tol=tol,
                         seed=[1, N + n, 2])
        for r in (r, rs[1]):
            assert np.abs(r.values - ref).max() < 1e-9
            AV = np.column_stack([free.apply(v) for v in r.vectors.T])
            true_res = np.linalg.norm(AV - r.vectors * r.values, axis=0)
            assert true_res.max() <= tol
            assert np.allclose(np.linalg.norm(r.vectors, axis=0), 1.0)
        for o, ro in zip(others, rs[::2]):
            ref_o = np.linalg.eigvalsh(dense_matrix(o))[::-1][:n]
            assert np.abs(ro.values - ref_o).max() < 1e-9

    def test_multiplicity_reported_adjacent(self):
        vals = eigenvalues(assemble(None, BOX, 12), 4).values
        assert vals[1] == pytest.approx(vals[2], abs=1e-10)

    def test_request_bounds(self):
        op = assemble(None, BOX, 4)
        with pytest.raises(ContractError):
            eigenvalues(op, 0)
        with pytest.raises(ContractError):
            eigenvalues(op, op.dim + 1)

    def test_nonconvergence_reports_residuals(self):
        op = assemble(neumann_field(8, seed=6), BOX, 12)
        with pytest.raises(ConvergenceError) as err:
            eigenvalues(op, 3, tol=1e-30)
        assert err.value.residuals is not None
        assert len(err.value.residuals) == 3


class TestStacks:
    """Stacks of same-shape problems: one apply and one LOBPCG loop for
    all, with every problem's answer that of its solve alone."""

    RECT = BoxDomain((0.0, 0.0), (1.0, 1.5))

    def rect_ops(self, count, N=(6, 9)):
        # same sides, different origins and potentials
        ops = []
        for i in range(count):
            box = BoxDomain((0.5 * i, 0.25 * i), self.RECT.sides)
            V = SpectralField(box, NEUMANN,
                              np.random.default_rng(30 + i).standard_normal((8, 5)))
            ops.append(assemble(V, box, N))
        return ops

    def noise_ops(self, count, L=2.0, N=16):
        parent = BoxDomain.square(4.0)
        box = BoxDomain((1.0, 1.0), (L, L))
        return [assemble(restrict(sample(parent, 32, 40 + i), 0.25, box, 2 * N, INDICATOR),
                         box, N) for i in range(count)]

    def test_stacked_apply_matches_each_operator(self):
        ops = self.rect_ops(3)
        st = stack(ops)
        assert st.diag.shape == (3, ops[0].dim)
        assert st._v_grid.shape == (3, *ops[0]._grid_M)
        X = np.random.default_rng(31).standard_normal((3, ops[0].dim, 4))
        ref = np.stack([op.apply(x) for op, x in zip(ops, X)])
        scale = np.abs(ref).max()
        assert np.abs(st.apply(X) - ref).max() <= 1e-12 * scale
        assert np.abs(st.apply(X[[2, 0]], np.array([2, 0])) - ref[[2, 0]]).max() <= 1e-12 * scale
        # enough columns that every problem is a transform block of its own
        M0, M1 = st._grid_M
        k = TRANSFORM_BLOCK // (M0 * M1) // 2 + 1
        Y = np.random.default_rng(32).standard_normal((3, st.dim, k))
        ref = np.stack([op.apply(y) for op, y in zip(ops, Y)])
        assert np.abs(st.apply(Y) - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_stack_contract(self):
        ops = self.rect_ops(2)
        with pytest.raises(ContractError):
            stack([ops[0], self.rect_ops(1, N=(6, 8))[0]])
        M = ops[0]._grid_M
        wide = BoxDomain((0.0, 0.0), (2.0, 1.5))  # same modes and grid, other sides
        with pytest.raises(ContractError):
            stack([ops[0], assemble(np.ones(M), wide, (6, 9), grid_M=M)])
        # a grid that cannot hold the modes would alias them
        with pytest.raises(ContractError):
            assemble(np.ones((6, 9)), self.RECT, (6, 9), grid_M=(6, 9))

    @pytest.mark.parametrize("n", [1, 4])
    def test_values_independent_of_the_stack(self, n, monkeypatch):
        ops = self.noise_ops(4)
        alone = [eigenvalues(op, n, vectors=True, tol=1e-9, seed=7) for op in ops]
        for members in ([0, 1, 2, 3], [3, 1], [2, 0, 3]):
            got = eigenvalues([ops[i] for i in members], n, tol=1e-9, seed=7)
            for i, r in zip(members, got):
                assert np.abs(r.values - alone[i].values).max() <= 1e-12
                assert r.residuals.shape == (n,) and r.residuals.max() <= 1e-9
        # warm from each problem's own vectors: they fill the start block for
        # n = 1, so nothing is drawn; for n = 4 the two guard columns are the
        # rows a cold start draws from the same seed
        starts, draws = [], []
        real_iterate, real_rng = solvers._iterate, np.random.default_rng

        def recording(apply_rows, X, *args):
            starts.append(X.copy())
            return real_iterate(apply_rows, X, *args)

        monkeypatch.setattr(solvers, "_iterate", recording)
        monkeypatch.setattr(np.random, "default_rng", lambda s: draws.append(s) or real_rng(s))
        v0 = np.stack([r.vectors for r in alone])
        got = eigenvalues(ops, n, tol=1e-9, seed=[7, 8, 9, 10], v0=v0)
        for r, a in zip(got, alone):
            assert np.abs(r.values - a.values).max() <= 1e-12
        assert draws == ([] if n == 1 else [7, 8, 9, 10])
        assert np.array_equal(starts[0][:, :n], np.swapaxes(v0, 1, 2))
        for X, s in zip(starts[0], draws):
            assert np.array_equal(X[n:], real_rng(s).standard_normal((n + 2, ops[0].dim))[n:])

    @pytest.mark.parametrize("N, n, tol", [(None, 4, 1e-9), (6, 34, 1e-9), (6, 35, 1e-9),
                                           (6, 36, 1e-9), (8, 16, 1e-9), (5, 12, 1e-12)])
    def test_basis_stays_orthonormal(self, N, n, tol, monkeypatch):
        # Rayleigh-Ritz takes no Gram matrix of its basis, so the basis must
        # be orthonormal on its kept rows at every iteration: on a stack of
        # four top-4 problems, at dim 36 with n up to the whole spectrum, and
        # where W has little room left beside [X, P] (dim 64 with n = 16;
        # dim 25 with n = 12, iterated until W is mostly round-off)
        worst = []
        real = solvers._rayleigh_ritz

        def checking(S, kept, k):
            G = S[0] @ np.swapaxes(S[0], 1, 2)
            both = kept[:, :, None] & kept[:, None, :]
            worst.append(np.abs(np.where(both, G - np.eye(G.shape[1]), 0.0)).max())
            return real(S, kept, k)

        monkeypatch.setattr(solvers, "_rayleigh_ritz", checking)
        if N is None:
            rs = eigenvalues(self.noise_ops(4), n, tol=tol, seed=7)
        else:
            rs = [eigenvalues(assemble(V, BOX, N), n, tol=tol, seed=N + n)
                  for V in (None, neumann_field(6, 100), neumann_field(6, 101))]
        assert all(r.residuals.max() <= tol for r in rs)
        assert len(worst) > 2 and max(worst) <= 1e-12

    def test_round_off_floor_ends_the_run(self, monkeypatch):
        # at tol 1e-12 the residuals of the rotated A X stall at their
        # round-off floor; the run leaves once they stop falling and the
        # fresh apply accepts (all 200 iterations ran before, 22 reach 1e-11)
        calls = []
        real = solvers._rayleigh_ritz
        monkeypatch.setattr(solvers, "_rayleigh_ritz",
                            lambda *args: calls.append(1) or real(*args))
        op = assemble(None, BOX, 8)
        r = eigenvalues(op, 16, tol=1e-12, seed=24)
        assert r.residuals.max() <= 1e-12 and len(calls) <= 40
        assert np.abs(r.values - np.sort(op.diag[0])[::-1][:16]).max() <= 1e-9

    def test_unreachable_tol_reports_each_problem(self):
        ops = self.noise_ops(2)
        with pytest.raises(ConvergenceError) as err:
            eigenvalues(ops, 3, tol=1e-30)
        assert np.shape(err.value.residuals) == (2, 3)
        assert np.all(err.value.residuals > 1e-30)


class TestPreconditionerShift:
    @staticmethod
    def applies(apply_fn, n, precond, **kw):
        """lobpcg_top's result and the number of operator applies it took."""
        count = [0]

        def counted(block, which):
            count[0] += 1
            return apply_fn(block, which)

        return lobpcg_top(counted, n, precond, **kw), count[0]

    def compare(self, ops, n, seed, monkeypatch):
        """Applies of ``eigenvalues`` and of the same solve preconditioned
        with the shift |V|_inf + 1 alone, after checking both agree."""
        new = []

        def counting(apply_fn, n, precond, **kw):
            out, count = self.applies(apply_fn, n, precond, **kw)
            new.append(count)
            return out

        monkeypatch.setattr(hamiltonian, "lobpcg_top", counting)
        rs = eigenvalues(ops, n, tol=1e-8, seed=seed)
        st = stack(ops)
        v_max = np.abs(st._v_grid).max(axis=(1, 2))[:, None]
        flat = 1.0 / (st.diag.max(axis=1, keepdims=True) - st.diag + v_max + 1.0)
        (vals, _, _), old = self.applies(st.apply, n, flat, tol=1e-8,
                                         seed=np.broadcast_to(seed, len(ops)))
        assert np.abs(np.array([r.values for r in rs]) - vals).max() < 1e-9
        return new[0], old

    def test_fewer_applies_on_psi_sq_ascent_potential(self, monkeypatch):
        # |V|_inf + 1 is 10 times the Laplacian's top gap 3 pi^2 / 16^2
        box = BoxDomain.square(16.0)
        M = _ascent_grid((40, 40))
        op = assemble(_normalized_grid(_start_bump(box, M), box.area), box, 40, grid_M=M)
        new, old = self.compare([op], 1, 0, monkeypatch)
        assert new < old

    def test_fewer_applies_on_restricted_noise_top4(self, monkeypatch):
        # |V|_inf + 1 is 8 to 11 times the top gap 3 pi^2 / 4^2
        box = BoxDomain.square(4.0)
        ops = [assemble(restrict(sample(box, 32, 40 + i), 0.25, box, 64, INDICATOR), box, 32)
               for i in range(3)]
        new, old = self.compare(ops, 4, [0, 1, 2], monkeypatch)
        assert new < old

    def test_no_more_applies_on_small_noise_unit_box(self, monkeypatch):
        # the top gap 3 pi^2 is far above |V|_inf + 1: the shift is unchanged
        ops = [assemble(mollify(sample(BOX, 16, s), 0.1, SMOOTH) * 0.1, BOX, 16)
               for s in range(3)]
        new, old = self.compare(ops, 1, [0, 1, 2], monkeypatch)
        assert new <= old


class TestMinMax:
    def test_top_eigenspace_is_sharp(self):
        V = neumann_field(8, seed=7)
        op = assemble(V, BOX, 10)
        r = eigenvalues(op, 4, vectors=True)
        for n in (1, 2, 4):
            assert min_max(op, n, r.vectors[:, :n]) == pytest.approx(
                r.values[n - 1], abs=1e-10)

    def test_random_subspaces_lower_bound(self):
        V = neumann_field(8, seed=8)
        op = assemble(V, BOX, 10)
        lam3 = eigenvalues(op, 3).values[2]
        rng = np.random.default_rng(9)
        for _ in range(100):
            W = rng.standard_normal((op.dim, 3))
            assert min_max(op, 3, W) <= lam3 + 1e-10

    def test_single_vector_is_rayleigh_quotient(self):
        V = neumann_field(6, seed=10)
        op = assemble(V, BOX, 8)
        rng = np.random.default_rng(11)
        x = rng.standard_normal((op.dim, 1))
        rq = float(x[:, 0] @ op.apply(x[:, 0]) / (x[:, 0] @ x[:, 0]))
        assert min_max(op, 1, x) == pytest.approx(rq, rel=1e-12)

    def test_rank_deficient_rejected(self):
        op = assemble(None, BOX, 6)
        W = np.zeros((op.dim, 2))
        W[:, 0] = 1.0
        W[:, 1] = 1.0
        with pytest.raises(ContractError):
            min_max(op, 2, W)


class TestIMSPartition:
    def test_squares_sum_to_one(self):
        rng = np.random.default_rng(12)
        part = ims_partition(2.0, 0.5)
        x = rng.uniform(-5, 9, size=(1000, 2))
        vals = part.sum_sq_1d(x[:, 0]) * 0 + 0  # per-axis identity below
        s1 = part.sum_sq_1d(x[:, 0])
        s2 = part.sum_sq_1d(x[:, 1])
        assert np.abs(s1 - 1).max() < 1e-12
        assert np.abs(s2 - 1).max() < 1e-12

    def test_ramp_constant_uniform_over_scales(self):
        ks = []
        for r in (1.0, 2.0, 4.0):
            for a in (0.25, 0.5):
                ks.append(ims_partition(r, a).K)
        ks = np.array(ks)
        assert ks.max() - ks.min() < 1e-3 * ks.max()

    def test_contract(self):
        with pytest.raises(ContractError):
            ims_partition(1.0, 1.5)

    def test_localization_identity_residual(self):
        # 4th-order finite-difference oracle for the product Laplacians
        rng = np.random.default_rng(13)
        box = BoxDomain.square(4.0)
        c = np.pad(rng.standard_normal((8, 8)), ((1, 0), (1, 0)))
        psi = SpectralField(box, DIRICHLET, c)
        part = ims_partition(2.0, 0.5)
        res = ims_fd_residual(psi, part, k=(1, 0))
        assert res < 1e-6

    def test_phi_separable_assembly(self):
        part = ims_partition(2.0, 0.5)
        rng = np.random.default_rng(14)
        pts = rng.uniform(-1, 5, size=(200, 2))
        direct = np.zeros(len(pts))
        for k1 in range(-2, 4):
            for k2 in range(-2, 4):
                d1 = part.eta_1d_deriv(pts[:, 0] - 2.0 * k1)
                e1 = part.eta_1d(pts[:, 0] - 2.0 * k1)
                d2 = part.eta_1d_deriv(pts[:, 1] - 2.0 * k2)
                e2 = part.eta_1d(pts[:, 1] - 2.0 * k2)
                direct += (d1 * e2) ** 2 + (e1 * d2) ** 2
        assert np.abs(part.phi(pts) - direct).max() < 1e-10


class TestBoxBounds:
    def test_zero_potential_inequalities(self):
        # explicit Laplacian values: monotonicity and disjoint lower bound
        lamL = eigenvalues(assemble(None, BoxDomain.square(4.0), 16), 4).values
        lamr = eigenvalues(assemble(None, BoxDomain.square(2.0), 16), 1).values
        assert lamr[0] <= lamL[0] + 1e-12
        assert lamL[3] >= lamr[0] - 1e-12  # 4 disjoint tiles, all equal

    def test_smooth_deterministic_inequalities(self):
        # IMS chain for a fixed smooth potential
        L, r, a = 2.0, 1.0, 0.5
        box = BoxDomain.square(L)
        V = neumann_field(4, seed=15, box=box)
        N = 20
        op = assemble(V, box, N)
        lam = eigenvalues(op, 1, tol=1e-9).values[0]
        part = ims_partition(r, a)
        M = op._grid_M
        phi = part.phi_grid(box, M)
        vg = potential_on_grid(V, box, M)
        lam_pen = eigenvalues(assemble(vg - phi, box, N, grid_M=M), 1,
                              tol=1e-9).values[0]
        assert lam <= lam_pen + phi.max() + 1e-9

    def test_coupled_noise_draws(self):
        rep = box_bounds_study(ExperimentConfig(L=2.0, r=1.0, a_overlap=0.5, eps=0.25,
                                                replicas=5, seed=0, nu=8, slack=1e-6)).summary
        assert rep["draws"] == 5
        for key in ("upper_a", "upper_b", "lower", "mono"):
            assert rep[key] == 0


class TestNoiseOperator:
    def test_renorm_modes_differ_by_field_vs_constant(self):
        draw = sample(BOX, 16, 17)
        en = enhance(draw, 0.3, SMOOTH)
        # the field renormalization against subtracting only the lattice
        # constant c_{eps,L}
        of = operator_from_noise(en, 10)
        oc = assemble(en.xi, BOX, 10, shift=en.c_subtracted)
        vf = eigenvalues(of, 1).values[0]
        vc = eigenvalues(oc, 1).values[0]
        assert vf != pytest.approx(vc, abs=1e-6)  # the x-dependent layer matters

    def test_translation_invariance_in_law(self):
        # eigenvalue samples from two disjoint offsets of the same parent
        # pass a two-sample KS test
        parent = BoxDomain.square(3.0)
        L, eps, N = 1.0, 0.25, 8
        a_vals, b_vals = [], []
        for s in range(120):
            draw = sample(parent, 24, 9000 + s)
            for (vals, y) in ((a_vals, (0.0, 0.0)), (b_vals, (2.0, 2.0))):
                sub = BoxDomain(y, (L, L))
                pot = restrict(draw, eps, sub, 2 * N, INDICATOR)
                op = assemble(pot, sub, N)
                vals.append(eigenvalues(op, 1, tol=1e-8).values[0])
        p = stats.ks_2samp(a_vals, b_vals).pvalue
        assert p >= 0.01


def test_spectra_csv_format(tmp_path):
    rec = StudyRecord()
    rec.add(1.0, 0.25, 1.0, 3, 1, -2 * np.pi**2, 1.25)
    path = tmp_path / "spec.csv"
    rec.to_csv(path)
    text = path.read_text().splitlines()
    assert text[0] == "L,eps,beta,seed,n,lambda,wall_ms"
    assert "-19.739208802178716" in text[1]
