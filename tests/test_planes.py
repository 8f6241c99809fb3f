import numpy as np
import pytest

from cfmimo import planes


def complex_stack(shape, rng):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def hpd_stack(n: int, count: int, rng, max_cond: float = 1e6,
              scale: float = 1.0) -> np.ndarray:
    """(count, n, n) Hermitian positive definite matrices, exactly Hermitian,
    with condition numbers drawn log-uniformly from [1, max_cond]."""
    q, _ = np.linalg.qr(complex_stack((count, n, n), rng))
    cond = 10.0 ** rng.uniform(0.0, np.log10(max_cond), size=(count, 1))
    eig = scale * cond ** -np.linspace(0.0, 1.0, n)           # (count, n)
    h = (q * eig[:, None, :]) @ np.conj(q).swapaxes(-1, -2)
    return (h + np.conj(h).swapaxes(-1, -2)) / 2.0


def pivoted_inverse(stack: np.ndarray) -> np.ndarray:
    """Gauss-Jordan inverses with partial pivoting, one matrix at a time, in
    the dtype of the stack: the reference for planes.inverse."""
    out = np.empty_like(stack)
    n = stack.shape[-1]
    for index, matrix in enumerate(stack):
        aug = np.concatenate([matrix, np.eye(n, dtype=stack.dtype)], axis=1)
        for k in range(n):
            p = k + int(np.argmax(np.abs(aug[k:, k])))
            aug[[k, p]] = aug[[p, k]]
            aug[k] /= aug[k, k]
            for i in range(n):
                if i != k:
                    aug[i] -= aug[i, k] * aug[k]
        out[index] = aug[:, n:]
    return out


def relative_error(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Per-matrix Frobenius error of got relative to want."""
    return (np.linalg.norm((got - want).astype(complex), axis=(-2, -1))
            / np.linalg.norm(want.astype(complex), axis=(-2, -1)))


class TestLayout:
    def test_round_trip_without_copy(self, rng):
        entry = planes.planes(complex_stack((5, 3, 2, 2), rng))
        assert entry.shape == (2, 2, 5, 3) and entry.flags.c_contiguous
        view = planes.stacked(entry)
        assert view.shape == (5, 3, 2, 2)
        assert np.shares_memory(planes.planes(view), entry)

    def test_planes_hold_the_entries(self, rng):
        stack = complex_stack((4, 3, 3), rng)
        entry = planes.planes(stack)
        for i, j in np.ndindex(3, 3):
            assert np.array_equal(entry[i, j], stack[:, i, j])


class TestProduct:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_matmul(self, n, rng):
        a, b = complex_stack((6, 5, n, n), rng), complex_stack((6, 5, n, n), rng)
        got = planes.stacked(planes.product(planes.planes(a), planes.planes(b)))
        assert np.allclose(got, a @ b, rtol=1e-14, atol=1e-14)

    def test_trailing_axes_broadcast(self, rng):
        a, b = complex_stack((7, 1, 2, 2), rng), complex_stack((1, 3, 2, 2), rng)
        got = planes.stacked(planes.product(planes.planes(a), planes.planes(b)))
        assert got.shape == (7, 3, 2, 2)
        assert np.allclose(got, a @ b, rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_column(self, n, rng):
        # Matrices times a stack of vectors, the planes b[:, None] of one
        # column.
        a, b = complex_stack((4, 5, n, n), rng), complex_stack((4, 5, n), rng)
        got = planes.product(planes.planes(a), np.moveaxis(b, -1, 0)[:, None])
        assert got.shape == (n, 1, 4, 5)
        assert np.allclose(np.moveaxis(got[:, 0], 0, -1),
                           np.einsum("...ij,...j->...i", a, b),
                           rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_trace_product(self, n, rng):
        a, b = complex_stack((9, n, n), rng), complex_stack((9, n, n), rng)
        got = planes.trace_product(planes.planes(a), planes.planes(b))
        assert np.allclose(got, np.trace(a @ b, axis1=-2, axis2=-1),
                           rtol=1e-14, atol=1e-14)


class TestInverse:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("scale", [1.0, 1e-9])
    def test_matches_extended_precision_reference(self, n, scale, rng):
        # Psi spans about 1e-13 (noise) to 1e-6 (a near AP) in watts; the
        # error bound is the forward error of a stable inversion, c n cond eps.
        h = hpd_stack(n, 60, rng, scale=scale)
        want = pivoted_inverse(h.astype(np.clongdouble))
        got = planes.stacked(planes.inverse(planes.planes(h)))
        cond = np.linalg.cond(h)
        assert cond.max() > 1e5 or n == 1
        err = relative_error(got, want)
        assert np.all(err <= 4.0 * n * cond * np.finfo(float).eps)

    def test_typically_more_accurate_than_lapack(self):
        # N = 4, condition numbers up to 1e6: the median plane-inverse error
        # is below np.linalg.inv's against the same reference. (The worst
        # errors of both sit near cond * eps; neither is always the smaller.)
        h = hpd_stack(4, 400, np.random.default_rng(5))
        want = pivoted_inverse(h.astype(np.clongdouble))
        got = planes.stacked(planes.inverse(planes.planes(h)))
        assert np.median(relative_error(got, want)) <= np.median(
            relative_error(np.linalg.inv(h), want))

    def test_leaves_its_input_alone(self, rng):
        entry = planes.planes(hpd_stack(3, 5, rng))
        before = entry.copy()
        planes.inverse(entry)
        assert np.array_equal(entry, before)
