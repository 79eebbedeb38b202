"""The operand contract at every SpMV/SpMM entry, facade matrix
validation, and the ``resilience=`` entry point."""

import warnings

import numpy as np
import pytest

import repro
from repro.analyze.sharding import certify_shard_plan
from repro.cluster.engine import ClusterEngine
from repro.core.crsd import CRSDMatrix
from repro.core.spmv import spmv_interpreted
from repro.core.symcrsd import SymCRSDMatrix
from repro.formats import (
    BCSRMatrix,
    CSRMatrix,
    DeltaCSRMatrix,
    DIAMatrix,
    ELLMatrix,
    FormatError,
    HYBMatrix,
)
from repro.gpu_kernels.crsd_runner import CrsdSpMM, CrsdSpMV
from repro.gpu_kernels.sym_runner import SymCrsdSpMV
from repro.matrices.generators import symmetric_banded
from repro.resilience.engine import resilient_spmv
from repro.serve.engine import ServeEngine
from repro.shard.executor import ShardedSpMV
from repro.shard.plan import ShardPlanner
from repro.validation import (
    InputValidationError,
    check_operand,
    validate_matrix,
)
from tests.conftest import random_diagonal_matrix


@pytest.fixture()
def problem():
    rng = np.random.default_rng(0)
    coo = random_diagonal_matrix(rng, n=128)
    return coo, rng.standard_normal(coo.ncols)


def _runner_entry(make):
    """An entry computing through ``make(sym, coo)``'s ``run``."""
    def call(setup, x):
        return make(*setup).run(x).y
    return call


def _engine_entry(make):
    """An entry serving one request through ``make()``'s ``submit``."""
    def call(setup, x):
        engine = make()
        rid = engine.submit(setup[1], x)
        (result,) = engine.run()
        assert result.request_id == rid and result.served
        return result.y
    return call


def _sharded(sym, coo):
    crsd = CRSDMatrix.from_coo(coo, mrows=32)
    cert = certify_shard_plan(crsd, ShardPlanner(crsd, coo=coo).plan(2))
    assert cert.ok, cert.reasons
    return ShardedSpMV(crsd, cert)


#: every public SpMV/SpMM entry -> (call, nvec, rejects NaN/Inf)
ENTRIES = {
    "dia": (_runner_entry(lambda sym, coo: repro.build(coo, "dia")),
            None, False),
    "crsd": (_runner_entry(lambda sym, coo: CrsdSpMV(
        CRSDMatrix.from_coo(coo, mrows=32))), None, False),
    "crsd_spmm": (_runner_entry(lambda sym, coo: CrsdSpMM(
        CRSDMatrix.from_coo(coo, mrows=32), nvec=2)), 2, False),
    "sharded": (_runner_entry(_sharded), None, False),
    "sym_crsd": (_runner_entry(lambda sym, coo: SymCrsdSpMV(sym)),
                 None, False),
    "serve": (_engine_entry(lambda: ServeEngine(mrows=32)), None, True),
    "cluster": (_engine_entry(lambda: ClusterEngine(2, mrows=32)),
                None, True),
    "spmv": (lambda setup, x: repro.spmv(setup[1], x).y, None, True),
    "spmv_resilient": (
        lambda setup, x: repro.spmv(setup[1], x, resilience=True).y,
        None, True),
    "resilient_spmv": (lambda setup, x: resilient_spmv(setup[1], x).y,
                       None, True),
}
RUNNERS = [e for e, (_, _, finite) in ENTRIES.items() if not finite]


def _poisoned(x, poison):
    bad = np.array(x, dtype=np.float64)
    bad.reshape(-1)[7] = poison
    return bad


#: bad input -> (make it from a good operand, error message fragment)
BAD_INPUTS = {
    "complex": (lambda x: x + 1j, "dtype"),
    "str": (lambda x: np.full(x.shape, "a"), "dtype"),
    "object": (lambda x: x.astype(object), "dtype"),
    "ndim": (lambda x: x[:, 0].copy() if x.ndim == 2 else x[:, None],
             "shape"),
    "length": (lambda x: x[:-3].copy(), "shape"),
    "nvec": (lambda x: np.ones((x.shape[0], 3)), "shape"),
    "zero_columns": (lambda x: np.ones((x.shape[0], 0)), "shape"),
    "stride": (lambda x: np.repeat(x, 2, axis=-1)[..., ::2], "contiguous"),
    "reversed": (lambda x: x[::-1, ::-1] if x.ndim == 2 else x[::-1],
                 "contiguous"),
    "nan": (lambda x: _poisoned(x, np.nan), "non-finite"),
    "inf": (lambda x: _poisoned(x, np.inf), "non-finite"),
    "-inf": (lambda x: _poisoned(x, -np.inf), "non-finite"),
}
NON_FINITE = ("nan", "inf", "-inf")
#: (entry, bad input) pairs that must raise: the runners accept NaN/Inf
#: (``test_runners_accept_non_finite``), and only SpMM takes an ``nvec``
REJECTED = [(entry, bad) for entry, (_, nvec, finite) in ENTRIES.items()
            for bad in BAD_INPUTS
            if (finite or bad not in NON_FINITE)
            and (nvec is not None or bad != "nvec")]


@pytest.fixture(scope="module")
def setup():
    """One symmetric matrix, as the half carrier and as COO."""
    coo = symmetric_banded(128, 3, np.random.default_rng(0))
    return SymCRSDMatrix.from_coo(coo, mrows=32), coo


def _operand(coo, nvec):
    rng = np.random.default_rng(1)
    shape = coo.ncols if nvec is None else (coo.ncols, nvec)
    return rng.standard_normal(shape)


class TestOperandContract:
    """One contract at every entry: ``check_operand``.  Only the
    serving layers and the facade reject NaN/Inf; the runners compute
    with it."""

    @pytest.mark.parametrize("entry, bad", REJECTED)
    def test_rejects(self, setup, entry, bad):
        call, nvec, _ = ENTRIES[entry]
        make, fragment = BAD_INPUTS[bad]
        x = make(_operand(setup[1], nvec))
        with pytest.raises(InputValidationError, match=fragment):
            call(setup, x)

    @pytest.mark.parametrize("entry", RUNNERS)
    def test_runners_accept_non_finite(self, setup, entry):
        """Defined IEEE results, and no numpy warning out of a kernel:
        ``inf - inf`` is invalid and ``1e308 * a`` overflows."""
        call, nvec, _ = ENTRIES[entry]
        x = _operand(setup[1], nvec)
        for row, value in zip((7, 8, 40, 90),
                              (np.inf, -np.inf, np.nan, 1e308)):
            x[row] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = call(setup, x)
        assert np.isnan(y).any() and np.isinf(y).any()

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_accepts_lists_and_int_vectors(self, setup, entry):
        call, nvec, _ = ENTRIES[entry]
        coo = setup[1]
        ones = np.ones(coo.ncols if nvec is None else (coo.ncols, nvec),
                       dtype=np.int64)
        expected = coo.matvec(np.ones(coo.ncols))
        if nvec is not None:
            expected = np.repeat(expected[:, None], nvec, axis=1)
        for x in (ones, ones.tolist()):
            assert np.allclose(call(setup, x), expected)

    def test_returns_the_array_to_compute_with(self):
        X = np.random.default_rng(1).standard_normal((6, 3))
        assert check_operand(X, 6, 3) is X
        # F-contiguous (column-major) batches are a legal device layout
        F = np.asfortranarray(X)
        assert check_operand(F, 6, 3, dtype=np.float64) is F
        assert check_operand(X, 6, 3, dtype=np.float32).dtype == np.float32


class TestVectorValidation:
    """``check_operand`` on a single right-hand side ``x``."""

    def test_error_is_a_value_error(self):
        assert issubclass(InputValidationError, ValueError)
        with pytest.raises(ValueError):
            check_operand(np.zeros(3), 5)


#: every CPU reference product, built from one symmetric COO matrix
CPU_REFERENCES = {
    "coo": lambda coo: coo.matvec,
    "csr": lambda coo: CSRMatrix.from_coo(coo).matvec,
    "ell": lambda coo: ELLMatrix.from_coo(coo).matvec,
    "dia": lambda coo: DIAMatrix.from_coo(coo).matvec,
    "hyb": lambda coo: HYBMatrix.from_coo(coo).matvec,
    "dcsr": lambda coo: DeltaCSRMatrix.from_coo(coo).matvec,
    "bcsr": lambda coo: BCSRMatrix.from_coo(coo).matvec,
    "crsd": lambda coo: CRSDMatrix.from_coo(coo, mrows=32).matvec,
    "symcrsd": lambda coo: SymCRSDMatrix.from_coo(coo, mrows=32).matvec,
    "spmv_interpreted": lambda coo: (
        lambda x: spmv_interpreted(CRSDMatrix.from_coo(coo, mrows=32), x)),
}


class TestCpuReferenceContract:
    """The CPU references take the operand dtype rule of
    ``check_operand``: a complex or string ``x`` raises instead of
    being cast (dropping the imaginary part, parsing the strings)."""

    @pytest.mark.parametrize("fmt", sorted(CPU_REFERENCES))
    def test_rejects_non_real_dtypes(self, fmt):
        coo = symmetric_banded(64, 2, np.random.default_rng(3))
        matvec = CPU_REFERENCES[fmt](coo)
        x = np.arange(64, dtype=np.float64)
        ref = coo.matvec(x)
        assert np.allclose(matvec(x), ref)
        assert np.allclose(matvec(np.arange(64)), ref)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in (x + 1j, x.astype(str)):
                with pytest.raises(FormatError, match="unsupported dtype"):
                    matvec(bad)
        # a strided column slice is still copied, not refused
        block = np.stack([x, x], axis=1)
        assert np.allclose(matvec(block[:, 1]), ref)


class TestBatchValidation:
    """``check_operand`` on the multi-vector ``X`` of the SpMM path."""

    def test_rejects_wrong_nvec(self, problem):
        coo, _ = problem
        with pytest.raises(InputValidationError, match="shape"):
            check_operand(np.zeros((coo.ncols, 3)), coo.ncols, nvec=2)

    def test_spmm_runner_routes_through_it(self, problem, monkeypatch):
        import repro.gpu_kernels.crsd_runner as crsd_runner

        coo, _ = problem
        runner = CrsdSpMM(CRSDMatrix.from_coo(coo, mrows=32), nvec=2)
        calls = []

        def spy(*args, **kwargs):
            calls.append((args[1:], kwargs))
            return check_operand(*args, **kwargs)

        monkeypatch.setattr(crsd_runner, "check_operand", spy)
        with pytest.raises(InputValidationError, match="shape"):
            runner.run(np.zeros((coo.ncols, 3)))
        runner.run(np.ones((coo.ncols, 2)))
        assert [c[0] for c in calls] == [(coo.ncols, 2)] * 2

    def test_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            check_operand(np.zeros((3, 1)), 5, 1)


class TestMatrixValidation:
    def test_rejects_nan_in_sparse_values(self, problem):
        from repro.formats.coo import COOMatrix

        bad = COOMatrix(np.array([0, 1]), np.array([0, 1]),
                        np.array([1.0, np.nan]), (2, 2))
        with pytest.raises(InputValidationError, match="non-finite"):
            repro.build(bad)
        with pytest.raises(InputValidationError, match="non-finite"):
            repro.spmv(bad, np.ones(2))

    def test_rejects_inf_in_dense(self):
        dense = np.eye(4)
        dense[2, 2] = np.inf
        with pytest.raises(InputValidationError, match="non-finite"):
            repro.build(dense)

    def test_rejects_nan_in_crsd(self, problem):
        from repro.core.crsd import CRSDMatrix
        from repro.formats.coo import COOMatrix

        coo, _ = problem
        crsd = CRSDMatrix.from_coo(coo, mrows=32)
        # poison one stored slab value in place
        for arr in crsd.array_inventory().values():
            if arr.dtype.kind == "f" and arr.size:
                arr.reshape(-1)[0] = np.nan
                break
        with pytest.raises(InputValidationError, match="non-finite"):
            repro.build(crsd, "crsd")

    def test_healthy_matrix_passes(self, problem):
        coo, _ = problem
        validate_matrix(coo)  # no raise


class TestResilienceKwarg:
    def test_default_path_has_no_resilience_report(self, problem):
        coo, x = problem
        run = repro.spmv(coo, x)
        assert run.resilience is None

    def test_policy_routes_through_ladder(self, problem):
        coo, x = problem
        run = repro.spmv(coo, x, resilience=repro.Policy())
        assert run.resilience is not None
        assert run.resilience.served_rung == "crsd"
        assert run.metrics is not None

    def test_true_means_default_policy(self, problem):
        coo, x = problem
        direct = repro.spmv(coo, x)
        resilient = repro.spmv(coo, x, resilience=True)
        assert np.array_equal(direct.y, resilient.y)

    def test_resilient_path_validates_too(self, problem):
        coo, x = problem
        with pytest.raises(InputValidationError):
            repro.spmv(coo, x[:-1], resilience=True)

    def test_auto_format_resolves_before_ladder(self, problem):
        coo, x = problem
        run = repro.spmv(coo, x, "auto", resilience=repro.Policy())
        assert run.resilience.served_rung in (
            "crsd", "dia", "ell", "csr", "hyb")

    def test_exhausted_is_importable_from_root(self):
        assert issubclass(repro.ResilienceExhausted, RuntimeError)
        assert repro.FaultInjector is not None
