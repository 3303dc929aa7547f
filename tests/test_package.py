"""The public names of the package, its result records, what importing the
command line loads, and the split between the library and the test
oracles."""

import ast
import importlib
import os
import pickle
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import critlab
from critlab import (
    AffineExpr,
    CriticalGroup,
    ElemDivisorProfile,
    FiltrationReport,
    LaplacianIdentity,
    QuadraticNumber,
    SnfResult,
    SolutionFamily,
    SrgParams,
    SrgSpectrum,
)

ROOT = Path(__file__).resolve().parent.parent
ORACLES = Path(__file__).resolve().parent / "oracles.py"
SANDPILE = ROOT / "src" / "critlab" / "sandpile.py"
MOORE = ROOT / "src" / "critlab" / "moore.py"
ELIMINATION = ("critlab.exact", "critlab.filtration")

# one instance of each result record, with its repr as recorded from the
# frozen-dataclass implementation
RECORDS = [
    (SnfResult((1, 3, 0)), "SnfResult(invariant_factors=(1, 3, 0))"),
    (
        ElemDivisorProfile(5, (6, 3), 1),
        "ElemDivisorProfile(p=5, multiplicities=(6, 3), kernel_rank=1)",
    ),
    (
        FiltrationReport(5, (10, 4, 1), (6, 9, 9), 1, True),
        "FiltrationReport(p=5, dims_M=(10, 4, 1), dims_N=(6, 9, 9), kernel_dim=1, passed=True)",
    ),
    (
        CriticalGroup((2, 10, 10, 10), 2000, 1),
        "CriticalGroup(invariant_factors=(2, 10, 10, 10), order=2000, free_rank=1)",
    ),
    (SrgParams(10, 3, 0, 1), "SrgParams(v=10, k=3, lam=0, mu=1)"),
    (QuadraticNumber(-1, 1, 5), "QuadraticNumber(a=-1, b=1, disc=5)"),
    (
        SrgSpectrum(2, QuadraticNumber(-1, 1, 5), QuadraticNumber(-1, -1, 5), 2, 2),
        "SrgSpectrum(k=2, theta=QuadraticNumber(a=-1, b=1, disc=5), "
        "tau=QuadraticNumber(a=-1, b=-1, disc=5), m_theta=2, m_tau=2)",
    ),
    (LaplacianIdentity(7, 10, 1), "LaplacianIdentity(shift=7, w=10, j_coeff=1)"),
    (AffineExpr(3, -1), "AffineExpr(const=3, coeff=-1, var='t')"),
    (
        SolutionFamily(1, 5, (0, 2), (AffineExpr(2, 1), AffineExpr(4, -2)), (AffineExpr(8, -2, "e0"),)),
        "SolutionFamily(case_label=1, prime=5, t_range=(0, 2), "
        "exprs=(AffineExpr(const=2, coeff=1, var='t'), AffineExpr(const=4, coeff=-2, var='t')), "
        "rank_exprs=(AffineExpr(const=8, coeff=-2, var='e0'),))",
    ),
]
RECORD_IDS = [type(record).__name__ for record, _ in RECORDS]


# the public surface, so that it grows back only on purpose
PUBLIC_NAMES = """
AffineExpr ContradictionError CriticalGroup ElemDivisorProfile
ExistenceUnknownError FiltrationReport Graph InfeasibleParametersError IntMatrix
LaplacianIdentity QuadraticNumber SizeGuardError SnfResult SolutionFamily
SrgParams SrgSpectrum UnfactoredError analyze bicycle_dimension check_srg
complete_graph critical_group cycle_graph derive_laplacian_identity
elem_divisor_profile enumerate_families factorize
family_membership hoffman_singleton_graph is_prime laplacian_matrix moore_graph
parse_edge_list parse_matrix path_graph petersen_graph
predicted_order_from_spectrum prime_power_divisors rank_mod_p recurrent_count
sandpile_group_structure snf srg_spectrum valuation verify_filtration_dims
""".split()

# names that no command, route or declared oracle called, or records that
# repeated another's field, by defining module;
# the writers and the adjacency matrix live on in tests/oracles.py
REMOVED = [
    ("critical", "spanning_tree_count"),
    ("exact", "determinant"),
    ("graphs", "adjacency_matrix"),
    ("graphs", "format_edge_list"),
    ("intmatrix", "format_matrix"),
    ("moore", "DivisorBound"),
    ("moore", "divisor_bound"),
    ("moore", "forced_multiplicities"),
    ("sandpile", "ChipConfig"),
    ("sandpile", "is_recurrent"),
    ("sandpile", "stabilize"),
]


def _imports(path):
    """(module, name) of every import in a source file, with relative modules
    resolved against critlab and name None for a plain ``import``."""
    imported = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ("critlab." if node.level else "") + (node.module or "")
            imported += [(module.rstrip("."), alias.name) for alias in node.names]
    return imported


class TestLibraryOracleSplit:
    def test_public_names_are_pinned(self):
        assert len(PUBLIC_NAMES) == 45
        assert sorted(critlab.__all__) == PUBLIC_NAMES

    @pytest.mark.parametrize("module,name", REMOVED, ids=[name for _, name in REMOVED])
    def test_removed_names_stay_gone(self, module, name):
        assert not hasattr(critlab, name)
        assert not hasattr(importlib.import_module(f"critlab.{module}"), name)

    def test_every_exported_name_resolves(self):
        missing = [name for name in critlab.__all__ if not hasattr(critlab, name)]
        assert missing == []

    def test_lattices_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("critlab.lattices")

    def test_oracles_import_no_elimination_code(self):
        # the claim of the oracles' docstring: nothing from critlab.exact or
        # critlab.filtration, directly or through the package namespace
        imported = _imports(ORACLES)
        assert ("critlab", "IntMatrix") in imported
        for module, name in imported:
            assert module not in ELIMINATION
            if module == "critlab":
                obj = getattr(critlab, name)
                origin = obj.__name__ if isinstance(obj, ModuleType) else obj.__module__
                assert origin not in ELIMINATION, name

    def test_moore_does_not_import_critical(self):
        # the spectral order lives in moore, so critical may import moore
        # later without a cycle
        imported = _imports(MOORE)
        assert ("critlab.graphs", "SrgSpectrum") in imported
        assert [(m, n) for m, n in imported if "critical" in (m.split(".")[-1], n)] == []
        assert critlab.predicted_order_from_spectrum.__module__ == "critlab.moore"

    def test_sandpile_oracle_imports_only_arith_and_graphs(self):
        # the chip-firing oracle shares no Laplacian algebra with the routes
        # it checks: of critlab it imports only the arithmetic and the graphs
        modules = {
            f"critlab.{name}" if module == "critlab" else module
            for module, name in _imports(SANDPILE)
        }
        assert {m for m in modules if m.split(".")[0] == "critlab"} == {
            "critlab.arith",
            "critlab.graphs",
        }


class TestRecords:
    """The result records are named tuples: printed as before, read-only,
    picklable, and equal to the plain tuple of their fields."""

    @pytest.mark.parametrize("record,text", RECORDS, ids=RECORD_IDS)
    def test_repr_is_pinned(self, record, text):
        assert repr(record) == text

    @pytest.mark.parametrize("record,text", RECORDS, ids=RECORD_IDS)
    def test_attributes_are_read_only(self, record, text):
        name = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = None

    @pytest.mark.parametrize("record,text", RECORDS, ids=RECORD_IDS)
    def test_pickle_round_trip(self, record, text):
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is type(record)
        assert repr(back) == text

    @pytest.mark.parametrize("record,text", RECORDS, ids=RECORD_IDS)
    def test_equal_to_the_tuple_of_its_fields(self, record, text):
        assert record == tuple(getattr(record, name) for name in record._fields)


class TestStartUp:
    def test_cli_does_not_import_dataclasses(self):
        # dataclasses pulls in inspect, ast and dis, a large part of the
        # interpreter's start-up; -S keeps site-packages from importing it
        code = "import sys, critlab.cli; print('dataclasses' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-S", "-c", code],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")
