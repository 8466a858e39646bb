"""Generic-mode kernels: Cramer vectors over F_q[a,b,c], cross-checked
against finite kernels, and a runtime path that never imports sympy."""
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import geproci
from geproci import core, fatpoints
from geproci.cli import fixture_text
from geproci.fields import MultiPoly, extend_field, parse_field_spec
from geproci.multipoly import KernelBasis, ScalarRing, kernel_of_conditions
from geproci.projgeom import matrix_rank
from geproci.spreads import complement_points, read_spread


def _mps_complement():
    return complement_points(read_spread(fixture_text("mps7-q3.spread")))


def _concurrent_nine():
    return fatpoints.example_concurrent_nine(parse_field_spec("p=2"))


def _specialization(field):
    """A fixed point (a0, b0, c0) of an extension of size >= 2^20."""
    m = 1
    while field.size ** m < 2 ** 20:
        m += 1
    E = extend_field(field, m)
    rng = random.Random(20240)
    return E, [E.from_index(rng.randrange(field.size, E.size)) for _ in range(3)]


INPUTS = {"mps-q3": _mps_complement, "concurrent-nine": _concurrent_nine}


@pytest.mark.parametrize("name,degree", [("mps-q3", 3), ("mps-q3", 4), ("concurrent-nine", 3)])
def test_generic_kernel_matches_finite_kernel(name, degree):
    Z = INPUTS[name]()
    generic = kernel_of_conditions(
        core.project(Z, core.GeneralPoint.generic(Z.field)).condition_rows(degree))
    assert generic.dimension >= 1
    for f in generic.forms:
        for c in f.coeffs.values():
            assert isinstance(c, MultiPoly)

    E, values = _specialization(Z.field)
    ring = ScalarRing(E)
    P = core.GeneralPoint("random", ring, values + [E.one()])
    finite = kernel_of_conditions(core.project(Z, P).condition_rows(degree))
    assert finite.dimension == generic.dimension

    specialized = [f.map_coefficients(lambda c: c.eval(values), ring) for f in generic.forms]
    assert KernelBasis(finite.matrix, specialized, finite.rank).recheck()
    # independent there too, so the specialized basis spans the finite kernel
    reps = [[c.rep for c in f.coeff_vector(finite.matrix.monos)] for f in specialized]
    assert matrix_rank(E, reps) == generic.dimension


def test_generic_kernel_leaves_the_condition_rows_intact():
    Z = _concurrent_nine()
    mat = core.project(Z, core.GeneralPoint.generic(Z.field)).condition_rows(3)
    before = [list(row) for row in mat.rows]
    assert kernel_of_conditions(mat).recheck()
    assert mat.rows == before


_NO_SYMPY = """
import sys
sys.modules["sympy"] = None  # any import of sympy now raises ImportError
from geproci import core, fatpoints
from geproci.cli import fixture_text
from geproci.fields import parse_field_spec
from geproci.multipoly import CoprimalityWitness, HomogeneousForm, coprime_certificate
from geproci.projgeom import PointSet, enumerate_projective_space
from geproci.spreads import complement_points, read_spread

Z = complement_points(read_spread(fixture_text("mps7-q3.spread")))
assert core.geproci_check(Z, 3, 4, mode="generic").geproci
F2 = parse_field_spec("p=2")
S9 = fatpoints.example_concurrent_nine(F2)
assert fatpoints.scheme_geproci_check(S9, 3, 3, mode="generic").geproci
P3 = PointSet(F2, enumerate_projective_space(F2, 3), 3)
P = core.GeneralPoint.generic(F2)
assert core.unexpected_cone_dim(P3, 4, P) == (3, 0, True)
cone = core.frobenius_cone(F2, P)
assert core.frobenius_membership_check(F2, P)
assert core.cone_line_transversality(cone, F2).all_transversal
a, b, _ = P.ring.gens()
f = HomogeneousForm(P.ring, 3, 1, {(1, 0, 0): P.ring.one(), (0, 1, 0): a})
g = HomogeneousForm(P.ring, 3, 1, {(0, 1, 0): P.ring.one(), (0, 0, 1): b})
assert isinstance(coprime_certificate(f, g), CoprimalityWitness)
"""


def test_generic_runtime_path_never_imports_sympy():
    src = str(Path(geproci.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _NO_SYMPY], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
