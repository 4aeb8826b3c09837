import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lunepot.dilog import dilog, dilog_lower_boundary, im_dilog_on_path
from lunepot.errors import DomainError

PI = math.pi
PI2_6 = PI * PI / 6.0


def series_reference(z: complex, terms: int = 2000) -> complex:
    # direct summation, valid for |z| < 1; the independent oracle
    acc = 0j
    p = 1 + 0j
    for n in range(1, terms + 1):
        p *= z
        acc += p / (n * n)
    return acc


class TestValues:
    def test_zero(self):
        assert dilog(0.0) == 0.0

    def test_one(self):
        assert dilog(1.0) == pytest.approx(PI2_6, rel=1e-15)

    def test_minus_one(self):
        assert dilog(-1.0).real == pytest.approx(-PI * PI / 12.0, rel=1e-14)
        assert dilog(-1.0).imag == 0.0

    def test_half(self):
        want = PI2_6 / 2.0 - 0.5 * math.log(2.0) ** 2
        assert dilog(0.5).real == pytest.approx(want, rel=5e-15)

    def test_imaginary_unit(self):
        catalan = 0.915965594177219015054603514932
        v = dilog(1j)
        assert v.real == pytest.approx(-PI * PI / 48.0, rel=5e-14)
        assert v.imag == pytest.approx(catalan, rel=5e-15)

    def test_against_series_inside_disc(self):
        for z in (0.3 + 0.4j, -0.7j, -0.9 + 0.1j, 0.45 - 0.6j):
            assert dilog(z) == pytest.approx(series_reference(z), abs=5e-15)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            dilog(complex(math.inf, 0.0))


unit_disc_points = st.complex_numbers(max_magnitude=0.98).filter(
    lambda z: 1e-3 < abs(z)
)


class TestIdentities:
    @given(z=unit_disc_points)
    @settings(max_examples=300)
    def test_reflection(self, z):
        # 1 - z must sit on the opposite side of the real axis, including
        # for exactly real z < 0 where 1 - z lands on the cut: building
        # the imaginary part by negation keeps the signed zero that a
        # complex subtraction would lose
        w = complex(1.0 - z.real, -z.imag)
        lhs = dilog(z) + dilog(w)
        rhs = PI2_6 - cmath.log(z) * cmath.log(w)
        assert abs(lhs - rhs) <= 1e-13

    @given(z=unit_disc_points)
    @settings(max_examples=200)
    def test_conjugation(self, z):
        assert dilog(z.conjugate()) == pytest.approx(dilog(z).conjugate(), abs=1e-14)

    @pytest.mark.parametrize("z", [0.3 + 0.2j, -0.5 - 0.4j, 0.1 + 0.7j])
    def test_derivative_relation(self, z):
        h = 1e-6
        fd = (dilog(z + h) - dilog(z - h)) / (2.0 * h)
        assert abs(fd - (-cmath.log(1.0 - z) / z)) <= 5e-9

    @pytest.mark.parametrize("a", [1.5, 2.0, 4.0])
    def test_jump_relation(self, a):
        jump = 2.0 * PI * math.log(a)
        for delta in (1e-4, 1e-6, 1e-8):
            measured = dilog(complex(a, delta)).imag - dilog(complex(a, -delta)).imag
            # the jump is approached linearly in delta
            assert abs(measured - jump) <= 10.0 * delta + 1e-12


class TestBoundary:
    @pytest.mark.parametrize("a", [1.1, 2.0, 5.0, math.e])
    def test_lower_boundary_imag(self, a):
        assert dilog_lower_boundary(a).imag == pytest.approx(
            -PI * math.log(a), abs=1e-13
        )

    def test_upper_convention_on_cut(self):
        # real arguments beyond 1 take the limit from above
        assert dilog(2.0).imag == pytest.approx(PI * math.log(2.0), abs=1e-13)

    def test_continuity_at_one(self):
        v = dilog_lower_boundary(1.0 + 1e-12)
        assert v.imag == pytest.approx(-PI * 1e-12, rel=1e-2)
        assert abs(v - dilog(1.0 - 1e-12)) <= 1e-9

    @pytest.mark.parametrize("a", [1.0, 0.5])
    def test_domain(self, a):
        with pytest.raises(DomainError):
            dilog_lower_boundary(a)


class TestPath:
    @pytest.mark.parametrize("a", [1.2, 2.0])
    def test_monodromy_endpoint(self, a):
        assert im_dilog_on_path(a, PI / 2) == pytest.approx(
            -PI * math.log(a), abs=1e-14
        )

    def test_real_axis_start(self):
        assert im_dilog_on_path(1.0, 0.0) == 0.0

    def test_against_direct_series(self):
        # phi = pi/4, a = 1/2: the path argument is -0.5i
        want = series_reference(-0.5j).imag
        assert im_dilog_on_path(0.5, PI / 4) == pytest.approx(want, abs=1e-15)
        assert want == pytest.approx(-0.48722235829452226, abs=1e-14)

    def test_matches_principal_off_cut(self):
        for a in (0.3, 0.9, 1.4):
            for phi in (0.2, 0.7, 1.3):
                z = -a * cmath.exp(2j * phi)
                assert im_dilog_on_path(a, phi) == pytest.approx(
                    dilog(z).imag, abs=1e-15
                )

    def test_domain(self):
        with pytest.raises(DomainError):
            im_dilog_on_path(-0.5, 0.3)
        with pytest.raises(DomainError):
            im_dilog_on_path(0.5, 2.0)


HALF_BELOW = math.nextafter(0.5, 0.0)
HALF_ABOVE = math.nextafter(0.5, 1.0)


def _assert_matches_mpmath(mp, zs):
    mp.mp.dps = 30
    for z in zs:
        ref = complex(mp.polylog(2, mp.mpc(z.real, z.imag)))
        if z.imag == 0.0 and z.real > 1.0:
            # on the cut the sign of the zero imaginary part picks the side
            ref = complex(ref.real, math.copysign(float(mp.pi * mp.log(z.real)), z.imag))
        assert abs(dilog(z) - ref) <= 5e-15 * max(abs(ref), 1.0), z


@pytest.mark.parametrize("r", [0.05, HALF_BELOW, 0.5, HALF_ABOVE, 0.95, 1.0, 1.3, 2.0])
def test_accuracy_against_mpmath(r):
    mp = pytest.importorskip("mpmath")
    zs = [r * cmath.exp(1j * (-PI + 2.0 * PI * (k + 0.5) / 12)) for k in range(12)]
    _assert_matches_mpmath(mp, zs)


def _seam_points(seam):
    # where the sums switch between the two tables and the reflection and
    # inversion wrappers, with the ulp neighbours of each seam
    if seam == "re-half":  # Re z = 1/2 on the unit disc
        return [complex(x, i / 8.0) for x in (HALF_BELOW, 0.5, HALF_ABOVE) for i in range(-7, 8)]
    if seam == "cut":  # real x > 1 with y = +0.0 and y = -0.0
        xs = [math.nextafter(1.0, 2.0), 1.25, 1.5, 2.0, 2.5, 3.0, 10.0, 1e6]
        return [complex(x, y) for x in xs for y in (0.0, -0.0)]
    angles = [-PI + 2.0 * PI * (k + 0.5) / 24 for k in range(24)]
    if seam == "reflected-half":  # |1 - z| = 1/2, the table switch after reflection
        return [1.0 - r * cmath.exp(1j * t) for r in (HALF_BELOW, 0.5, HALF_ABOVE) for t in angles]
    radius = {"unit-circle": 1.0, "radius-two": 2.0}[seam]  # inversion, and the image of |z| = 1/2
    rs = (math.nextafter(radius, 0.0), radius, math.nextafter(radius, 3.0))
    return [r * cmath.exp(1j * t) for r in rs for t in angles]


@pytest.mark.parametrize("seam", ["re-half", "reflected-half", "unit-circle", "radius-two", "cut"])
def test_accuracy_against_mpmath_at_seams(seam):
    mp = pytest.importorskip("mpmath")
    _assert_matches_mpmath(mp, _seam_points(seam))
