"""Records are NamedTuples: what callers rely on, and the checks construction keeps."""

import math
import pickle

import pytest

from boostcav.cavity import Cavity1D, Cavity2D, Scheme, lorentz_factor
from boostcav.modes import SpacetimeMode, SpacetimeMode2D
from boostcav.observables import EnergyMomentum, Route
from boostcav.rect2d import finite_parts
from boostcav.regsum import FinitePart, RegConfig, RegMethod, geometric_schedule
from boostcav.reports import DiscrepancyReport
from boostcav.verify import CheckResult

CUTOFF_PART = FinitePart(-0.13, 1e-10, (0.5,), 1e-12, 40.0)

# one record of each validating class and two plain ones, with a field to assign
RECORDS = [
    (Cavity1D(1.0, 0.5), "velocity"),
    (Cavity2D(1.0, 2.0, 0.3), "proper_length_y"),
    (SpacetimeMode(Scheme.LORENTZ_EXACT, Cavity1D(1.0, 0.5), 3), "n"),
    (SpacetimeMode2D(Cavity2D(1.0, 2.0), 1, 2), "m"),
    (RegConfig.cutoff(), "epsilon_schedule"),
    (CUTOFF_PART, "value"),
    (EnergyMomentum(1.0, 0.5, 0.3, Route.CLOSED_FORM), "energy"),
    (CheckResult("name", True, "detail"), "passed"),
]
IDS = [type(record).__name__ for record, _ in RECORDS]


class TestValueSemantics:
    @pytest.mark.parametrize("make", [
        RegConfig.cutoff,
        lambda: FinitePart(-0.13, 1e-10, (0.5,), 1e-12, 40.0),
        lambda: Cavity1D(1.0, 0.5),
    ], ids=["RegConfig", "FinitePart", "Cavity1D"])
    def test_equal_and_hashed_by_value(self, make):
        first, second = make(), make()
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert len({first, second}) == 1  # a reuse set keyed on configs sees one

    def test_different_values_differ(self):
        assert RegConfig.cutoff() != RegConfig(RegMethod.EXPONENTIAL_CUTOFF,
                                               geometric_schedule(hi=0.3))
        assert RegConfig.cutoff() != RegConfig(RegMethod.ZETA_EXACT)
        assert Cavity1D(1.0, 0.5) != Cavity1D(1.0, -0.5)

    @pytest.mark.parametrize("record, field", RECORDS, ids=IDS)
    def test_fields_cannot_be_assigned_or_added(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = 1.0

    @pytest.mark.parametrize("record, field", RECORDS, ids=IDS)
    def test_pickle_round_trip_keeps_the_class(self, record, field):
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record) and copy == record

    def test_repr_names_the_class_and_fields(self):
        assert repr(Cavity1D(1.0, 0.5)) == "Cavity1D(proper_length=1.0, velocity=0.5)"
        assert repr(RegConfig(RegMethod.ZETA_EXACT)) == (
            "RegConfig(method=<RegMethod.ZETA_EXACT: 'zeta'>, epsilon_schedule=())")
        assert repr(CheckResult("c", False, "d")) == "CheckResult(name='c', passed=False, detail='d')"

    def test_defaults_properties_and_methods(self):
        assert Cavity1D(2.0) == Cavity1D(proper_length=2.0, velocity=0.0)
        assert lorentz_factor(Cavity1D(1.0, 0.6).velocity) == pytest.approx(1.25)
        assert SpacetimeMode2D(Cavity2D(1.0, 1.0), 1, 1).frequency == pytest.approx(
            math.pi * math.sqrt(2.0))
        parts = finite_parts(Cavity2D(1.0, 2.0))
        assert parts.S_omega is parts[2] and parts._fields == ("U", "W", "S_omega", "S_k")

    def test_one_spelling_of_gamma_and_of_each_rel_diff(self):
        assert not hasattr(Cavity1D(1.0), "gamma") and not hasattr(Cavity2D(1.0, 1.0), "gamma")
        assert not hasattr(DiscrepancyReport, "max_rel_diff")


class TestValidation:
    """Each validating record still rejects its inputs, with the same message."""

    @pytest.mark.parametrize("make, message", [
        (lambda: Cavity1D(0.0), "proper_length must be positive and finite, got 0.0"),
        (lambda: Cavity1D(proper_length=math.nan), "proper_length must be positive and finite"),
        (lambda: Cavity1D(1e-160), "proper_length L = 1e-160 is too small"),
        (lambda: Cavity1D(1.0, 1.0), "velocity must satisfy |v| < 1, got 1.0"),
        (lambda: Cavity1D(1.0, velocity=-math.inf), "velocity must satisfy |v| < 1"),
        (lambda: Cavity2D(-1.0, 1.0), "proper_length_x must be positive and finite"),
        (lambda: Cavity2D(1.0, math.inf), "proper_length_y must be positive and finite"),
        (lambda: Cavity2D(1.0, 1.0, -1.5), "velocity must satisfy |v| < 1"),
        (lambda: SpacetimeMode(Scheme.LORENTZ_EXACT, Cavity1D(1.0), 0),
         "mode index n must be a positive integer, got 0"),
        (lambda: SpacetimeMode(Scheme.LORENTZ_EXACT, Cavity1D(1.0), n=1.0),
         "mode index n must be a positive integer, got 1.0"),
        (lambda: SpacetimeMode2D(Cavity2D(1.0, 1.0), 1, -2),
         "mode index m must be a positive integer, got -2"),
        (lambda: SpacetimeMode2D(Cavity2D(1.0, 1.0), 0, 1), "mode index n must be"),
        (lambda: RegConfig(RegMethod.EXPONENTIAL_CUTOFF, (0.2, 0.1, 0.05)),
         "cutoff schedule needs at least 4 points"),
        (lambda: RegConfig(RegMethod.EXPONENTIAL_CUTOFF, (0.2, 0.1, 0.1, 0.05)),
         "cutoff schedule must be finite, strictly decreasing and positive"),
        (lambda: RegConfig(method=RegMethod.EXPONENTIAL_CUTOFF,
                           epsilon_schedule=(math.inf, 0.2, 0.1, 0.05)),
         "cutoff schedule must be finite"),
        (lambda: FinitePart(math.nan, 0.0), "finite part is NaN"),
        (lambda: FinitePart(value=math.nan, error_estimate=0.0),
         "finite part is NaN"),
    ])
    def test_rejects_with_message(self, make, message):
        with pytest.raises(ValueError) as exc:
            make()
        assert message in str(exc.value)

    def test_arity_is_still_checked(self):
        with pytest.raises(TypeError):
            Cavity1D()
        with pytest.raises(TypeError):
            Cavity1D(1.0, 0.5, 0.1)
        with pytest.raises(TypeError):
            FinitePart(0.1, 0.0, nonsense=1)

    def test_other_methods_need_no_schedule(self):
        assert RegConfig(RegMethod.ZETA_EXACT).epsilon_schedule == ()
        assert RegConfig(RegMethod.ABEL_PLANA).method is RegMethod.ABEL_PLANA
        assert RegConfig.cutoff().halved().epsilon_schedule[0] == 0.1
