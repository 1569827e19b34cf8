import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats

from bsderisk import (
    CertaintyEquivalent,
    Claim,
    DiscountedMeasure,
    DomainGuardViolation,
    DriverMeasure,
    LsmcContext,
    MeanMeasure,
    RandomField,
    RegressionBasis,
    TimeGrid,
    claim_from_label,
    driver_from_label,
    family_from_label,
    measure_from_label,
    simulate,
    tsallis,
)
from bsderisk.cli import RunConfig
from bsderisk.tsallis import DomainError

from conftest import stderr


def gauss_quad(fn):
    """E[fn(B_1)] for standard normal B_1 by adaptive quadrature."""
    val, err = integrate.quad(lambda b: fn(b) * stats.norm.pdf(b), -12, 12, limit=300)
    assert err < 1e-9
    return val


# frozen quadrature oracles for the standard claim B_1
ENTROPIC_ON_LOSSES = np.log(gauss_quad(lambda b: np.exp(np.maximum(-b, 0.0))))  # 0.635064
MEAN_LOSS = gauss_quad(lambda b: np.maximum(-b, 0.0))  # 0.398942


class TestRhoFromDriver:
    def test_zero_driver_mean(self, ctx50, b1):
        rho = DriverMeasure(driver_from_label("zero")).evaluate(ctx50, 0, claim_from_label("brownian", 50))
        assert rho.mean() == pytest.approx(-np.mean(b1), abs=1e-12)

    def test_normalization_of_csa_example(self, ctx50):
        rho = DriverMeasure(driver_from_label("csa_example")).evaluate(
            ctx50, 0, claim_from_label("const:0", 50)
        )
        assert np.max(np.abs(rho.values)) <= 1e-12

    def test_shifted_example_not_normalized(self, ctx50):
        # zero claim, driver r y^- + z + 1: y stays >= 0 so the solution is
        # the deterministic source integral, exactly 1 over a unit horizon
        rho = DriverMeasure(driver_from_label("csa_example_shift")).evaluate(
            ctx50, 0, claim_from_label("const:0", 50)
        )
        assert rho.mean() == pytest.approx(1.0, abs=1e-12)

    def test_evaluation_holds_one_row(self):
        # the pass keeps the row it has reached, not every Y row: one
        # (n_steps+1) x n array is 6.56 MB at 20k x 40, and a kept Y peaked
        # at 8.80 MB against 2.40 MB for the pass
        ctx = RunConfig(n_steps=40, n_paths=20_000, seed=5).build()
        measure = measure_from_label("driver:quad_z")
        claim = claim_from_label("sin", 40)
        tracemalloc.start()
        try:
            measure.evaluate(ctx, 0, claim)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ctx.ensemble.values.nbytes


class TestRhoFromFamily:
    def test_constant_family_equals_driver(self, ctx20):
        from bsderisk import DriverFamily

        drv = driver_from_label("abs_z")
        fam = DriverFamily(lambda u: drv, "constant")
        claim = claim_from_label("brownian", 20)
        a = DriverMeasure(fam).evaluate(ctx20, 0, claim)
        b = DriverMeasure(drv).evaluate(ctx20, 0, claim)
        np.testing.assert_array_equal(a.values, b.values)

    def test_translated_members_differ_by_integral(self, ctx20):
        # two maturities differ by the added source alpha*u over the horizon
        fam = family_from_label("translated_family:1,0.2")
        claim = claim_from_label("brownian", 10)
        short = DriverMeasure(fam).evaluate(ctx20, 0, claim, maturity=10)
        long = DriverMeasure(fam).evaluate(ctx20, 0, claim, maturity=20)
        dt = ctx20.grid.dt
        oracle = 0.2 * 1.0 * (20 * dt) - 0.2 * 0.5 * (10 * dt)
        assert long.mean() - short.mean() == pytest.approx(oracle, abs=5e-3)


class TestQEntropicClosed:
    def test_constant_claim(self, ctx50):
        rho = CertaintyEquivalent(0.5).evaluate(ctx50, 0, claim_from_label("const:1.5", 50))
        assert rho.mean() == pytest.approx(-1.5, abs=1e-12)

    def test_boundary_constant(self, ctx50, monkeypatch):
        # with the margin disabled the domain boundary itself is admissible
        monkeypatch.setattr(tsallis, "EPS_DOM", 0.0)
        rho = CertaintyEquivalent(0.5).evaluate(ctx50, 0, claim_from_label("const:2", 50))
        assert rho.mean() == pytest.approx(-2.0, abs=1e-12)

    def test_domain_margin_matches_the_driver_guard(self):
        # both routes admit -X exactly where 1 + (1-q)(-X) >= EPS_DOM
        grid = TimeGrid(1.0, 10)
        ctx = LsmcContext(grid, simulate(grid, 2000, seed=5), RegressionBasis(2))
        closed = measure_from_label("qent_closed:0.5")
        backward = measure_from_label("driver:q_entropic:0.5")
        outside = claim_from_label("const:1.9985", 10)  # 1 + 0.5 * -1.9985 = 0.00075
        with pytest.raises(DomainError):
            closed.evaluate(ctx, 0, outside)
        with pytest.raises(DomainGuardViolation):
            backward.evaluate(ctx, 0, outside)
        inside = claim_from_label("const:1.99", 10)
        a = closed.evaluate(ctx, 0, inside).mean()
        b = backward.evaluate(ctx, 0, inside).mean()
        assert a == pytest.approx(-1.99, abs=1e-12)
        assert b == pytest.approx(a, abs=1e-12)

    def test_near_one_matches_entropic(self, ctx50, b1):
        clipped = Claim(50, lambda b: np.clip(b, -0.9, 3.0))
        a = CertaintyEquivalent(0.999).evaluate(ctx50, 0, clipped)
        b = CertaintyEquivalent(1.0).evaluate(ctx50, 0, clipped)
        assert abs(a.mean() - b.mean()) <= 1e-2

    def test_unbounded_claim_rejected(self, ctx50):
        with pytest.raises(DomainError):
            CertaintyEquivalent(0.5).evaluate(ctx50, 0, claim_from_label("brownian", 50))

    def test_q_validation(self):
        with pytest.raises(ValueError):
            CertaintyEquivalent(1.2)


class TestQEntropicOnLosses:
    def test_no_loss_claim_is_zero(self, ctx50):
        rho = CertaintyEquivalent(0.5, 0.5).evaluate(ctx50, 0, claim_from_label("const:0", 50))
        assert np.max(np.abs(rho.values)) <= 1e-12

    def test_value_between_oracles(self, ctx50):
        rho = CertaintyEquivalent(0.5, 0.0).evaluate(ctx50, 0, claim_from_label("brownian", 50))
        assert MEAN_LOSS - 0.01 <= rho.mean() <= ENTROPIC_ON_LOSSES + 0.01

    def test_monotone_in_q(self, ctx50):
        claim = claim_from_label("brownian", 50)
        vals = [CertaintyEquivalent(q, 0.0).evaluate(ctx50, 0, claim).mean() for q in (0.1, 0.5, 0.9)]
        assert vals[0] <= vals[1] <= vals[2]

    def test_always_nonnegative(self, ctx50):
        rho = CertaintyEquivalent(0.3, 0.0).evaluate(ctx50, 0, claim_from_label("brownian", 50))
        assert rho.mean() >= 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CertaintyEquivalent(0.0, 0.0)
        with pytest.raises(ValueError):
            CertaintyEquivalent(0.5, beta=-1.0)
        with pytest.raises(ValueError):
            measure_from_label("qent_bsde:0.5,-1")


class TestTranslated:
    def test_zero_rate_reduces(self, ctx50):
        claim = claim_from_label("brownian", 50)
        a = CertaintyEquivalent(0.5, 0.0, 0.0).evaluate(ctx50, 0, claim)
        b = CertaintyEquivalent(0.5, 0.0).evaluate(ctx50, 0, claim)
        np.testing.assert_array_equal(a.values, b.values)

    def test_deterministic_argument(self, ctx50):
        # no losses and a constant rate: ln_q(exp_q(0.1)) = 0.1 exactly
        rho = CertaintyEquivalent(0.5, 0.5, 0.1).evaluate(ctx50, 0, claim_from_label("const:1", 50))
        assert rho.mean() == pytest.approx(0.1, abs=1e-12)

    def test_longer_horizon_charges_more(self, ctx50):
        m = CertaintyEquivalent(0.5, 0.0, 0.1)
        claim = claim_from_label("brownian", 25)
        g = m.evaluate(ctx50, 0, claim, maturity=50).mean() - m.evaluate(
            ctx50, 0, claim, maturity=25
        ).mean()
        assert g >= 0.0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match=re.escape("translation rate must be >= 0, got -0.1")):
            CertaintyEquivalent(0.5, 0.0, -0.1)

    def test_callable_rate_refused_when_built(self):
        # the rate is one constant: a function of time fails on construction,
        # before any evaluation could call it
        with pytest.raises(TypeError):
            CertaintyEquivalent(0.5, 0.5, lambda t: 0.2 * t)

    def test_charge_is_rate_times_horizon(self, ctx50):
        # T(X) = (X+beta)^- + a (u - t); with no loss ln_q(exp_q(.)) returns the charge
        rho = CertaintyEquivalent(0.5, 0.5, 0.2).evaluate(ctx50, 10, claim_from_label("const:1", 50))
        np.testing.assert_allclose(rho.values, 0.2 * 40 * ctx50.grid.dt, rtol=0, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            CertaintyEquivalent(0.5, a=0.1)  # a rate needs the losses transform
        with pytest.raises(ValueError):
            CertaintyEquivalent(0.5, -1.0, 0.1)
        with pytest.raises(ValueError):
            measure_from_label("qent_tr:0.5,0,-0.1")

    @pytest.mark.parametrize("build, message", [
        (lambda x: CertaintyEquivalent(0.5, x), "acceptable loss level beta must be >= 0"),
        (lambda x: CertaintyEquivalent(0.5, 0.0, x), "translation rate must be >= 0"),
        (lambda x: DriverMeasure(driver_from_label("quad_z"), x), "acceptable loss level beta must be >= 0"),
    ], ids=["qent_beta", "qent_tr_rate", "driver_losses_beta"])
    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_non_finite_level_or_rate_refused(self, build, message, x):
        # label_floats refuses these in labels; the Python API refuses them too
        with pytest.raises(ValueError, match=re.escape(f"{message}, got {x}")):
            build(x)


class TestEntropic:
    def test_constant(self, ctx50):
        rho = CertaintyEquivalent(1.0).evaluate(ctx50, 0, claim_from_label("const:2", 50))
        assert rho.mean() == pytest.approx(-2.0, abs=1e-12)

    def test_gaussian_mgf(self, ctx50):
        rho = CertaintyEquivalent(1.0).evaluate(ctx50, 0, claim_from_label("brownian", 50))
        assert abs(rho.mean() - 0.5) <= 0.02

    def test_losses_oracle(self, ctx50, b1):
        neg_loss = Claim(50, lambda b: -np.maximum(-b, 0.0))
        rho = CertaintyEquivalent(1.0).evaluate(ctx50, 0, neg_loss)
        assert abs(rho.mean() - ENTROPIC_ON_LOSSES) <= 0.02


class TestDiscountedWrapper:
    def test_zero_rate_equals_base(self, ctx50, b1):
        wrapped = DiscountedMeasure(MeanMeasure(), 0.0).evaluate(
            ctx50, 0, claim_from_label("brownian", 50)
        )
        base = MeanMeasure().evaluate(ctx50, 0, claim_from_label("brownian", 50))
        np.testing.assert_array_equal(wrapped.values, base.values)

    def test_closed_form_discount(self, ctx50):
        rho = DiscountedMeasure(MeanMeasure(), 0.1).evaluate(ctx50, 0, claim_from_label("const:1", 50))
        assert rho.mean() == pytest.approx(-np.exp(-0.1), rel=1e-12)

    def test_cash_subadditive_for_constants(self, ctx50, b1):
        m = measure_from_label("discounted:mean,0.1")
        claim = RandomField(50, b1)
        rho_x = m.evaluate(ctx50, 25, claim)
        for shift in (0.1, 0.5, 1.0):
            rho_xm = m.evaluate(ctx50, 25, RandomField(50, b1 + shift))
            assert np.min(rho_xm.values - (rho_x.values - shift)) >= -1e-12

    def test_refuses_non_cash_additive_base(self, ctx50):
        with pytest.raises(ValueError):
            DiscountedMeasure(CertaintyEquivalent(0.5, 0.0), 0.1)


class TestBsdeClosedFormAgreement:
    def test_on_standard_claim(self, ctx50):
        claim = claim_from_label("brownian", 50)
        bsde_route = measure_from_label("qent_bsde:0.5,0.5").evaluate(ctx50, 0, claim)
        closed = CertaintyEquivalent(0.5, 0.5).evaluate(ctx50, 0, claim)
        assert abs(bsde_route.mean() - closed.mean()) <= 0.05


class TestConstructionStrings:
    @pytest.mark.parametrize(
        "label",
        [
            "mean",
            "entropic",
            "qent:0.5,0",
            "qent_tr:0.5,0,0.1",
            "qent_closed:0.5",
            "qent_bsde:0.5,0",
            "qent_bsde:0.25,0",
            "qent_bsde:1,0",
            "driver:quad_z",
            "driver:csa_example",
            "family:translated_family:0.5,0.1",
            "family_losses:translated_family:0.5,0.1",
            "discounted:mean,0.1",
            "discounted:entropic,0.05",
            "qent:0.5,0.30000001",
            "qent_tr:0.5,0,0.10000001",
            "qent_closed:0.1234567",
            "discounted:mean,0.10000001",
        ],
    )
    def test_round_trip(self, label):
        assert measure_from_label(label).label == label

    def test_losses_label_names_beta(self):
        fam = family_from_label("translated_family:0.5,0.4")
        labels = [DriverMeasure(fam, beta).label for beta in (0.0, 0.3)]
        assert labels == [
            "family_losses:translated_family:0.5,0.4",
            "family_losses:translated_family:0.5,0.4,0.3",
        ]

    def test_losses_label_prints_beta_as_other_labels_do(self):
        fam = family_from_label("translated_family:0.5,0.4")
        assert DriverMeasure(fam, 2.0).label == "family_losses:translated_family:0.5,0.4,2"

    def test_qent_bsde_solves_at_the_exact_q(self):
        m = measure_from_label("qent_bsde:0.1234567,0")
        assert m.label == "qent_bsde:0.1234567,0"
        # g(t, 0, z) = q |z|^2 / 2, so at |z| = 1 the generator reads q / 2
        assert m.driver(0.0, np.zeros(1), np.ones((1, 1)))[0] == 0.1234567 / 2

    def test_qent_bsde_labels_tell_betas_apart(self):
        labels = [measure_from_label(f"qent_bsde:0.5,{b}").label for b in ("0.3", "0.30000001")]
        assert labels == ["qent_bsde:0.5,0.3", "qent_bsde:0.5,0.30000001"]

    def test_unknown(self):
        with pytest.raises(KeyError):
            measure_from_label("quantile:0.95")

    def test_cash_additivity_flags(self):
        assert measure_from_label("mean").is_cash_additive
        assert measure_from_label("entropic").is_cash_additive
        assert measure_from_label("driver:quad_z").is_cash_additive
        assert not measure_from_label("driver:csa_example").is_cash_additive
        assert not measure_from_label("qent:0.5,0").is_cash_additive
        assert not measure_from_label("qent_tr:0.5,0,0").is_cash_additive
        assert not measure_from_label("qent_closed:0.5").is_cash_additive
        assert not measure_from_label("discounted:mean,0.1").is_cash_additive
        assert not measure_from_label("qent_bsde:1,0").is_cash_additive
        assert not measure_from_label("family:translated_family:1,0").is_cash_additive

    def test_classical_limit_is_entropic(self):
        # q within tsallis.Q_ONE_TOL of 1 is the classical measure, by its
        # label and its cash additivity, as in every other q-entropic rule
        near_one = CertaintyEquivalent(1.0 - 1e-9)
        assert near_one.label == "entropic" and near_one.is_cash_additive
        assert not CertaintyEquivalent(1.0 - 1e-6).is_cash_additive

    def test_evaluation_window_validated(self, ctx20):
        m = measure_from_label("mean")
        with pytest.raises(ValueError):
            m.evaluate(ctx20, 15, claim_from_label("brownian", 10))

    def test_normalization_exact_for_closed_forms(self, ctx20):
        zero = claim_from_label("const:0", 20)
        for label in ("mean", "entropic", "qent:0.5,0", "qent_closed:0.5", "driver:quad_z"):
            rho = measure_from_label(label).evaluate(ctx20, 5, zero)
            assert np.max(np.abs(rho.values)) <= 1e-10, label

    @pytest.mark.parametrize(
        "registry, label",
        [
            ("claim", "call"),
            ("claim", "const:x"),
            ("driver", "linear_y"),
            ("driver", "q_entropic_translated:0.5"),
            ("driver", "q_entropic:-2"),
            ("driver", "q_entropic:1.5"),
            ("driver", "q_entropic_translated:0,0.1"),
            ("family", "translated_family:0.5,a"),
            ("family", "translated_family:-1,0.4"),
            ("measure", "qent:abc"),
            ("measure", "qent_tr:0.5,0"),
            ("measure", "qent_closed:"),
            ("measure", "qent_closed:1"),
            ("measure", "qent_bsde:1.5,0"),
            ("measure", "discounted:mean"),
            ("measure", "qent:0.5,nan"),
            ("measure", "discounted:mean,nan"),
            ("measure", "discounted:mean,inf"),
            ("measure", "qent_tr:0.5,0,inf"),
            ("measure", "qent_closed:0.999999999"),
            ("claim", "const:nan"),
            ("claim", "neg_part:nan"),
            # argument-free labels refuse any argument
            ("driver", "quad_z:junk"),
            ("driver", "zero:5"),
            ("driver", "abs_z:1"),
            ("claim", "brownian:3"),
            ("claim", "sin:x"),
        ],
    )
    def test_bad_arguments_name_the_label(self, registry, label):
        build = {
            "claim": lambda s: claim_from_label(s, 5),
            "driver": driver_from_label,
            "family": family_from_label,
            "measure": lambda s: measure_from_label(s),
        }[registry]
        with pytest.raises(ValueError, match=re.escape(repr(label))):
            build(label)


class TestCertaintyEquivalentAtRoot:
    """At t = 0 the projection is the sample mean, so each closed form is
    ln_q(mean(exp_q(T(X)))) computed here with plain numpy, bit for bit."""

    @pytest.mark.parametrize(
        "label, claim, q, transform",
        [
            ("entropic", "sin", 1.0, lambda x, dt: -x),
            ("qent_closed:0.5", "sin", 0.5, lambda x, dt: -x),
            ("qent:0.5,0.5", "brownian", 0.5, lambda x, dt: np.maximum(-(x + 0.5), 0.0)),
            (
                "qent_tr:0.5,0,0.2",
                "brownian",
                0.5,
                lambda x, dt: np.maximum(-(x + 0.0), 0.0) + sum([0.2] * 50) * dt,
            ),
        ],
    )
    def test_matches_plain_numpy(self, ctx50, label, claim, q, transform):
        c = claim_from_label(claim, 50)
        rho = measure_from_label(label).evaluate(ctx50, 0, c)
        arg = transform(c.evaluate(ctx50.ensemble).values, ctx50.grid.dt)
        if q == 1.0:
            expected = np.log(np.full(arg.size, np.mean(np.exp(arg))))
        else:
            omq = 1.0 - q
            mean = np.full(arg.size, np.mean((1.0 + omq * arg) ** (1.0 / omq)))
            expected = (mean**omq - 1.0) / omq
        assert np.array_equal(rho.values, expected)
