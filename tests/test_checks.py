import dataclasses
import itertools
import math

import pytest

from donor_halo import checks, fields, kinetics, polarization, spin_algebra, validity
from donor_halo.materials import MaterialRecord


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        checks.run_suites(["no-such-suite"])


def test_selected_suites_run_in_order():
    results = checks.run_suites(["properties", "exact-oracles"], n_dwell=10_000)
    suites = [r.suite for r in results]
    assert suites.index("properties") < suites.index("exact-oracles")


def test_expected_failure_registry_names_real_checks():
    names = {(r.suite, r.name) for r in checks.reference_number_suite()}
    assert checks.EXPECTED_FAILURES <= names


def test_crashing_check_reports_failure():
    def boom():
        raise RuntimeError("kaboom")

    results = checks._run("demo", [("boom", boom)])
    assert len(results) == 1
    assert not results[0].ok
    assert "kaboom" in results[0].detail


def test_reference_numbers_run_the_power_sweep_once_per_call(monkeypatch):
    calls = []

    def counted(*args, real=polarization.power_sweep, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(polarization, "power_sweep", counted)
    assert all(r.ok for r in checks.reference_number_suite()
               if r.name.startswith("sweep-"))
    assert len(calls) == 1
    checks.reference_number_suite()
    assert len(calls) == 2


def _nan(value):
    return math.nan


#: each deviation check, the closed form it checks, the call of that form
#: within its suite that answers NaN instead, and how to make the answer NaN
NAN_CASES = [
    ("exact-oracles", "k-factor-traces", spin_algebra, "angular_factor", 70, _nan),
    ("exact-oracles", "iz-moment-traces", spin_algebra, "trace_iz4", 3, _nan),
    ("exact-oracles", "redfield-superoperator", spin_algebra, "redfield_rate_analytic", 5, _nan),
    ("exact-oracles", "efg-rotation", fields, "efg_transform", 40,
     lambda v: v._replace(xz=math.nan)),
    ("exact-oracles", "sphere-average", polarization, "p_avg", 12, _nan),
    ("exact-oracles", "telegraph-conditionals", kinetics, "telegraph_correlation", 6, _nan),
    ("exact-oracles", "screening-cdf", fields, "screening_fraction", 4, _nan),
    ("exact-oracles", "power-balance", kinetics, "invert_power", 3, _nan),
    ("exact-oracles", "spectral-density", kinetics, "spectral_density", 7, _nan),
    ("exact-oracles", "local-field-trace", spin_algebra, "bq_local_field", 9, _nan),
    ("exact-oracles", "hamiltonian-forms", spin_algebra, "build_hq_general", 5,
     lambda h: h * math.nan),
    ("reference-numbers", "coupling-table", MaterialRecord, "bq_recomputed", 2, _nan),
    ("properties", "efg-traceless", fields, "efg_transform", 20,
     lambda v: v._replace(yy=math.nan)),
    ("properties", "eta-power-law", validity, "spin_temperature_limit", 4,
     lambda limit: dataclasses.replace(limit, r_q=math.nan)),
    ("properties", "threshold-inverse", validity, "field_threshold", 6, _nan),
]


@pytest.fixture(scope="module")
def clean_suites():
    return {suite: checks.SUITES[suite](20260810, 1_000_000)
            for suite in {case[0] for case in NAN_CASES}}


@pytest.mark.parametrize("suite, name, owner, attr, nth_call, poison", NAN_CASES,
                         ids=[case[1] for case in NAN_CASES])
def test_a_nan_deviation_fails_its_check(monkeypatch, clean_suites, suite, name, owner,
                                         attr, nth_call, poison):
    # max(worst, nan) keeps worst, so a NaN that the closed form returns at
    # one input must still reach the check's tolerance test and fail it
    real = getattr(owner, attr)
    calls = itertools.count(1)

    def one_nan(*args, **kwargs):
        value = real(*args, **kwargs)
        return poison(value) if next(calls) == nth_call else value

    monkeypatch.setattr(owner, attr, one_nan)
    results = checks.SUITES[suite](20260810, 1_000_000)
    assert next(calls) > nth_call, "the NaN call was never made"
    (hit,) = [r for r in results if r.name == name]
    assert not hit.ok
    assert "nan" in hit.detail
    assert [r for r in results if r.name != name] == \
        [r for r in clean_suites[suite] if r.name != name]
