import pytest

from donor_halo import checks, polarization


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
