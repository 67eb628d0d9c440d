import math

import pytest

from donor_halo import (MaterialError, MissingParameterError, compute_bq,
                        get_material, list_materials, load_registry)
from donor_halo.materials import (E_CHARGE, EPSILON_0, HBAR, dump_record,
                                  parse_registry)


def test_registry_lists_eight_records():
    assert len(list_materials()) == 8
    assert "GaAs:As75" in list_materials()


def test_coupling_round_trip_all_records():
    for record in load_registry().values():
        recomputed = record.bq_recomputed()
        assert abs(recomputed - record.b_q) <= 0.10 * record.b_q, record.name


def test_compute_bq_reference_values(gaas):
    # tabulated coupling for the default record
    value = compute_bq(3.2e12, gaas.quadrupole_moment, 1.5, gaas.gamma)
    assert value == pytest.approx(2.8e-10, rel=0.10)
    indium = get_material("InAs:In115")
    value = compute_bq(4.4e12, indium.quadrupole_moment, 4.5, indium.gamma)
    assert value == pytest.approx(0.7e-10, rel=0.10)


def test_compute_bq_rejects_spin_half():
    with pytest.raises(MaterialError, match="no quadrupole moment"):
        compute_bq(3.2e12, 3.14e-29, 0.5, 4.6e7)


def test_compute_bq_monotone_in_spin():
    values = [compute_bq(3.2e12, 3.14e-29, spin, 4.6e7)
              for spin in (1.0, 1.5, 2.5, 3.5, 4.5)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_parse_rejects_unknown_key(gaas):
    text = dump_record(gaas) + "banana = 3\n"
    with pytest.raises(MaterialError) as err:
        parse_registry(text)
    assert str(err.value) == "<registry>:25: unknown material field: banana"


def test_parse_rejects_missing_key(gaas):
    text = "\n".join(line for line in dump_record(gaas).splitlines()
                     if not line.startswith("gamma ="))
    with pytest.raises(MaterialError, match="missing keys"):
        parse_registry(text)


def test_parse_rejects_duplicate_block(gaas):
    text = dump_record(gaas) * 2
    with pytest.raises(MaterialError, match="duplicate"):
        parse_registry(text)


@pytest.mark.parametrize("text, message", [
    ("no_block = 1\n", "x.dat:1: key outside any [record] block"),
    ("not a pair\n", "x.dat:1: key outside any [record] block"),
    ("# header\n[]\n", "x.dat:2: empty record name"),
    ("[a]\nhost = GaAs\nnot a pair\n", "x.dat:3: expected 'key = value'"),
    ("[a]\nname = b\n", "x.dat:2: 'name' is set by the block header"),
    ("[a]\nspin = abc\n", "x.dat:2: bad number for spin: 'abc'"),
])
def test_parse_syntax_errors(text, message):
    with pytest.raises(MaterialError) as err:
        parse_registry(text, source="x.dat")
    assert str(err.value) == message


def test_dump_parse_round_trip(gaas):
    parsed = parse_registry(dump_record(gaas))[gaas.name]
    assert parsed.spin == gaas.spin
    assert parsed.b_q == pytest.approx(gaas.b_q, rel=1e-6)
    assert parsed.hyperfine_field_bohr == pytest.approx(
        gaas.hyperfine_field_bohr, rel=1e-6)


def test_overrides_typed_and_checked(gaas):
    hotter = gaas.with_overrides(velocity=4.5e5)
    assert hotter.velocity == 4.5e5
    with pytest.raises(MaterialError, match="unknown material field"):
        gaas.with_overrides(nonsense=1.0)


def test_record_invariants(gaas):
    with pytest.raises(MaterialError, match="acceptor density"):
        gaas.with_overrides(acceptor_density=gaas.donor_density / 2.0)
    with pytest.raises(MaterialError, match="must be positive"):
        gaas.with_overrides(recombination_time=-1.0)
    with pytest.raises(MaterialError, match="half-integer"):
        gaas.with_overrides(spin=1.3)
    # stored coupling must stay consistent with the nuclear data
    with pytest.raises(MaterialError, match="differs from recomputed"):
        gaas.with_overrides(b_q=gaas.b_q * 1.25)


def test_nullable_hyperfine_field():
    record = get_material("InP:In115")
    assert record.hyperfine_field_bohr is None
    with pytest.raises(MissingParameterError):
        record.require_hyperfine_field()
    assert "uncertainty" in record.note


def test_unknown_material_lists_known():
    with pytest.raises(MaterialError, match="known records"):
        get_material("GaAs:As76")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("key", ["velocity", "donor_density", "hyperfine_field_bohr"])
def test_record_rejects_non_finite(gaas, key, value):
    with pytest.raises(MaterialError, match=f"{key} must be positive and finite"):
        gaas.with_overrides(**{key: value})


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_record_rejects_non_finite_spin(gaas, value):
    with pytest.raises(MaterialError, match="half-integer"):
        gaas.with_overrides(spin=value)


def test_codata_literals_match_scipy():
    from scipy import constants
    assert E_CHARGE == constants.elementary_charge
    assert HBAR == constants.hbar
    assert EPSILON_0 == constants.epsilon_0
