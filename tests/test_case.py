import json
import math
from dataclasses import is_dataclass
from typing import get_args, get_origin, get_type_hints

import numpy as np
import pytest

from oscdamp.case import (CaseError, PowerSystemCase, VALUE_TYPES, parse_case,
                          render_case, validate_case, scale_stress, apply_line_trip)
from conftest import make_two_bus_text


def test_minimal_case_parses(two_bus_case):
    assert len(two_bus_case.buses) == 2
    assert len(two_bus_case.branches) == 1
    assert len(two_bus_case.machines) == 1


def test_bundled_case_structure(bundled_case):
    assert len(bundled_case.machines) == 4
    loads = {l.bus: l.p_mw for l in bundled_case.loads}
    assert loads[4] == 976.0
    assert loads[14] == 1757.0


def test_dangling_branch_reference():
    doc = json.loads(make_two_bus_text())
    doc["branches"].append({"from": 1, "to": 99, "circuit": 1,
                            "r": 0.0, "x": 0.1, "b": 0.0})
    with pytest.raises(CaseError, match="99"):
        parse_case(json.dumps(doc))


def test_syntax_error_carries_line():
    with pytest.raises(CaseError, match="line"):
        parse_case('{"base_mva": 100.0,\n  "oops"')


def test_duplicate_bus_id_rejected():
    doc = json.loads(make_two_bus_text())
    doc["buses"].append({"id": 1, "kind": "pq"})
    with pytest.raises(CaseError, match="duplicate"):
        parse_case(json.dumps(doc))


def test_unknown_key_rejected():
    doc = json.loads(make_two_bus_text())
    doc["buses"][0]["area"] = 1
    with pytest.raises(CaseError, match="unknown key"):
        parse_case(json.dumps(doc))


@pytest.mark.parametrize("section, index, key, value, path", [
    ("machines", 0, "h", math.nan, "machines[0].h"),
    ("machines", 0, "xd", math.inf, "machines[0].xd"),
    ("branches", 0, "x", -math.inf, "branches[0].x"),
    ("loads", 0, "p_mw", math.nan, "loads[0].p_mw"),
    ("governors", 0, "r", math.nan, "governors[0].r"),
    ("machines", 0, "h", 10 ** 400, "machines[0].h"),
    (None, None, "base_mva", math.inf, "case.base_mva"),
    (None, None, "buses", 5, "buses"),
    (None, None, "governors", {"machine": 1}, "governors"),
    ("loads", 0, None, 5, "loads[0]"),
    ("branches", 0, None, [1, 2], "branches[0]"),
    ("branches", 0, "in_service", "false", "branches[0].in_service"),
    ("branches", 0, "in_service", 0, "branches[0].in_service"),
    ("branches", 0, "from", 1.0, "branches[0].from"),
    ("buses", 0, "kind", 5, "buses[0].kind"),
    ("governors", 0, "machine", True, "governors[0].machine"),
    ("governors", 0, "machine", 7, "governors[0].machine"),
], ids=["h-nan", "xd-inf", "x-minus-inf", "load-nan", "droop-nan", "h-past-float",
        "base-inf", "buses-not-list", "governors-not-list", "load-not-object",
        "branch-not-object", "in-service-string", "in-service-int", "from-float",
        "kind-int", "governor-machine-bool", "governor-missing-machine"])
def test_non_finite_and_wrong_typed_fields_rejected(section, index, key, value, path):
    """Non-finite numbers (which Python's json reads), sections that are not
    lists of objects, values of another type than the field's and dangling
    references are case errors that name the field."""
    doc = json.loads(make_two_bus_text())
    if section is None:
        doc[key] = value
    elif key is None:
        doc[section][index] = value
    else:
        doc[section][index][key] = value
    with pytest.raises(CaseError) as err:
        parse_case(json.dumps(doc))
    assert err.value.path == path


def test_validate_bundled_is_clean(bundled_case):
    assert validate_case(bundled_case) == []


def test_validate_two_slacks():
    doc = json.loads(make_two_bus_text())
    doc["buses"][1] = {"id": 2, "kind": "slack", "voltage_setpoint": 1.0}
    case = parse_case(json.dumps(doc))
    violations = validate_case(case)
    assert any("slack" in v and "1" in v and "2" in v for v in violations)


def test_validate_zero_droop():
    doc = json.loads(make_two_bus_text())
    doc["governors"][0]["r"] = 0.0
    violations = validate_case(parse_case(json.dumps(doc)))
    assert any("droop" in v for v in violations)


def test_validate_disconnected_network():
    doc = json.loads(make_two_bus_text())
    doc["buses"].append({"id": 3, "kind": "pq"})
    violations = validate_case(parse_case(json.dumps(doc)))
    assert any("connected" in v for v in violations)


def test_round_trip_exact(bundled_case, two_bus_case):
    for case in (bundled_case, two_bus_case):
        assert parse_case(render_case(case)) == case


def _record_types(cls=PowerSystemCase):
    """The case record type and the record types its sections hold."""
    yield cls
    for kind in get_type_hints(cls).values():
        if get_origin(kind) is tuple:
            yield from _record_types(get_args(kind)[0])


def test_every_case_field_has_a_reader():
    """Each field of each case record has a value reader for its declared
    type or is a section of records, so a new field of a type the reader
    lacks fails here rather than being read loosely."""
    types = list(_record_types())
    assert len(types) == 8
    for cls in types:
        for name, kind in get_type_hints(cls).items():
            section = get_origin(kind) is tuple and is_dataclass(get_args(kind)[0])
            assert kind in VALUE_TYPES or section, (cls.__name__, name, kind)


def test_round_trip_with_optional_fields_left_out():
    """A bus without `voltage_setpoint` or `shunt_susceptance`, a branch
    without `in_service` and a case without exciters or PSSs take the record
    defaults, and render back to a document that parses to the same case."""
    doc = json.loads(make_two_bus_text())
    assert set(doc["buses"][1]) == {"id", "kind"}
    assert "in_service" not in doc["branches"][0]
    assert "exciters" not in doc and "psss" not in doc
    case = parse_case(json.dumps(doc))
    assert case.buses[1].voltage_setpoint is None
    assert case.buses[1].shunt_susceptance == 0.0
    assert case.branches[0].in_service is True
    assert case.exciters == () and case.psss == ()
    rendered = json.loads(render_case(case))
    assert "voltage_setpoint" not in rendered["buses"][1]
    assert parse_case(render_case(case)) == case


def test_round_trip_random_values():
    rng = np.random.default_rng(7)
    for _ in range(25):
        doc = json.loads(make_two_bus_text(p_mw=float(1000 * rng.random()),
                                           q_mvar=float(300 * rng.standard_normal()),
                                           x=float(0.01 + rng.random())))
        case = parse_case(json.dumps(doc))
        assert parse_case(render_case(case)) == case


def test_scale_stress_identity(bundled_case):
    assert scale_stress(bundled_case, 1.0) == bundled_case


def test_scale_stress_heavy_loading_values(bundled_case):
    scaled = scale_stress(bundled_case, 1.0558)
    loads = {l.bus: l for l in scaled.loads}
    assert loads[4].p_mw == pytest.approx(1030.4608, abs=1e-9)
    assert loads[14].p_mw == pytest.approx(1855.0406, abs=1e-9)


@pytest.mark.parametrize("fraction", [math.nan, math.inf, -math.inf, 0.0, -0.5])
def test_scale_stress_refuses_a_fraction_not_positive_and_finite(bundled_case, fraction):
    with pytest.raises(CaseError, match="positive and finite"):
        scale_stress(bundled_case, fraction)


def test_scale_stress_arithmetic(bundled_case):
    """Every load's P and Q and every machine's scheduled P scale; nothing else does."""
    scaled = scale_stress(bundled_case, 0.5)
    loads = {l.bus: l for l in scaled.loads}
    assert loads[4].p_mw == pytest.approx(488.0)
    assert loads[14].p_mw == pytest.approx(878.5)
    for before, after in zip(bundled_case.loads, scaled.loads):
        assert after.q_mvar == pytest.approx(0.5 * before.q_mvar)
    for before, after in zip(bundled_case.machines, scaled.machines):
        assert after.p_sched_mw == pytest.approx(0.5 * before.p_sched_mw)
        assert after.v_sched == before.v_sched
    assert scaled.branches == bundled_case.branches


def test_scale_stress_composes(bundled_case):
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b = 0.5 + rng.random(), 0.5 + rng.random()
        once = scale_stress(scale_stress(bundled_case, a), b)
        both = scale_stress(bundled_case, a * b)
        for l1, l2 in zip(once.loads, both.loads):
            assert l1.p_mw == pytest.approx(l2.p_mw, rel=1e-12)
            assert l1.q_mvar == pytest.approx(l2.q_mvar, rel=1e-12)
        for m1, m2 in zip(once.machines, both.machines):
            assert m1.p_sched_mw == pytest.approx(m2.p_sched_mw, rel=1e-12)


def test_scale_stress_nonpositive_fraction(bundled_case):
    for fraction in (0.0, -1.1):
        with pytest.raises(CaseError, match="positive"):
            scale_stress(bundled_case, fraction)


def test_apply_line_trip(bundled_case):
    before = render_case(bundled_case)
    tripped = apply_line_trip(bundled_case, 3, 101, 1)
    in_service = lambda c: sum(1 for b in c.branches if b.in_service)
    assert in_service(tripped) == in_service(bundled_case) - 1
    # value semantics: the input case is untouched
    assert render_case(bundled_case) == before


def test_apply_line_trip_errors(bundled_case):
    with pytest.raises(CaseError, match="not found"):
        apply_line_trip(bundled_case, 3, 101, 9)
    tripped = apply_line_trip(bundled_case, 3, 101, 1)
    with pytest.raises(CaseError, match="already out"):
        apply_line_trip(tripped, 3, 101, 1)


def test_machine_index_is_the_order_of_machines(bundled_case):
    assert bundled_case.machine_index == {m.id: i for i, m in enumerate(bundled_case.machines)}
    assert bundled_case.machine_index is bundled_case.machine_index     # built once


@pytest.mark.parametrize("ka", [0.0, -5.0])
def test_validate_nonpositive_exciter_gain(ka, bundled_text):
    """An exciter gain Ka of zero would put the voltage reference at
    |v| + Efd / Ka = inf; zero and negative gains are refused."""
    doc = json.loads(bundled_text)
    doc["exciters"][1]["ka"] = ka
    violations = validate_case(parse_case(json.dumps(doc)))
    assert violations == [f"exciter on machine {doc['exciters'][1]['machine']}: "
                          "gain Ka must be positive"]
