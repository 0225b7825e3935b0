import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import memory_runs_out_at_link, random_macro_state, random_turning, shifted_grid_doc
from oracle import topology
from netsignal.coordination import build_cg, global_cost
from netsignal.harness import RateSpec, Scenario, network_order, run_experiment
from netsignal.network import (
    Link,
    LinkKind,
    LoadError,
    Movement,
    Phase,
    RoadNetwork,
    build_grid,
    load_network,
    movement_arrays,
    network_from_dict,
    save_network,
    validate,
)
from netsignal.simulation import SimConfig, balance_index, predict_next_queues
from test_nongrid_roadnet import write_roadnet
from test_simulation import one_way_1x2


def test_single_intersection_counts():
    net = build_grid(1, 1, 300, 300, 5)
    assert len(net.intersections) == 1
    assert len(net.entry_links()) == 4
    assert len(net.exit_links()) == 4
    assert len(net.internal_links()) == 0
    assert len(net.movements) == 12


def test_4x4_internal_link_count():
    # grid edges: 2*rows*cols - rows - cols = 24 undirected, doubled
    net = build_grid(4, 4, 300, 300, 5)
    assert len(net.intersections) == 16
    assert len(net.internal_links()) == 48
    assert len(net.entry_links()) == 16
    assert len(net.movements) == 16 * 12


def test_20x20_intersections():
    net = build_grid(20, 20, 300, 300, 5)
    assert len(net.intersections) == 400


@pytest.mark.parametrize(
    "rows, cols, params, digest",
    [
        (1, 1, {}, "b9cdf28be390e7f502b6787b11e9c16d79dedec5473becc1414508fe4eaa7962"),
        (1, 5, {}, "e383bab4cbeee8d116cd718de9f9228b7089e0afbaf6ca610da5a0ea8365f0c0"),
        (5, 1, {}, "696137e97159d31fd05002b5720d15ca0ac848739ec8dc40a5afdca5c3341def"),
        (3, 7, {}, "30672f1e57a5630b081e7521c44293bb17a40ef90b0e2eb177aa56841268fddb"),
        (6, 4, {}, "27bc6bfd55c4ff2e3d0de896205b78e54f0b43fc2a43aff0148d6ffe62cf2587"),
        (
            4,
            3,
            {"h_len": 150, "v_len": 420.5, "sat_flow": 3.5},
            "94782ab9b11bee8bc1a3a5b4786815db341bf8fa97a19637bc965bcac54839fb",
        ),
    ],
)
def test_grid_layout_unchanged(rows, cols, params, digest):
    # `to_dict` sorts movements, so the movement list is hashed in its own
    # order too: it fixes every gather table and every summation order
    net = build_grid(rows, cols, **params)
    layout = hashlib.sha256(json.dumps(net.to_dict(), sort_keys=True).encode())
    movements = [(m.frm, m.to, m.intersection, m.phase, m.sat_flow) for m in net.movements]
    layout.update(json.dumps(movements).encode())
    assert layout.hexdigest() == digest


def test_zero_dimension_rejected():
    with pytest.raises(ValueError):
        build_grid(0, 4)
    with pytest.raises(ValueError):
        build_grid(4, 0)


def test_every_intersection_has_12_movements():
    net = build_grid(3, 2)
    for i in net.intersections:
        moves = topology(net).movements_at[i]
        assert len(moves) == 12
        phased = [m for m in moves if m.phase is not None]
        rights = [m for m in moves if m.phase is None]
        assert len(phased) == 8
        assert len(rights) == 4
        # each phase gates exactly two movements
        for p in Phase:
            assert sum(1 for m in phased if m.phase == p) == 2


def test_neighbor_symmetry_and_boundary():
    net = build_grid(3, 3)
    topo = topology(net)
    for i in net.intersections:
        for j in topo.neighbors[i]:
            assert i in topo.neighbors[j]
    # 3x3: all but the center are boundary
    assert topo.boundary == net.intersections - {4}
    for i in topo.boundary:
        assert any(net.links[l].kind is LinkKind.ENTRY for l in topo.in_links[i])


def test_internal_links_in_both_adjacency_caches():
    net = build_grid(2, 3)
    topo = topology(net)
    for l in net.internal_links():
        link = net.links[l]
        assert l in topo.out_links[link.start]
        assert l in topo.in_links[link.end]


def test_entry_links_have_unique_boundary_intersection():
    net = build_grid(4, 4)
    total = 0
    for i in net.intersections:
        total += sum(1 for l in topology(net).in_links[i] if net.links[l].kind is LinkKind.ENTRY)
    assert total == len(net.entry_links())


def test_up_down_links_consistent():
    net = build_grid(2, 2)
    topo = topology(net)
    for l, downs in topo.down_links.items():
        for h in downs:
            assert net.links[h].start == net.links[l].end
            assert l in topo.up_links[h]
    # a 4-way approach has 3 movement successors (no U-turn)
    for l in net.entry_links():
        assert len(topo.down_links[l]) == 3


ADJACENCY_CASES = [f"{r}x{c}" for r in range(1, 6) for c in range(1, 6)] + ["1x2-one-way", "diagonal"]


@pytest.mark.parametrize("case", ADJACENCY_CASES)
def test_movement_arrays_adjacency_equals_the_link_views(tmp_path, case):
    if case == "1x2-one-way":
        net = one_way_1x2()  # link ids are not link rows here
    elif case == "diagonal":
        net = load_network(write_roadnet(tmp_path / "roadnet.json"))
    else:
        net = build_grid(*map(int, case.split("x")))
    arr = movement_arrays(net)
    topo = topology(net)
    assert arr.edges == tuple((i, j) for i in sorted(topo.neighbors) for j in topo.neighbors[i] if i < j)
    ids = arr.link_ids
    down = [[ids[h] for h in col if h < arr.n_links] for col in arr.down_links.T.tolist()]
    assert down == [topo.down_links[l] for l in ids]
    up = [[ids[l] for l in col if l < arr.n_links] for col in arr.up_links.T.tolist()]
    assert up == [topo.up_links[l] for l in ids]


def test_all_small_grids_validate_clean():
    for rows in range(1, 26):
        for cols in range(1, 26):
            if rows * cols > 80 and (rows, cols) not in ((25, 25), (1, 25), (25, 1)):
                continue
            assert validate(build_grid(rows, cols)) == []


def test_validate_flags_missing_end():
    net = build_grid(2, 2)
    lid = net.internal_links()[0]
    net.links[lid].end = None
    problems = validate(net)
    assert len(problems) == 1
    assert str(lid) in problems[0]


# a network built in code skips `load_network`'s parsing, so `validate` must
# not trust its field types: each value after inf used to pass, or raise in
# `validate`
NOT_FINITE = pytest.mark.parametrize(
    "value", [math.nan, math.inf, 10**400, "300", True], ids=["nan", "inf", "beyond-float", "str", "bool"]
)


@NOT_FINITE
def test_validate_flags_a_length_that_is_not_positive_and_finite(value):
    net = build_grid(2, 2)
    lid = net.internal_links()[1]
    net.links[lid].length_m = value
    assert validate(net) == [f"link {lid}: length must be positive and finite, got {value!r}"]


@NOT_FINITE
def test_validate_flags_a_speed_that_is_not_positive_and_finite(value):
    net = build_grid(2, 2)
    lid = net.exit_links()[0]
    net.links[lid].speed_mps = value
    assert validate(net) == [f"link {lid}: speed must be positive and finite, got {value!r}"]


@NOT_FINITE
def test_validate_flags_a_saturation_flow_that_is_not_finite(value):
    net = build_grid(2, 2)
    m = net.movements[5]
    m.sat_flow = value
    message = f"movement ({m.frm}->{m.to}): saturation flow must be finite and >= 0, got {value!r}"
    assert validate(net) == [message]


@pytest.mark.parametrize("value", [7, -1, 1.5, True, "1"], ids=["7", "-1", "fraction", "bool", "str"])
def test_validate_flags_a_phase_outside_the_four(value):
    # phase 7 would never be served and 1.5 would run as phase 1
    net = build_grid(2, 2)
    m = next(m for m in net.movements if m.phase is not None)
    m.phase = value
    message = f"movement ({m.frm}->{m.to}): phase must be None or an integer in 0..3, got {value!r}"
    assert validate(net) == [message]


def test_validate_accepts_a_phase_given_as_a_plain_integer():
    net = build_grid(2, 2)
    for m in net.movements:
        m.phase = None if m.phase is None else int(m.phase)
    assert validate(net) == []
    m = next(m for m in net.movements if m.phase == Phase.WE_STRAIGHT)
    m.phase = int(Phase.WE_LEFT)
    assert any("phase WE_LEFT already used" in p for p in validate(net))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"h_len": math.nan},
        {"v_len": math.inf},
        {"sat_flow": math.nan},
        {"sat_flow": math.inf},
        {"sat_flow": -1.0},
        {"rows": 2.5},
        {"cols": True},
        {"h_len": "300"},
        {"sat_flow": "1800"},
    ],
    ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()),
)
def test_build_grid_rejects_values_that_are_not_finite(kwargs):
    with pytest.raises(ValueError, match="must be"):
        build_grid(**{"rows": 2, "cols": 2, **kwargs})


def test_build_grid_names_a_grid_that_does_not_fit_in_memory(monkeypatch):
    memory_runs_out_at_link(monkeypatch, 5)
    with pytest.raises(ValueError, match=re.escape("a 3x4 grid is 12 intersections, more than fit in memory")):
        build_grid(3, 4)


def test_validate_flags_phase_geometry_conflict():
    net = build_grid(2, 2)
    moved = next(m for m in net.movements if m.phase == Phase.WE_STRAIGHT)
    moved.phase = Phase.SN_STRAIGHT
    problems = validate(net)
    assert problems
    assert any("conflicting turn geometry" in p for p in problems)


def test_validate_flags_duplicate_phase_on_link():
    net = build_grid(2, 2)
    moved = next(m for m in net.movements if m.phase == Phase.WE_STRAIGHT)
    moved.phase = Phase.WE_LEFT
    assert any("already used" in p for p in validate(net))


def test_validate_flags_disconnected():
    a = Link(0, LinkKind.INTERNAL, 0, 1, 100.0)
    b = Link(1, LinkKind.INTERNAL, 1, 0, 100.0)
    net = RoadNetwork([0, 1, 2], [a, b], [])
    assert "intersection graph disconnected, unreachable: [2]" in validate(net)


def test_validate_flags_intersection_ids_outside_int64(tmp_path):
    # the last id that fits is 2**63 - 1; the ids reach numpy in the planner
    assert validate(network_from_dict(shifted_grid_doc(2, 2, 2**63 - 4))) == []
    over = network_from_dict(shifted_grid_doc(2, 2, 2**63 - 3))
    assert validate(over) == [f"intersection {2**63}: id is outside the int64 range"]
    under = network_from_dict(shifted_grid_doc(2, 2, -(2**63) - 2))
    assert validate(under) == [
        f"intersection {-(2**63) - 2}: id is outside the int64 range",
        f"intersection {-(2**63) - 1}: id is outside the int64 range",
    ]
    path = tmp_path / "roadnet.json"
    path.write_text(json.dumps(shifted_grid_doc(2, 2, 10**20)))
    with pytest.raises(LoadError, match=f"intersection {10**20}: id is outside the int64 range"):
        load_network(str(path))


def test_roundtrip_identity(tmp_path):
    net = build_grid(3, 4, 250, 400, 6)
    path = tmp_path / "grid.json"
    save_network(net, str(path))
    reloaded = load_network(str(path))
    assert reloaded.to_dict() == net.to_dict()


def test_load_empty_file_is_error(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    with pytest.raises(LoadError):
        load_network(str(path))


def test_load_invalid_network_names_entity(tmp_path):
    doc = {
        "intersections": [{"id": 0, "x": 0, "y": 0}],
        "links": [{"id": 7, "kind": "internal", "start": 0, "length_m": 100, "speed_mps": 10}],
        "movements": [],
    }
    path = tmp_path / "bad.json"
    path.write_text(__import__("json").dumps(doc))
    with pytest.raises(LoadError, match="link 7"):
        load_network(str(path))


def test_load_two_intersection_network(tmp_path):
    # entry l1 into i, internal l2 from i to j, exit l3 at i, exit l4 at j
    doc = {
        "intersections": [{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": 300, "y": 0}],
        "links": [
            {"id": 1, "kind": "entry", "end": 0, "length_m": 300, "speed_mps": 10},
            {"id": 2, "kind": "internal", "start": 0, "end": 1, "length_m": 300, "speed_mps": 10},
            {"id": 3, "kind": "exit", "start": 0, "length_m": 300, "speed_mps": 10},
            {"id": 4, "kind": "exit", "start": 1, "length_m": 300, "speed_mps": 10},
        ],
        "movements": [
            {"from": 1, "to": 2, "intersection": 0, "phase": 0, "sat_flow": 5},
            {"from": 1, "to": 3, "intersection": 0, "phase": 1, "sat_flow": 5},
            {"from": 2, "to": 4, "intersection": 1, "phase": 0, "sat_flow": 5},
        ],
    }
    path = tmp_path / "two.json"
    path.write_text(__import__("json").dumps(doc))
    net = load_network(str(path))
    assert net.links[1].kind is LinkKind.ENTRY
    assert net.links[2].kind is LinkKind.INTERNAL
    assert net.links[3].kind is LinkKind.EXIT
    assert topology(net).boundary == {0}
    assert topology(net).neighbors[0] == [1]


def test_network_from_dict_rejects_bad_phase():
    doc = {
        "intersections": [{"id": 0}],
        "links": [{"id": 1, "kind": "entry", "end": 0, "length_m": 10}],
        "movements": [{"from": 1, "to": 1, "intersection": 0, "phase": 9, "sat_flow": 1}],
    }
    # the loader passes the phase on as the document holds it; the gate
    # names it
    with pytest.raises(LoadError) as caught:
        movement_arrays(network_from_dict(doc))
    assert "movement (1->1): phase must be None or an integer in 0..3, got 9" in caught.value.violations


def _first(doc, section, kind=None):
    return next(d for d in doc[section] if kind is None or d.get("kind") == kind)


def _drop_length(doc):
    link = _first(doc, "links")
    del link["length_m"]
    return f"link {link['id']}: missing length_m"


def _text_length(doc):
    link = _first(doc, "links")
    link["length_m"] = "long"
    return f"link {link['id']}: length must be positive and finite, got 'long'"


def _numeric_text_length(doc):
    link = _first(doc, "links")
    link["length_m"] = "300"
    return f"link {link['id']}: length must be positive and finite, got '300'"


def _bool_sat_flow(doc):
    m = doc["movements"][5]
    m["sat_flow"] = True
    return rf"movement \({m['from']}->{m['to']}\): saturation flow must be finite and >= 0, got True"


def _bool_coordinate(doc):
    doc["intersections"][1]["x"] = False
    return f"intersection {doc['intersections'][1]['id']}: invalid x False"


def _fractional_id(doc):
    m = doc["movements"][0]
    m["from"] += 0.7
    return rf"movements\[0\]: invalid from {m['from']}"


def _null_intersection(doc):
    doc["intersections"][2] = None
    return r"intersections\[2\]: expected an object, got null"


def _phase(value):
    """A corruption that sets the first phased movement's phase to `value`."""

    def corrupt(doc):
        m = next(m for m in doc["movements"] if m.get("phase") is not None)
        m["phase"] = value
        return rf"movement \({m['from']}->{m['to']}\): phase must be None or an integer in 0\.\.3, got {value!r}"

    corrupt.__name__ = f"_phase_{value}"
    return corrupt


def _nan_speed(doc):
    link = _first(doc, "links", "internal")
    link["speed_mps"] = float("nan")
    return f"link {link['id']}: speed must be positive and finite, got nan"


def _infinite_length(doc):
    link = _first(doc, "links", "exit")
    link["length_m"] = float("inf")
    return f"link {link['id']}: length must be positive and finite, got inf"


def _nan_sat_flow(doc):
    m = doc["movements"][5]
    m["sat_flow"] = float("nan")
    return rf"movement \({m['from']}->{m['to']}\): saturation flow must be finite and >= 0, got nan"


def _missing_section(doc):
    del doc["movements"]
    return "roadnet document missing section: 'movements'"


def _section_not_list(doc):
    doc["links"] = {}
    return "roadnet section 'links' must be a list"


def _missing_link_id(doc):
    del doc["links"][0]["id"]
    return r"links\[0\]: missing id"


def _infinite_coordinate(doc):
    doc["intersections"][0]["x"] = float("inf")
    return f"intersection {doc['intersections'][0]['id']}: x must be finite, got inf"


def _unknown_kind(doc):
    doc["links"][0]["kind"] = "road"
    return f"link {doc['links'][0]['id']}: unknown kind 'road'"


def _duplicate_link(doc):
    doc["links"].append(dict(doc["links"][3]))
    return f"link {doc['links'][3]['id']}: duplicate link id"


def _duplicate_intersection(doc):
    doc["intersections"].append({"id": 1, "x": 9.0, "y": 9.0})
    return "intersection 1: duplicate intersection id"


def _no_movements(doc):
    doc["movements"] = [m for m in doc["movements"] if m["intersection"] != 3]
    return "intersection 3: no movements"


def _self_loop(doc):
    link = dict(_first(doc, "links", "internal"), id=max(l["id"] for l in doc["links"]) + 1)
    link["end"] = link["start"]
    doc["links"].append(link)
    return f"link {link['id']}: internal link starts and ends at intersection {link['start']}"


@pytest.mark.parametrize(
    "corrupt",
    [
        _drop_length,
        _text_length,
        _numeric_text_length,
        _bool_sat_flow,
        _bool_coordinate,
        _fractional_id,
        _null_intersection,
        _phase(2.9),
        _phase(True),
        _phase(float("inf")),
        _nan_speed,
        _infinite_length,
        _nan_sat_flow,
        _duplicate_link,
        _duplicate_intersection,
        _no_movements,
        _self_loop,
        _missing_section,
        _section_not_list,
        _missing_link_id,
        _infinite_coordinate,
        _unknown_kind,
    ],
    ids=lambda f: f.__name__.strip("_"),
)
def test_load_rejects_bad_entry_by_name(tmp_path, corrupt):
    doc = build_grid(2, 2).to_dict()
    message = corrupt(doc)
    path = tmp_path / "roadnet.json"
    path.write_text(__import__("json").dumps(doc))
    with pytest.raises(LoadError, match=message):
        load_network(str(path))


@pytest.mark.parametrize("text", ["[]", "null", "3", '"x"'])
def test_load_rejects_a_document_that_is_no_object(tmp_path, text):
    # the loader used to index such a document and report Python's error text
    path = tmp_path / "roadnet.json"
    path.write_text(text)
    with pytest.raises(LoadError, match=re.escape(f"roadnet document must be an object, got {text}")):
        load_network(str(path))


def test_load_names_every_bad_value_at_once(tmp_path):
    # the loader used to judge values itself and stop at the first bad one
    doc = build_grid(2, 2).to_dict()
    first, second = doc["links"][0], doc["links"][5]
    first["length_m"], second["length_m"] = -1, "long"
    m = next(m for m in doc["movements"] if "phase" in m)
    m["phase"] = 9
    path = tmp_path / "roadnet.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(LoadError) as caught:
        load_network(str(path))
    assert caught.value.violations == [
        f"link {first['id']}: length must be positive and finite, got -1",
        f"link {second['id']}: length must be positive and finite, got 'long'",
        f"movement ({m['from']}->{m['to']}): phase must be None or an integer in 0..3, got 9",
    ]


# Each case is a network that breaks one rule of `validate`, built in code,
# and the violations it names. A network built in code never passes through
# `load_network`; before `MovementArrays` checked every rule, each of these
# reached the kernels: max-pressure and emc ran the negative and NaN
# saturation flows, the duplicate and misplaced movements, the mixed axes
# and the negative length to the end, phase 7 added a movement's pressure to
# the next agent's phase 3, a self-loop never finished the orientation, and
# a link off the intersections ended emc in a raw IndexError.


def _sat_flow(value):
    net = build_grid(2, 2)
    m = net.movements[5]
    m.sat_flow = value
    return net, [f"movement ({m.frm}->{m.to}): saturation flow must be finite and >= 0, got {value!r}"]


def _duplicate_movement():
    net = build_grid(2, 2)
    m = next(m for m in net.movements if m.phase is None)
    net.movements.append(Movement(m.frm, m.to, m.intersection, None, m.sat_flow))
    return net, [f"movement ({m.frm}->{m.to}): duplicate movement"]


def _duplicate_on_a_missing_link():
    # a movement on a missing link is named for that link alone: the gate
    # used to number the missing id and name the copy a duplicate too
    net = build_grid(1, 1)
    del net.links[0]
    m = next(m for m in net.movements if m.key == (0, 5))
    net.movements.append(Movement(m.frm, m.to, m.intersection, m.phase, m.sat_flow))
    return net, [
        f"movement ({x.frm}->{x.to}): source is not an input link of intersection 0"
        for x in net.movements
        if x.frm == 0
    ]


def _wrong_intersection():
    net = build_grid(2, 2)
    m = net.movements[0]
    m.intersection = other = (m.intersection + 1) % 4
    return net, [
        f"movement ({m.frm}->{m.to}): source is not an input link of intersection {other}",
        f"movement ({m.frm}->{m.to}): target is not an output link of intersection {other}",
    ]


def _phase_mix():
    net = build_grid(2, 2)
    m = next(m for m in net.movements if m.phase == Phase.WE_STRAIGHT)
    m.phase = Phase.SN_STRAIGHT
    message = f"intersection {m.intersection}, link {m.frm}: movements mix WE and SN phases, conflicting turn geometry"
    return net, [message]


def _duplicate_phase():
    net = build_grid(2, 2)
    m = next(m for m in net.movements if m.phase == Phase.WE_STRAIGHT)
    m.phase = Phase.WE_LEFT
    later = next(x for x in net.movements if x.frm == m.frm and x.phase == Phase.WE_LEFT and x is not m)
    return net, [f"movement ({later.frm}->{later.to}): phase WE_LEFT already used by another movement on link {m.frm}"]


def _link_field(field, value):
    net = build_grid(2, 2)
    lid = net.internal_links()[1]
    setattr(net.links[lid], field, value)
    name = {"length_m": "length", "speed_mps": "speed"}[field]
    return net, [f"link {lid}: {name} must be positive and finite, got {value!r}"]


def _idle_intersection():
    net = build_grid(2, 2)
    net.movements = [m for m in net.movements if m.intersection != 3]
    return net, ["intersection 3: no movements"]


def _disconnected():
    net = build_grid(2, 2)
    net.intersections.add(99)
    net.links[90] = Link(90, LinkKind.ENTRY, None, 99, 100.0)
    net.links[91] = Link(91, LinkKind.EXIT, 99, None, 100.0)
    net.movements.append(Movement(90, 91, 99, None, 3.0))
    return net, ["intersection graph disconnected, unreachable: [99]"]


def _id_outside_int64():
    net = network_from_dict(shifted_grid_doc(2, 2, 2**63 - 3))
    return net, [f"intersection {2**63}: id is outside the int64 range"]


def _self_loop_link():
    # the orientation's longest-path search would never finish on a (0, 0)
    # edge
    net = build_grid(1, 2)
    loop = Link(14, LinkKind.INTERNAL, 0, 0, 100.0, 10.0)
    net = RoadNetwork(net.intersections, [*net.links.values(), loop], net.movements)
    return net, ["link 14: internal link starts and ends at intersection 0"]


def _stray_link(start, end):
    net = build_grid(1, 2)
    stray = Link(99, LinkKind.INTERNAL, start, end, 300.0)
    net = RoadNetwork(net.intersections, [*net.links.values(), stray], net.movements)
    return net, [f"link 99: internal link missing valid {'start' if start not in (0, 1) else 'end'} intersection"]


def _bad_phase(agent, phase):
    net = build_grid(2, 2)
    m = next(m for m in net.movements if m.intersection == agent and m.phase is not None)
    m.phase = phase
    return net, [f"movement ({m.frm}->{m.to}): phase must be None or an integer in 0..3, got {phase!r}"]


def _kind_name():
    # the link's terms used to land in no cost table: on 3x3 `global_cost`
    # read 1.0 below the predicted balance, and emc ran to the end
    net = build_grid(3, 3)
    lid = net.internal_links()[0]
    net.links[lid].kind = "internal"
    return net, [f"link {lid}: kind must be a LinkKind, got 'internal'"]


def _text_intersection():
    # sorting the ids used to raise a raw TypeError
    net = build_grid(2, 2)
    net.intersections.add("x")
    return net, ["intersection 'x': id must be an integer"]


def _text_link():
    net = build_grid(2, 2)
    net.links["s"] = Link("s", LinkKind.ENTRY, None, 0, 100.0)
    return net, ["link 's': id must be an integer"]


def _fractional_intersection():
    # max-pressure used to run this to the end, and emc's orientation
    # truncated 0.5 onto agent 0
    net = build_grid(2, 2)
    net.intersections = {0, 1, 2, 0.5}
    net.coords[0.5] = net.coords.pop(3)
    for link in net.links.values():
        link.start, link.end = (0.5 if end == 3 else end for end in (link.start, link.end))
    for m in net.movements:
        m.intersection = 0.5 if m.intersection == 3 else m.intersection
    return net, ["intersection 0.5: id must be an integer"]


def _unhashable(field):
    # a list does not hash: looking it up used to raise a raw TypeError
    net = build_grid(2, 2)
    link, m = net.links[0], net.movements[0]
    messages = {
        "kind": "link 0: kind must be a LinkKind, got [0]",
        "start": "link 0: internal link missing valid start intersection",
        "intersection": f"movement ({m.frm}->{m.to}): unknown intersection [0]",
        "frm": f"movement ([0]->{m.to}): source is not an input link of intersection {m.intersection}",
    }
    setattr(link if field in ("kind", "start") else m, field, [0])
    return net, [messages[field]]


GATE_CASES = [
    pytest.param(_sat_flow, (-3,), id="sat-flow--3"),
    pytest.param(_sat_flow, (math.nan,), id="sat-flow-nan"),
    pytest.param(_duplicate_movement, (), id="duplicate-movement"),
    pytest.param(_duplicate_on_a_missing_link, (), id="duplicate-on-a-missing-link"),
    pytest.param(_wrong_intersection, (), id="wrong-intersection"),
    pytest.param(_phase_mix, (), id="phase-mix"),
    pytest.param(_link_field, ("length_m", -5), id="length--5"),
    pytest.param(_duplicate_phase, (), id="duplicate-phase"),
    pytest.param(_link_field, ("speed_mps", 0.0), id="speed-0"),
    pytest.param(_idle_intersection, (), id="no-movements"),
    pytest.param(_disconnected, (), id="disconnected"),
    pytest.param(_id_outside_int64, (), id="id-outside-int64"),
    pytest.param(_self_loop_link, (), id="self-loop"),
    pytest.param(_kind_name, (), id="kind-name"),
    pytest.param(_text_intersection, (), id="text-intersection-id"),
    pytest.param(_text_link, (), id="text-link-id"),
    pytest.param(_fractional_intersection, (), id="fractional-intersection-id"),
    pytest.param(_unhashable, ("kind",), id="list-kind"),
    pytest.param(_unhashable, ("start",), id="list-start"),
    pytest.param(_unhashable, ("intersection",), id="list-intersection"),
    pytest.param(_unhashable, ("frm",), id="list-frm"),
    *(
        pytest.param(_bad_phase, (agent, phase), id=f"phase-{where}-{name}")
        for agent, where in [(0, "first"), (3, "last")]
        for phase, name in [(7, "7"), (-1, "-1"), (1.5, "fraction"), (True, "bool"), ("1", "str")]
    ),
]


def _assert_gate_refuses(net, messages, controllers=("maxpressure", "emc")):
    assert validate(net) == messages
    assert sorted(oracle.validate(net)) == sorted(messages)
    with pytest.raises(LoadError, match=re.escape(messages[0])) as caught:
        movement_arrays(net)
    assert caught.value.violations == messages
    with pytest.raises(LoadError, match=re.escape(messages[-1])):
        network_order(net)
    for controller in controllers:
        scenario = Scenario(net, RateSpec(0.3, 100.0, 1), SimConfig(horizon=10), controller)
        with pytest.raises(LoadError, match=re.escape(messages[0])) as caught:
            run_experiment(scenario)
        assert caught.value.violations == messages


@pytest.mark.parametrize("case, args", GATE_CASES)
def test_the_gate_refuses_each_rule_of_validate(case, args):
    _assert_gate_refuses(*case(*args))


@pytest.mark.parametrize("ends", [(0, 1000), (1000, 0), (None, 1), (0, None)], ids=["end", "start", "no-start", "no-end"])
@pytest.mark.parametrize("controller", ["maxpressure", "emc"])
def test_runs_reject_an_internal_link_off_the_intersections(ends, controller):
    # a network built in code skips `validate`: there max-pressure ran such
    # a network to the end and emc failed with a raw IndexError from the
    # orientation's gather tables
    _assert_gate_refuses(*_stray_link(*ends), controllers=(controller,))


def test_a_loaded_network_edited_before_its_first_run_is_checked_as_it_stands(tmp_path):
    # `load_network` used to cache the arrays it validated, so a loaded
    # network edited before its first run ran 40 periods of max-pressure and
    # emc on the arrays of the file as saved
    path = tmp_path / "roadnet.json"
    save_network(build_grid(2, 2), str(path))
    net = load_network(str(path))
    m = net.movements[5]
    m.sat_flow = -3
    _assert_gate_refuses(net, [f"movement ({m.frm}->{m.to}): saturation flow must be finite and >= 0, got -3"])


def test_movement_arrays_take_plain_integer_phases():
    net = build_grid(2, 2)
    for m in net.movements:
        m.phase = None if m.phase is None else int(m.phase)
    assert movement_arrays(net).mov_phase.tolist() == movement_arrays(build_grid(2, 2)).mov_phase.tolist()


# values of the numeric fields, bad ones (a string, a bool or an int beyond
# float range is no number) with a good one among them
NUMBERS = [-5, 0, 0.0, math.nan, math.inf, -math.inf, "300", True, 10**400, 2.5]
PHASE_VALUES = [None, 7, -1, 1.5, True, "1", 2, *Phase]


def _corrupt(net, data):
    """Apply one corruption drawn from `data` to `net` in place."""
    ids, links = sorted(net.intersections), sorted(net.links)
    pick = lambda values: data.draw(st.sampled_from(values))
    m = pick(net.movements) if net.movements else None
    kind = pick(["link-number", "link-end", "link-kind", "drop-link", "self-loop", "sat-flow", "phase"]
                + ["intersection", "movement-link", "duplicate", "drop-movement", "idle", "new-intersection"])
    if kind == "link-number":
        setattr(net.links[pick(links)], pick(["length_m", "speed_mps"]), pick(NUMBERS))
    elif kind == "link-end":
        setattr(net.links[pick(links)], pick(["start", "end"]), pick([None, 999, pick(ids)]))
    elif kind == "link-kind":
        net.links[pick(links)].kind = pick([*LinkKind, "internal"])
    elif kind == "drop-link":
        del net.links[pick(links)]
    elif kind == "self-loop":
        i = pick(ids)
        net.links[max(links) + 1] = Link(max(links) + 1, LinkKind.INTERNAL, i, i, 100.0)
    elif kind == "new-intersection":
        net.intersections.add(pick([99, 2**63, -(2**63) - 1]))
    elif kind == "idle":
        gone = pick(ids)
        net.movements = [x for x in net.movements if x.intersection != gone]
    elif m is None:
        return
    elif kind == "sat-flow":
        m.sat_flow = pick(NUMBERS)
    elif kind == "phase":
        m.phase = pick(PHASE_VALUES)
    elif kind == "intersection":
        m.intersection = pick([999, pick(ids)])
    elif kind == "movement-link":
        setattr(m, pick(["frm", "to"]), pick([998, 999, *links]))
    elif kind == "duplicate":
        net.movements.append(Movement(m.frm, m.to, m.intersection, pick(PHASE_VALUES), m.sat_flow))
    else:
        net.movements.remove(m)


def _corrupted(tmp_path_factory, shape, count, data):
    """A 1x1-2x3 grid, or the non-grid roadnet for `shape` None, with `count`
    corruptions drawn from `data`."""
    if shape is None:
        doc = json.loads(open(write_roadnet(tmp_path_factory.mktemp("roadnet") / "roadnet.json")).read())
        net = network_from_dict(doc)
    else:
        net = build_grid(*shape)
    for _ in range(count):
        _corrupt(net, data)
    return net


SHAPES = st.sampled_from([(1, 1), (1, 2), (2, 2), (2, 3), None])


@settings(max_examples=500)
@given(shape=SHAPES, count=st.integers(1, 3), data=st.data())
def test_the_gate_names_what_the_reference_validator_names(tmp_path_factory, shape, count, data):
    net = _corrupted(tmp_path_factory, shape, count, data)
    expected = oracle.validate(net)
    problems = validate(net)
    assert sorted(problems) == sorted(expected)
    if len(expected) == 1:
        assert problems == expected
    if expected:
        with pytest.raises(LoadError) as caught:
            movement_arrays(net)
        assert caught.value.violations == problems
    else:
        assert movement_arrays(net).n_mov == len(net.movements)


@settings(max_examples=500)
@given(shape=SHAPES, count=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_costs_decompose_exactly_on_every_network_the_gate_accepts(tmp_path_factory, shape, count, seed, data):
    # criterion 1's check, on every corrupted network `validate` accepts: a
    # link of no `LinkKind` used to pass, and its terms landed in no table
    net = _corrupted(tmp_path_factory, shape, count, data)
    if validate(net):
        return
    rng = np.random.default_rng(seed)
    state, turning = random_macro_state(net, rng), random_turning(net, rng)
    x = {i: Phase(int(rng.integers(4))) for i in sorted(net.intersections)}
    expected = balance_index(predict_next_queues(state, x, net, turning))
    got = global_cost(build_cg(state, net, turning), x)
    assert abs(got - expected) <= 1e-6 * max(abs(expected), 1.0)
