import hashlib
import json
import math
import re

import pytest

from conftest import shifted_grid_doc
from oracle import topology
from netsignal.harness import network_order
from netsignal.network import (
    Link,
    LinkKind,
    LoadError,
    Phase,
    RoadNetwork,
    build_grid,
    load_network,
    movement_arrays,
    network_from_dict,
    save_network,
    validate,
)
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
    with pytest.raises(LoadError):
        network_from_dict(doc)


def _first(doc, section, kind=None):
    return next(d for d in doc[section] if kind is None or d.get("kind") == kind)


def _drop_length(doc):
    link = _first(doc, "links")
    del link["length_m"]
    return f"link {link['id']}: missing length_m"


def _text_length(doc):
    link = _first(doc, "links")
    link["length_m"] = "long"
    return f"link {link['id']}: invalid length_m 'long'"


def _numeric_text_length(doc):
    link = _first(doc, "links")
    link["length_m"] = "300"
    return f"link {link['id']}: invalid length_m '300'"


def _bool_sat_flow(doc):
    m = doc["movements"][5]
    m["sat_flow"] = True
    return rf"movement \({m['from']}->{m['to']}\): invalid sat_flow True"


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
        return rf"movement \({m['from']}->{m['to']}\): invalid phase value {value!r}"

    corrupt.__name__ = f"_phase_{value}"
    return corrupt


def _nan_speed(doc):
    link = _first(doc, "links", "internal")
    link["speed_mps"] = float("nan")
    return f"link {link['id']}: speed_mps must be finite"


def _infinite_length(doc):
    link = _first(doc, "links", "exit")
    link["length_m"] = float("inf")
    return f"link {link['id']}: length_m must be finite"


def _nan_sat_flow(doc):
    m = doc["movements"][5]
    m["sat_flow"] = float("nan")
    return rf"movement \({m['from']}->{m['to']}\): sat_flow must be finite"


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


def test_movement_arrays_reject_a_self_loop_built_in_code():
    # only `load_network` runs `validate`; a network built in code reaches
    # the orientation through `MovementArrays`, whose longest-path search
    # would never finish on a (0, 0) edge
    net = build_grid(1, 2)
    loop = Link(14, LinkKind.INTERNAL, 0, 0, 100.0, 10.0)
    net = RoadNetwork(net.intersections, [*net.links.values(), loop], net.movements)
    message = "link 14: internal link starts and ends at intersection 0"
    assert validate(net) == [message]
    with pytest.raises(ValueError, match=message):
        movement_arrays(net)
    with pytest.raises(ValueError, match=message):
        network_order(net)


@pytest.mark.parametrize("phase", [7, -1, 1.5, True, "1"], ids=["7", "-1", "fraction", "bool", "str"])
@pytest.mark.parametrize("agent", [0, 3], ids=["first", "last"])
def test_movement_arrays_reject_a_phase_that_validate_rejects(agent, phase):
    # a network built in code skips `validate`: there phase 7 added the
    # movement's pressure to the next agent's phase 3, or indexed past the
    # last agent's phases, and phase -1 ran as a right turn
    net = build_grid(2, 2)
    m = next(m for m in net.movements if m.intersection == agent and m.phase is not None)
    m.phase = phase
    message = f"movement ({m.frm}->{m.to}): phase must be None or an integer in 0..3, got {phase!r}"
    assert validate(net) == [message]
    with pytest.raises(ValueError, match=re.escape(message)):
        movement_arrays(net)


def test_movement_arrays_take_plain_integer_phases():
    net = build_grid(2, 2)
    for m in net.movements:
        m.phase = None if m.phase is None else int(m.phase)
    assert movement_arrays(net).mov_phase.tolist() == movement_arrays(build_grid(2, 2)).mov_phase.tolist()
