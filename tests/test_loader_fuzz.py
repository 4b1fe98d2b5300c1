"""Property tests of the scenario loader: whatever a scenario dict holds,
``load_scenario`` either returns a spec or raises ConfigError, and it copies
a dict exactly as ``json.loads(json.dumps(d))`` would, or refuses it with
json's own words.  The first test's dicts are the shipped presets with a
few random edits (a value replaced, a key deleted or added), anywhere in the
tree.  The runs are derandomized, so they check the same examples on every
run, and they keep no example database."""

import collections
import enum
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from optcons import scenarios
from optcons.errors import ConfigError

PRESETS = {}
for _name in scenarios.list_presets():
    with open(scenarios.preset_path(_name)) as _fh:
        PRESETS[_name] = json.load(_fh)

# Values a config might plausibly (or implausibly) hold: the presets' own
# words and numbers, edge cases of JSON numbers, and nested containers.
LEAVES = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-3, max_value=10),
    st.sampled_from([10**30, -(10**30), 10**400, 0.5, -1.0, 1e-300, 1e308]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["default", "unicycle", "linear", "linear_sine", "leader_sine",
                     "unicycle_drift", "msa", "ocp", "sum", "diag", "x", ""]),
)
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.sampled_from(["type", "A", "B", "n", "1",
                                                             "default", "x"]),
                                            inner, max_size=3)),
    max_leaves=8)


@st.composite
def edited_presets(draw):
    raw = json.loads(json.dumps(PRESETS[draw(st.sampled_from(sorted(PRESETS)))]))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        node = raw
        while True:
            key = draw(st.sampled_from(list(node) if isinstance(node, dict)
                                       else list(range(len(node)))))
            child = node[key]
            if not (isinstance(child, (dict, list)) and child and draw(st.booleans())):
                break
            node = child
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "replace":
            node[key] = draw(VALUES)
        elif action == "delete":
            del node[key]
        elif isinstance(node, dict):
            node[draw(st.sampled_from(["x", "n", "default", "5", "0", "type"]))] = draw(VALUES)
        else:
            node.append(draw(VALUES))
        if not raw:
            break
    return raw


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(edited_presets())
def test_only_config_errors_escape_the_loader(raw):
    try:
        scenarios.load_scenario(raw)
    except ConfigError:
        pass


class Level(enum.IntEnum):
    LOW = 1


class Label(str):
    pass


class Weight(float):
    pass


# JSON's own values, which the walk copies alone, and what only json copies
# exactly or refuses: subclasses of int, str and float, non-finite numbers,
# integers beyond float range (and one too long for str), text that json
# escapes, a surrogate pair that its escapes join, tuples, other types, and
# keys that json writes as text, so that they may collide.
JSON = st.one_of(st.none(), st.booleans(), st.integers(-10**6, 10**6),
                 st.floats(allow_nan=False, allow_infinity=False),
                 st.text("abcxyz019 _-", max_size=4))
ODD_VALUES = [10**400, -(10**400), 2**1024, 10**5000, -0.0, math.inf, -math.inf, math.nan,
              "é", "\ud83d\ude00", "\ud800", "\x00\n\"", Level.LOW, Label("x"), Weight(2.5),
              Weight(math.nan), np.float64(0.1), np.float64(-math.inf), np.int64(1),
              np.array([1.0]), {1, 2}, object(), (1.0, [2]), [(), {}],
              collections.OrderedDict(b=1.0, a=[2])]
ODD_KEYS = ["1", "true", "null", "1.0", "NaN", "Infinity", "-Infinity", "é", "\ud83d\ude00",
            Label("1"), Level.LOW, np.float64(1.0), (1, 2), None, True, False, 1, -2, 0.5,
            -0.0, math.nan, math.inf]
ODD = st.one_of(st.integers(min_value=2**1024),
                st.floats().filter(lambda x: not math.isfinite(x)),
                st.text(max_size=4).filter(lambda text: not text.isascii()),
                st.integers(0, len(ODD_VALUES) - 1).map(lambda i: ODD_VALUES[i]))
KEYS = st.text("abcxyz019", max_size=3)
ANY_KEYS = KEYS | st.sampled_from(ODD_KEYS) | st.floats()


def documents(leaves, keys):
    return st.recursive(
        leaves, lambda inner: st.one_of(st.lists(inner, max_size=4),
                                        st.lists(inner, max_size=3).map(tuple),
                                        st.dictionaries(keys, inner, max_size=4)),
        max_leaves=12)


@st.composite
def planted(draw):
    """A JSON document with one odd value or key put in, anywhere."""
    raw = draw(st.dictionaries(KEYS, documents(JSON, KEYS), min_size=1, max_size=4))
    node = raw
    while True:
        key = draw(st.sampled_from(list(node) if isinstance(node, dict)
                                   else list(range(len(node)))))
        if not (isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans())):
            break
        node = node[key]
    if isinstance(node, dict) and draw(st.booleans()):
        node[draw(st.sampled_from(ODD_KEYS))] = draw(JSON)
    else:
        node[key] = draw(ODD)
    return raw


def outcome(call):
    """What a copy gives: its JSON text and every node's type, or the error."""
    try:
        value = call()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)

    def types(node):
        if isinstance(node, dict):
            return dict, [(type(k), k, types(v)) for k, v in node.items()]
        if isinstance(node, list):
            return list, [types(v) for v in node]
        return type(node), repr(node)
    return json.dumps(value), types(value)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(planted() | st.dictionaries(ANY_KEYS, documents(JSON | ODD, ANY_KEYS), max_size=5))
def test_dict_copy_is_jsons_own(raw):
    # The copy, or the refusal, of json's text round trip; a copy that the
    # walk made alone holds only finite numbers.
    assert outcome(lambda: scenarios._json_copy(raw)[0]) == outcome(
        lambda: json.loads(json.dumps(raw)))
    try:
        copy, plain = scenarios._json_copy(raw)
    except (TypeError, ValueError):
        return
    problems = []
    scenarios._non_finite(copy, "", problems)
    assert not (plain and problems)


def put(raw, where, odd, as_key):
    """raw with odd put in at the path where: as a key, an item of a list or
    a new member."""
    node = raw
    for step in where:
        node = node[step]
    if as_key:
        node[odd] = 1.0
    elif isinstance(node, list):
        node.insert(1, odd)
    else:
        node["odd"] = odd
    return raw


@pytest.mark.parametrize("as_key, odd", [(False, odd) for odd in ODD_VALUES]
                         + [(True, key) for key in ODD_KEYS],
                         ids=[f"value{i}" for i in range(len(ODD_VALUES))]
                         + [f"key{i}" for i in range(len(ODD_KEYS))])
def test_each_odd_value_and_key_is_copied_as_json_copies_it(as_key, odd):
    # At the top, in a nested object and in a list of a preset: the copy or
    # the refusal of json's text round trip, and the loader says the same.
    for where in ([], ["cost"], ["initial_states", "1"]):
        if as_key and where[-1:] == ["1"]:
            continue
        raw = put(json.loads(json.dumps(PRESETS["leader_follower"])), where, odd, as_key)
        want = outcome(lambda: json.loads(json.dumps(raw)))
        assert outcome(lambda: scenarios._json_copy(raw)[0]) == want
        if not isinstance(want[0], str):
            with pytest.raises(ConfigError) as err:
                scenarios.load_scenario(raw)
            assert err.value.violations == [f"scenario dict is not JSON: {want[1]}"]


def cycle_in_list():
    loop = [1.0]
    loop.append({"x": loop})
    return {"a": loop}


def cycle_in_dict():
    loop = {"x": 1.0}
    loop["self"] = [loop]
    return {"a": loop}


@pytest.mark.parametrize("make, message", [
    (cycle_in_list, "Circular reference detected"),
    (cycle_in_dict, "Circular reference detected"),
    (lambda: {**cycle_in_list(), "b": np.int64(1)}, "Circular reference detected"),
    (lambda: {"b": np.int64(1), **cycle_in_dict()},
     "Object of type int64 is not JSON serializable"),
    (lambda: {"x": [math.nan, set()]}, "Object of type set is not JSON serializable"),
])
def test_a_dict_json_refuses_is_refused_with_jsons_words(make, message):
    # json.dumps names the first value, in document order, that it refuses,
    # a circular reference included.
    with pytest.raises((TypeError, ValueError), match=f"^{message}$"):
        json.dumps(make())
    with pytest.raises(ConfigError) as err:
        scenarios.load_scenario(make())
    assert err.value.violations == [f"scenario dict is not JSON: {message}"]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(edited_presets(), st.lists(st.sampled_from([
    "solver.c=2.5", "mpc.T=3", "models.default.type=linear", "cost.Q=NaN", "topology=5",
    "new.key.path=1", "seed=1e400", "initial_states.1=[0, 0]", "name=x"]), max_size=3))
def test_overrides_never_change_the_callers_dict(raw, overrides):
    text, shared = json.dumps(raw), raw.get("topology")
    try:
        scenarios.load_scenario(raw, overrides=overrides)
    except ConfigError:
        pass
    assert json.dumps(raw) == text
    assert raw.get("topology") is shared
