"""Property test of the scenario loader: whatever a scenario dict holds,
``load_scenario`` either returns a spec or raises ConfigError.  The dicts are
the shipped presets with a few random edits (a value replaced, a key
deleted or added), anywhere in the tree.  The run is derandomized, so it
checks the same examples on every run, and it keeps no example database."""

import json

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
