"""Property-based tests for the supporting data structures."""

from hypothesis import example, given, settings, strategies as st

from repro.cfg.dominators import (
    compute_dominators,
    compute_postdominators,
    immediate_dominators,
    immediate_postdominators_of,
    reversed_digraph,
)
from repro.cfg.graph import Digraph
from repro.core.channel import counter_geq, counter_less
from repro.core.mutation import (
    bit_flip,
    global_off_by_one,
    off_by_minus_one,
    off_by_one,
    zeroing,
)
from repro.ir.ops import apply_binop, apply_unop, stringify, truthy
from repro.vos.filesystem import VirtualFS

counters = st.lists(st.integers(0, 6), min_size=1, max_size=4).map(tuple)


@given(counters, counters)
def test_counter_order_is_total(a, b):
    assert counter_less(a, b) or counter_less(b, a) or a == b


@given(counters, counters)
def test_counter_order_is_antisymmetric(a, b):
    assert not (counter_less(a, b) and counter_less(b, a))


@given(counters, counters, counters)
def test_counter_order_is_transitive(a, b, c):
    if counter_less(a, b) and counter_less(b, c):
        assert counter_less(a, c)


@given(counters)
def test_infinity_is_greatest(a):
    assert counter_less(a, None)
    assert not counter_less(None, a)
    assert counter_geq(None, a)


# -- dominators vs brute force -------------------------------------------------


@st.composite
def small_digraphs(draw):
    node_count = draw(st.integers(2, 7))
    graph = Digraph(range(node_count))
    edge_count = draw(st.integers(1, node_count * 2))
    for _ in range(edge_count):
        src = draw(st.integers(0, node_count - 1))
        dst = draw(st.integers(0, node_count - 1))
        if src != dst:
            graph.add_edge(src, dst)
    return graph


def _paths_avoiding(graph, start, target, avoid):
    """Is target reachable from start without passing through avoid?"""
    seen = set()
    stack = [start]
    while stack:
        node = stack.pop()
        if node == avoid or node in seen:
            continue
        if node == target:
            return True
        seen.add(node)
        stack.extend(graph.succs(node))
    return False


def _brute_dominance(graph, root):
    """(dominator sets, idoms) by path search: *d* dominates *n* iff every
    path from *root* to *n* passes through *d*."""
    reachable = graph.reachable_from(root)
    sets = {
        node: {
            candidate
            for candidate in reachable
            if candidate == node or not _paths_avoiding(graph, root, node, candidate)
        }
        for node in reachable
    }
    idom = {}
    for node, doms in sets.items():
        strict = doms - {node}
        # The nearest strict dominator is the one all the others dominate.
        nearest = [d for d in strict if strict - {d} <= sets[d]]
        if node != root:
            assert len(nearest) == 1
            idom[node] = nearest[0]
    return sets, idom


@given(small_digraphs(), st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_dominators_match_brute_force(graph, exit_choice):
    entry = 0
    sets, idom = _brute_dominance(graph, entry)
    dominators = compute_dominators(graph, entry)
    for node in graph.nodes:
        assert dominators[node] == sets.get(node, set())
    assert immediate_dominators(graph, entry) == idom

    exit_node = exit_choice % len(graph.nodes)
    sets, ipostdom = _brute_dominance(reversed_digraph(graph), exit_node)
    postdominators = compute_postdominators(graph, exit_node)
    for node in graph.nodes:
        # No path to the exit: an empty set, and no ipostdom below.
        assert postdominators[node] == sets.get(node, set())
    assert immediate_postdominators_of(graph, exit_node) == ipostdom


# -- mutation strategies -------------------------------------------------------


mutable_values = st.one_of(
    st.integers(-1000, 1000),
    st.text(min_size=0, max_size=20),
    st.booleans(),
    st.lists(st.integers(0, 100), max_size=4),
)


@given(mutable_values)
def test_mutations_preserve_type(value):
    for mutate in (off_by_one, off_by_minus_one, zeroing, bit_flip, global_off_by_one):
        mutated = mutate(value)
        assert type(mutated) is type(value)


@given(st.text(alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
               min_size=1, max_size=20))
def test_off_by_one_changes_alnum_strings(value):
    assert off_by_one(value) != value


@given(st.text(min_size=0, max_size=20))
def test_off_by_one_preserves_length(value):
    assert len(off_by_one(value)) == len(value)


@given(st.text(min_size=1, max_size=20))
@example("🄰")  # isupper() but not isalnum(): must pass through unshifted
def test_global_off_by_one_keeps_non_alnum_chars(value):
    mutated = global_off_by_one(value)
    for original, shifted in zip(value, mutated):
        if not original.isalnum():
            assert original == shifted


# -- operator semantics -----------------------------------------------------------


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_comparison_trichotomy(a, b):
    assert (
        apply_binop("<", a, b)
        or apply_binop(">", a, b)
        or apply_binop("==", a, b)
    )


@given(st.integers(-10**6, 10**6), st.integers(1, 1000))
def test_c_division_identity(a, b):
    quotient = apply_binop("/", a, b)
    remainder = apply_binop("%", a, b)
    assert quotient * b + remainder == a
    assert abs(remainder) < b


@given(st.integers(-100, 100))
def test_unary_minus_involution(a):
    assert apply_unop("-", apply_unop("-", a)) == a


@given(mutable_values)
def test_stringify_total(value):
    assert isinstance(stringify(value), str)
    truthy(value)  # must not raise


# -- filesystem clone isolation -----------------------------------------------


path_segments = st.lists(
    st.text(alphabet="abcd", min_size=1, max_size=3), min_size=1, max_size=3
)


@given(
    st.lists(st.tuples(path_segments, st.text(max_size=8)), min_size=1, max_size=5)
)
def test_fs_clone_isolated_under_random_writes(files):
    fs = VirtualFS()
    for segments, content in files:
        fs.add_file("/" + "/".join(segments), content)
    snapshot = {path: fs.file(path).content for path in fs.paths()}
    clone = fs.clone()
    for path in clone.paths():
        clone.file(path).content += "!"
        clone.rename(path, path + ".bak")
    assert {p: fs.file(p).content for p in fs.paths()} == snapshot
