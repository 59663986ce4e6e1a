"""Property-based tests on the march engine."""

from functools import lru_cache

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.fault_primitives import enumerate_single_cell_fps, parse_fp
from repro.experiments.march_pf import completed_fault_set
from repro.march.generator import generate_march
from repro.march.library import ALL_TESTS
from repro.march.notation import (
    Direction,
    MarchElement,
    MarchOp,
    MarchPause,
    MarchTest,
)
from repro.march.simulator import (
    _fails_fault_free,
    _simulated_escape_cases,
    escape_cases,
    run_march,
)
from repro.memory.array import MemoryArray, Topology
from repro.memory.fault_machine import NodeKind
from repro.memory.simulator import FaultyMemory

topologies = st.builds(
    Topology,
    st.integers(1, 5),
    st.integers(1, 3),
)


@st.composite
def consistent_march_tests(draw, pauses=False):
    """March tests whose reads always expect the marched-in state.

    Built by tracking the per-address background state: each element's
    reads expect the current state, writes update it.  Such a test is
    sound on any fault-free memory by construction.  With ``pauses``,
    a ``Del`` element may precede each march element.
    """
    n_elements = draw(st.integers(1, 4))
    state = draw(st.sampled_from((0, 1)))
    elements = [
        MarchElement(Direction.EITHER, (MarchOp("w", state),))
    ]
    for _ in range(n_elements):
        if pauses and draw(st.integers(0, 4)) == 0:
            elements.append(MarchPause())
        direction = draw(st.sampled_from(list(Direction)))
        n_ops = draw(st.integers(1, 4))
        ops = []
        for _ in range(n_ops):
            if draw(st.booleans()):
                ops.append(MarchOp("r", state))
            else:
                state = draw(st.sampled_from((0, 1)))
                ops.append(MarchOp("w", state))
        elements.append(MarchElement(direction, tuple(ops)))
    return MarchTest("generated", tuple(elements))


@settings(max_examples=60)
@given(consistent_march_tests(), topologies,
       st.sampled_from((Direction.UP, Direction.DOWN)))
def test_consistent_tests_are_sound(test, topology, either_as):
    memory = FaultyMemory(topology)
    assert not run_march(test, memory, either_as=either_as).detected


@settings(max_examples=30)
@given(consistent_march_tests(), topologies)
def test_complemented_tests_are_sound(test, topology):
    memory = FaultyMemory(topology)
    assert not run_march(test.complement(), memory).detected


@settings(max_examples=30)
@given(consistent_march_tests(), topologies)
def test_operation_count(test, topology):
    memory = FaultyMemory(topology)
    result = run_march(test, memory)
    assert result.operations == test.operation_count(topology.size)


@settings(max_examples=20)
@given(topologies, st.lists(
    st.tuples(st.booleans(), st.integers(0, 24), st.sampled_from((0, 1))),
    max_size=30,
))
def test_fault_free_memory_is_an_array(topology, script):
    """FaultyMemory without a fault is observationally a plain array."""
    memory = FaultyMemory(topology)
    model = MemoryArray(topology)
    for is_write, raw_addr, value in script:
        address = raw_addr % topology.size
        if is_write:
            memory.write(address, value)
            model.write(address, value)
        else:
            assert memory.read(address) == model.read(address)


@st.composite
def random_march_tests(draw):
    """Arbitrary march tests; most fail on a fault-free memory."""
    elements = [
        MarchElement(
            draw(st.sampled_from(list(Direction))),
            tuple(draw(st.lists(
                st.builds(MarchOp, st.sampled_from("rw"),
                          st.sampled_from((0, 1))),
                min_size=1, max_size=4,
            ))),
        )
        for _ in range(draw(st.integers(1, 4)))
    ]
    return MarchTest("random", tuple(elements))


@lru_cache(maxsize=None)
def _march_gen():
    return generate_march(completed_fault_set(), minimize=True).test


def _power_up_reliant(test):
    """Drop a leading ``⇕(w0)``: the test then relies on power-up 0."""
    if len(test.elements) > 1 and test.elements[0].ops == (MarchOp("w", 0),):
        return MarchTest(test.name, test.elements[1:])
    return test


#: Library tests and March gen, mostly sound generated tests (with
#: pauses; some read before their first write), and some arbitrary ones
#: that exercise the fault-free shortcut of ``escape_cases``.
qualification_marches = st.one_of(
    st.sampled_from(ALL_TESTS),
    st.builds(_march_gen),
    consistent_march_tests(pauses=True),
    consistent_march_tests(pauses=True),
    consistent_march_tests(pauses=True).map(_power_up_reliant),
    random_march_tests(),
)

#: The completed partial faults, the single-cell FPs of up to two
#: operations (these infer as STATIC), a fault whose completing cells
#: are mixed (no node kind can be inferred) and one whose sensitizing
#: read has no R (its machine fails an assertion when it triggers).
QUALIFICATION_FAULTS = (
    completed_fault_set()
    + tuple(fp for n in range(3) for fp in enumerate_single_cell_fps(n))
    + (parse_fp("<0v [w1v w1BL] r0v/1/1>"), parse_fp("<0r0 w1BL/1/->"))
)


def _outcome(qualify, *args):
    """The escape tuple, or the type of the exception raised."""
    try:
        return qualify(*args)
    except Exception as error:  # noqa: BLE001 - compared by type
        return type(error)


@settings(max_examples=300, deadline=None)
@given(
    qualification_marches,
    st.one_of(  # completed faults at least half the time
        st.sampled_from(completed_fault_set()),
        st.sampled_from(QUALIFICATION_FAULTS),
    ),
    topologies,
    st.sampled_from(((0, 1), (None, 0, 1), (1,))),
    st.sampled_from((None,) + tuple(NodeKind)),
    st.booleans(),
)
def test_escape_cases_equal_the_simulated_oracle(
    test, fp, topology, node_values, kind, both_either_directions
):
    """Projected qualification equals one run_march per scenario."""
    args = (test, fp, topology, node_values, kind, both_either_directions)
    assert _outcome(escape_cases, *args) == _outcome(
        _simulated_escape_cases, *args
    )


@settings(max_examples=100, deadline=None)
@given(qualification_marches, topologies)
def test_fault_free_check_equals_a_fault_free_run(test, topology):
    """``_fails_fault_free`` (the generator's soundness check too)
    answers for a fault-free memory of any topology, either ⇕ resolution."""
    simulated = any(
        run_march(test, FaultyMemory(topology), either_as=either_as).detected
        for either_as in (Direction.UP, Direction.DOWN)
    )
    assert _fails_fault_free(test) == simulated


def test_library_round_trips_through_notation():
    from repro.march.notation import parse_march

    for test in ALL_TESTS:
        assert parse_march(test.to_string(), test.name).elements == test.elements
