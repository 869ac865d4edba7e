from itertools import permutations
import os

import pytest

from regsafe.words import Alphabet
from regsafe.ara import parse_automaton
from regsafe.ara import posbool as pb
from regsafe.ara.automaton import AlternatingAutomaton
from regsafe.ipcant import CounterMachine
from regsafe import ltl

DATA = os.path.join(os.path.dirname(__file__), "data")


def data_text(name):
    with open(os.path.join(DATA, name), "r") as fh:
        return fh.read()


def under(machine, lazy):
    """The machine's transitions, stepped under the given relation."""
    return CounterMachine(machine.alphabet, machine.states, machine.initial,
                          machine.structure, machine.transitions,
                          check_transfers="off", lazy=lazy)


def embeds_by_permutation(want, have, fits):
    """By brute force: some injective assignment of the tokens `want` to the
    tokens `have` puts each on one that it `fits`."""
    return any(all(fits(mine, theirs) for mine, theirs in zip(want, picked))
               for picked in permutations(have, len(want)))


@pytest.fixture(scope="session", name="data_text")
def _data_text_fixture():
    return data_text


@pytest.fixture(scope="session", name="data_path")
def _data_path_fixture():
    return lambda name: os.path.join(DATA, name)


@pytest.fixture(scope="session")
def abc():
    return Alphabet(("a", "b", "c"))


@pytest.fixture(scope="session")
def fig1():
    """Three-state automaton rejecting the a-then-c-then-b same-class pattern."""
    return parse_automaton(data_text("fig1.ara"))


@pytest.fixture(scope="session")
def forker():
    """A factory of fresh two-state automata over a b: p forks a frozen
    observer r; r survives a's, b closes both threads."""
    return lambda: AlternatingAutomaton(Alphabet(("a", "b")), ("p", "r"), "p", {
        ("p", "a", "up"): pb.And(pb.Ref("p"), pb.DownRef("r")),
        ("p", "a", "nup"): pb.Ref("p"),
        ("p", "b", "up"): pb.Top(),
        ("r", "a", "nup"): pb.Ref("r"),
        ("r", "b", "nup"): pb.Top(),
    })


@pytest.fixture(scope="session")
def bot_automaton():
    """A factory of fresh one-state automata with no transitions, whose
    language is empty, over the given alphabet (a b by default)."""
    return lambda alphabet=Alphabet(("a", "b")): AlternatingAutomaton(alphabet, ("z",), "z", {})


@pytest.fixture(scope="session")
def top_automaton():
    return parse_automaton(data_text("top.ara"))


@pytest.fixture(scope="session")
def example_formula():
    ab, f = ltl.parse_formula_file(data_text("example.ltl"))
    return ab, f
