"""Seeded random automata and words for the oracle cross-check and the
tests; the generators only tests use are in regsafe.reference.

Everything takes an explicit random.Random so runs are reproducible; nothing
here touches the global generator state.
"""

from .words import Alphabet, DataWord, canonicalize
from .ara import posbool as pb
from .ara.automaton import AlternatingAutomaton


def random_word(rng, alphabet: Alphabet, max_len, max_classes=None) -> DataWord:
    """A canonical data word of length 1..max_len with classes drawn freely
    (capped at max_classes when given)."""
    n = rng.randint(1, max_len)
    letters = [rng.choice(alphabet.letters) for _ in range(n)]
    labels = []
    used = 0
    for i in range(n):
        cap = used if max_classes is not None and used >= max_classes else used + 1
        pick = rng.randrange(cap)
        labels.append(pick)
        used = max(used, pick + 1)
    return canonicalize(letters, labels)


def _random_posbool(rng, states, depth, down_prob):
    if depth <= 0 or rng.random() < 0.4:
        q = rng.choice(states)
        if rng.random() < down_prob:
            return pb.DownRef(q)
        return pb.Ref(q)
    node = pb.And if rng.random() < 0.5 else pb.Or
    return node(_random_posbool(rng, states, depth - 1, down_prob),
                _random_posbool(rng, states, depth - 1, down_prob))


def random_automaton(rng, alphabet: Alphabet, max_states=3,
                     bot_prob=0.25, down_prob=0.3) -> AlternatingAutomaton:
    """An alternating automaton with 1..max_states states; each transition
    entry is absent with probability bot_prob, otherwise a random positive
    formula of depth <= 2."""
    n = rng.randint(1, max_states)
    states = tuple("q%d" % i for i in range(n))
    delta = {}
    for q in states:
        for a in alphabet.letters:
            for flag in ("up", "nup"):
                if rng.random() < bot_prob:
                    continue
                delta[(q, a, flag)] = _random_posbool(rng, states, 2, down_prob)
    return AlternatingAutomaton(alphabet, states, states[0], delta)
