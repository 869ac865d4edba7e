"""The distributivity condition on transfer maps: whenever a counter is
covered by a union of counters, any choice of image counters for the cover
admits an image counter of the covered one inside the union of the choices.
Distributivity is what makes the token-embedding preorder compatible with
firing.  A machine's verdicts are kept per transfer object in its
counter family's verdicts memo (_check_transfers); check_distributive keeps
none."""

import functools
import random

from ..errors import ValidationError


class CoverTable:
    """A counter family on basis bitmasks: each basis element of a counter
    gets a bit, and each counter its irredundant covers, index-increasing
    tuples of counter indices whose union contains it and none of which can
    be dropped.  The distributivity condition sees the family only through
    these covers, so one table serves every transfer map over it."""

    def __init__(self, counters):
        self.bits = {}
        for c in counters:
            for e in c:
                self.bits.setdefault(e, 1 << len(self.bits))
        masks = tuple(self.mask(c) for c in counters)
        self.masks = dict(zip(counters, masks))
        self.covers = tuple(_irredundant_covers_of(m, masks) for m in masks)

    def mask(self, elements, extra=None):
        """Bitmask of a set of basis elements.  An element that no counter
        holds takes a bit past the counters' ones, recorded in `extra`, so
        distinct such elements stay apart."""
        m = 0
        for e in elements:
            bit = self.bits.get(e)
            if bit is None:
                bit = extra.setdefault(e, 1 << (len(self.bits) + len(extra)))
            m |= bit
        return m


@functools.lru_cache
def cover_table(counters):
    """The shared CoverTable of a counter tuple, built once per process: every
    machine and every check over the same family uses it."""
    return CoverTable(counters)


def _irredundant_covers_of(target, masks):
    """Index-increasing selections of masks whose union contains target and
    where every member keeps a private element of target, so none can be
    dropped.  A member's private part only shrinks as members are added, so
    a selection that loses one is not extended."""
    members = [(j, m & target) for j, m in enumerate(masks) if m & target]
    if len(members) == 1:  # the target alone
        return ((members[0][0],),)
    out = []

    def extend(start, sel, private, covered):
        for k in range(start, len(members)):
            j, m = members[k]
            gain = m & ~covered
            if not gain:
                continue
            for p in private:
                if not p & ~m:
                    break  # m would leave that member nothing of its own
            else:
                if covered | m == target:
                    out.append(sel + (j,))
                else:
                    extend(k + 1, sel + (j,), [p & ~m for p in private] + [gain],
                           covered | m)

    extend(0, (), [], 0)
    return tuple(out)


def check_distributive(f, counters) -> bool:
    """Exhaustive check of the distributivity condition over all irredundant
    covers (sufficient: a redundant cover's condition follows from any
    irredundant subcover); feasible for families up to a dozen or two
    counters, the cost being driven by the cover count.  The covers come
    from the counter tuple's shared cover_table; the condition on a cover
    depends only on the union of the chosen images, so the unions are
    folded cover member by member into a set."""
    counters = tuple(counters)
    table = cover_table(counters)
    known = table.masks
    extra = {}
    images = []
    for c in counters:
        if c not in f:
            raise ValidationError("transfer map not total: missing %r" % (sorted(c),))
        imgs = set()
        for d in f[c]:
            m = known.get(d)
            imgs.add(table.mask(d, extra) if m is None else m)
        images.append(tuple(imgs))
    for i, (imgs, covers) in enumerate(zip(images, table.covers)):
        # unions known to hold an image: each image holds itself, which
        # settles the counter's cover by itself
        fine = set(imgs)
        own = (i,)
        for cover in covers:
            if cover == own:
                continue
            unions = {0}
            for j in cover:
                unions = {u | m for u in unions for m in images[j]}
            for u in unions:
                if u in fine:
                    continue
                if not any(not img & ~u for img in imgs):
                    return False
                fine.add(u)
    return True


def _sampled_distributive(f, counters, trials=200, seed=0):
    rng = random.Random(seed)
    counters = list(counters)
    for _ in range(trials):
        c = rng.choice(counters)
        members = [d for d in counters if d & c]  # c among them: c & c = c
        rng.shuffle(members)
        cover, covered = [], frozenset()
        for d in members:
            if (d & c) - covered:
                cover.append(d)
                covered |= d
            if c <= covered:
                break  # met by c itself at the latest
        choice = []
        ok = True
        for d in cover:
            opts = list(f.get(d, ()))
            if not opts:
                ok = False
                break
            choice.append(rng.choice(opts))
        if not ok:
            continue
        u = frozenset().union(*choice) if choice else frozenset()
        if not any(img <= u for img in f.get(c, ())):
            return False
    return True


def _check_transfers(transfers, structure, mode):
    """Raise ValidationError unless the map of every transfer over the
    CounterStructure's counters is distributive: checked exhaustively on
    families of at most 12 counters or in mode "full", sampled (seeded) on
    larger ones.  Each verdict is kept in the structure's verdicts memo
    under (id(transfer), exhaustive) with its transfer, so a refused
    transfer is refused again from the memo."""
    counters = structure.counters
    exhaustive = len(counters) <= 12 or mode == "full"
    check = check_distributive if exhaustive else _sampled_distributive
    memo = structure.verdicts
    for instr in transfers:
        key = (id(instr), exhaustive)
        _, ok = memo.get(key) or memo.keep(key, (instr, check(instr.as_map(counters), counters)))
        if not ok:
            raise ValidationError("transfer map is not distributive")
