"""The distributivity condition on transfer maps: whenever a counter is
covered by a union of counters, any choice of image counters for the cover
admits an image counter of the covered one inside the union of the choices.
Distributivity is what makes the token-embedding preorder compatible with
firing.  A machine's verdicts are kept per transfer object in its
counter family's verdicts memo (_check_transfers); check_distributive keeps
none."""

from ..errors import ValidationError


def _irredundant_covers_of(target, masks):
    """Yield, in lexicographic order, the index-increasing selections of
    masks whose union contains target and where every member keeps a
    private element of target, so none can be dropped.  A member's private
    part only shrinks as members are added, so a selection that loses one
    is not extended, and neither is one that the members after it can no
    longer complete.  The search runs on an explicit stack of frames, each
    a partial selection and the member it resumes at: a frame that extends
    its selection pushes its own resumption under the extension's frame."""
    members = [(j, m & target) for j, m in enumerate(masks) if m & target]
    n = len(members)
    reach = [0] * (n + 1)  # reach[k]: the union of members k on
    for k in range(n - 1, -1, -1):
        reach[k] = reach[k + 1] | members[k][1]
    stack = [(0, (), [], 0)]  # (next member, selection, private parts, covered)
    while stack:
        start, sel, private, covered = stack.pop()
        for k in range(start, n):
            j, m = members[k]
            gain = m & ~covered
            if not gain:
                continue
            if covered | reach[k] != target:
                break
            for p in private:
                if not p & ~m:
                    break  # m would leave that member nothing of its own
            else:
                if covered | m == target:
                    yield sel + (j,)
                else:
                    stack.append((k + 1, sel, private, covered))
                    stack.append((k + 1, sel + (j,), [p & ~m for p in private] + [gain],
                                  covered | m))
                    break


def check_distributive(f, counters) -> bool:
    """Exhaustive check of the distributivity condition over all irredundant
    covers (sufficient: a redundant cover's condition follows from any
    irredundant subcover).  Each basis element gets a bit as it is met, in
    the counters and in their images alike.

    A counter c among its own images, where every image of every other
    counter d meeting c holds d & c, is settled without its covers: the
    only irredundant cover that contains c is (c,), whose choices are c's
    own images, and any other cover's chosen images hold the d & c of its
    members, which together make up c, an image of c.  The other counters
    walk their covers as _irredundant_covers_of yields them (83150 for all
    72 counters of a three-state automaton's compiled family), drawn from
    the counters with an image only: a cover with a member without one
    admits no choice of images.  The condition on a cover depends only on
    the union of the chosen images, so the unions are folded cover member
    by member into a set."""
    counters = tuple(counters)
    bits = {}

    def mask(elements):
        m = 0
        for e in elements:
            m |= bits.setdefault(e, 1 << len(bits))
        return m

    masks = tuple(mask(c) for c in counters)
    images = []
    for c in counters:
        if c not in f:
            raise ValidationError("transfer map not total: missing %r" % (sorted(c),))
        images.append(tuple({mask(d) for d in f[c]}))
    imaged = tuple(m if imgs else 0 for m, imgs in zip(masks, images))
    for i, (c, imgs) in enumerate(zip(masks, images)):
        if c in imgs and all(img & d & c == d & c for j, d in enumerate(masks)
                             if j != i and d & c for img in images[j]):
            continue
        # unions known to hold an image: each image holds itself
        fine = set(imgs)
        for cover in _irredundant_covers_of(c, imaged):
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


def _check_transfers(transfers, structure):
    """Raise ValidationError unless the map of every transfer over the
    CounterStructure's counters is distributive, as check_distributive
    decides it.  Each verdict is kept in the structure's verdicts memo under
    id(transfer) with its transfer, so a refused transfer is refused again
    from the memo."""
    counters = structure.counters
    memo = structure.verdicts
    for instr in transfers:
        key = id(instr)
        _, ok = memo.get(key) or memo.keep(
            key, (instr, check_distributive(instr.as_map(counters), counters)))
        if not ok:
            raise ValidationError("transfer map is not distributive")
