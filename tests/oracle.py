"""Naive reference implementations used to pin expected values.

Everything in here favours obviousness over speed: direct summation,
explicit enumeration, dictionary BFS.  No transforms, no vectorization,
no imports from the package under test.  Test modules compare library
output against these, and the frozen constants in the tests were produced
by exactly this code.
"""

from itertools import combinations


def parity(x):
    return bin(x).count("1") % 2


def walsh_sign(k, x):
    """The +1/-1 Walsh value by direct exponentiation."""
    return -1 if parity(k & x) else 1


def transform(values):
    """O(n^2) Walsh transform: F[k] = sum_x sign(k,x) * values[x]."""
    n = len(values)
    return [sum(walsh_sign(k, x) * values[x] for x in range(n)) for k in range(n)]


def eigenvalues(d, hops):
    """Adjacency eigenvalues by direct summation over the hop set."""
    return [sum(walsh_sign(k, h) for h in hops) for k in range(1 << d)]


def walsh_side(d, k):
    """The nodes x with parity(k & x) = 0: one side of the Walsh-k split."""
    return {x for x in range(1 << d) if not parity(k & x)}


def adjacency(d, hops):
    """The n x n 0/1 adjacency matrix as lists, one edge v -- v ^ h at a time."""
    n = 1 << d
    rows = [[0] * n for _ in range(n)]
    for v in range(n):
        for h in hops:
            rows[v][v ^ h] = 1
    return rows


def cut_edges(d, hops, side):
    """Count edges with exactly one endpoint in `side` (a set of nodes)."""
    count = 0
    for v in range(1 << d):
        for h in hops:
            w = v ^ h
            if v < w and ((v in side) != (w in side)):
                count += 1
    return count


def min_bisection(d, hops):
    """Exhaustive minimum over all equipartitions containing node 0.

    Returns (B, side) where side is the winning node set. Only sane for
    n <= 16.
    """
    n = 1 << d
    best = None
    best_side = None
    for rest in combinations(range(1, n), n // 2 - 1):
        side = {0, *rest}
        c = cut_edges(d, hops, side)
        if best is None or c < best:
            best, best_side = c, side
    return best, best_side


def cut_counts(d, hops):
    """C_k = number of hops with odd overlap with k, for every k."""
    return [sum(parity(k & h) for h in hops) for k in range(1 << d)]


def spectrum_table(d, m, cuts):
    """The `lh spectrum` table, one `%` template per row: the hex k, then
    lambda = m - 2 cut and the cut."""
    template = f"%0{(d + 3) // 4}X\t%d\t%d\n"
    rows = (template % (k, m - 2 * c, c) for k, c in enumerate(cuts))
    return "# k\tlambda\tcut\n" + "".join(rows)


def wiring_table(d, hops, radix, lo, hi):
    """The `lh wire` table for rows lo..hi, one `%` template per row: the
    row label, the peer v ^ h at each hop's port, `**` on free ports."""
    ports = "".join(f"\t#{s}" for s in range(1, radix + 1))
    template = (
        "%X:" + f"\t%0{(d + 3) // 4}X" * len(hops) + "\t**" * (radix - len(hops)) + "\n"
    )
    rows = (template % (v, *[v ^ h for h in hops]) for v in range(lo, hi + 1))
    return f"Sw/Pt:{ports}\n" + "".join(rows)


def distances(d, hops):
    """Hop distance from node 0 to every node, by plain BFS. -1 = unreachable."""
    n = 1 << d
    dist = [-1] * n
    dist[0] = 0
    frontier = [0]
    level = 0
    while frontier:
        level += 1
        nxt = []
        for v in frontier:
            for h in hops:
                w = v ^ h
                if dist[w] < 0:
                    dist[w] = level
                    nxt.append(w)
        frontier = nxt
    return dist


def transpose(vectors, width):
    """The bit matrix read sideways, one bit at a time: bit s of row i
    is bit i of vectors[s]."""
    rows = [0] * width
    for s, v in enumerate(vectors):
        for i in range(width):
            if v >> i & 1:
                rows[i] |= 1 << s
    return rows


def codewords(rows):
    """All 2^k codewords of the span of `rows` (ints), including zero."""
    words = [0]
    for r in rows:
        words += [w ^ r for w in words]
    return words


def min_weight(rows):
    """Minimum weight over the nonzero span of `rows`."""
    return min(bin(w).count("1") for w in codewords(rows) if w)


def gf2_rank(vectors):
    """Rank of a list of ints viewed as GF(2) row vectors."""
    basis = {}
    for v in vectors:
        while v:
            lead = v.bit_length() - 1
            if lead in basis:
                v ^= basis[lead]
            else:
                basis[lead] = v
                break
    return len(basis)


def equivalence(d, hops, images):
    """The images of the d unit words under an invertible linear map M of
    Z_2^d with {M(h) : h in hops} = set(images), or None if no such map
    exists.  The spanning hops hold a basis, taken greedily; each
    injective choice of the basis's images among `images` is tried, and
    a choice is dropped once a hop in the span mapped so far lands
    outside `images`."""
    basis = []
    for h in hops:
        if gf2_rank(basis + [h]) > len(basis):
            basis.append(h)
    hop_set, targets = set(hops), set(images)
    if len(basis) != d or len(hop_set) != len(targets):
        return None

    def search(known):
        # known maps each word of the span of basis[:i] to its image.
        i = len(known).bit_length() - 1
        if i == d:
            return tuple(known[1 << j] for j in range(d))
        for t in targets:
            if t in known.values():
                continue
            grown = {**known, **{x ^ basis[i]: y ^ t for x, y in known.items()}}
            if all(y in targets for x, y in grown.items() if x in hop_set):
                found = search(grown)
                if found is not None:
                    return found
        return None

    return search({0: 0})


def optimize_direct(d, m):
    """Referee for bisection.optimize_direct: every m-subset scored on its
    own, its b from its cut counts and its diameter from its BFS.

    Returns (hops, b) of the lexicographically first subset with the
    largest b, then the smallest diameter.
    """
    n = 1 << d
    best = None
    best_key = None
    for hops in combinations(range(1, n), m):
        b = min(cut_counts(d, hops)[1:])
        if b == 0:
            continue
        if best_key is not None and b < best_key[0]:
            continue
        diam = max(distances(d, hops))
        key = (b, -diam)
        if best_key is None or key > best_key:
            best, best_key = hops, key
    return best, best_key[0]


def optimize_secondary(d, hops, objective="diameter", budget=2000):
    """Referee for constructions.optimize_secondary: the per-candidate
    hill climber, each candidate's b from its own cut counts and its key
    from its own BFS.

    Same candidate order and budget accounting: a candidate's b costs one
    unit and its key one more, a non-spanning candidate (b = 0) costs
    nothing, and the best strict improvement of a step wins, the first
    one in candidate order on ties.  Returns the hop tuple.
    """
    n = 1 << d

    def key(hops):
        dist = distances(d, hops)
        diameter = max(dist)
        if objective == "diameter":
            return (diameter, dist.count(diameter))
        return (sum(dist),)

    def candidates(hops):
        used = set(hops)
        free = [v for v in range(1, n) if v not in used]
        for i in range(len(hops)):
            for v in free:
                cand = list(hops)
                cand[i] = v
                yield tuple(cand)

    floor_b = min(cut_counts(d, hops)[1:])
    current = tuple(hops)
    current_key = key(current)
    while budget > 0:
        step = None
        for cand in candidates(current):
            if budget <= 0:
                break
            # b is 0 exactly when the hops do not span.
            b = min(cut_counts(d, cand)[1:])
            if b == 0:
                continue
            budget -= 1
            if b < floor_b:
                continue
            budget -= 1
            k = key(cand)
            if k < current_key and (step is None or k < step[0]):
                step = (k, cand)
        if step is None:
            break
        current_key, current = step
    return current
