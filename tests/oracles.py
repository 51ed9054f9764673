"""Independent oracles used to cross-check the package.

Everything here is pure-Python and dict-based on purpose: no numpy, no
imports from the package under test. Slow and obviously correct beats fast
and shared-bug-prone for reference values.

Distributions are dicts mapping outcome tuples to probabilities; variable
positions are referred to by index.
"""

import math
from itertools import product


# -- information quantities -----------------------------------------------------

def oracle_entropy(dist, idxs):
    """H(variables at positions ``idxs``) in bits."""
    marg = {}
    for key, pr in dist.items():
        if pr <= 0.0:
            continue
        sub = tuple(key[i] for i in idxs)
        marg[sub] = marg.get(sub, 0.0) + pr
    return -sum(pr * math.log2(pr) for pr in marg.values() if pr > 0.0)


def oracle_cmi(dist, a, b, c=()):
    """I(a ; b | c) in bits, positions given as index tuples."""
    a, b, c = tuple(a), tuple(b), tuple(c)
    h_c = oracle_entropy(dist, c) if c else 0.0
    return (oracle_entropy(dist, a + c) + oracle_entropy(dist, b + c)
            - oracle_entropy(dist, a + b + c) - h_c)


# -- set partitions ---------------------------------------------------------------

def partitions(items):
    """All set partitions of ``items`` (Bell-number many)."""
    items = list(items)

    def rec(idx, groups):
        if idx == len(items):
            yield [tuple(g) for g in groups]
            return
        for g in groups:
            g.append(items[idx])
            yield from rec(idx + 1, groups)
            g.pop()
        groups.append([items[idx]])
        yield from rec(idx + 1, groups)
        groups.pop()

    if not items:
        yield []
        return
    yield from rec(0, [])


def as_partition(classes):
    return frozenset(frozenset(c) for c in classes if c)


# -- sufficiency / minimal statistic ----------------------------------------------

def apply_partition(dist, pos, classes):
    """Append the class index of position ``pos`` to every outcome."""
    label = {}
    for k, cls in enumerate(classes):
        for sym in cls:
            label[sym] = k
    return {key + (label[key[pos]],): pr for key, pr in dist.items() if pr > 0.0}


def sufficient_partitions(dist, pos, wrt, tol=1e-9):
    """All partitions f of the support of ``pos`` with I(wrt ; pos | f) <= tol."""
    support = sorted({key[pos] for key, pr in dist.items() if pr > 0.0})
    width = len(next(iter(dist)))
    out = []
    for classes in partitions(support):
        lifted = apply_partition(dist, pos, classes)
        if oracle_cmi(lifted, tuple(wrt), (pos,), (width,)) <= tol:
            out.append(classes)
    return out


def coarsest_sufficient_partition(dist, pos, wrt, tol=1e-9):
    """The sufficient partition with the fewest classes (unique coarsest)."""
    best = None
    for classes in sufficient_partitions(dist, pos, wrt, tol):
        if best is None or len(classes) < len(best):
            best = classes
    return as_partition(best)


def refines(fine, coarse):
    """Whether every class of ``fine`` sits inside one class of ``coarse``."""
    return all(any(set(f) <= set(c) for c in coarse) for f in fine)


# -- common functions ---------------------------------------------------------------

def support_pairs(dist, pos_a, pos_b):
    return sorted({(key[pos_a], key[pos_b])
                   for key, pr in dist.items() if pr > 0.0})


def common_partition_pairs(dist, pos_a, pos_b):
    """All (partition of a-support, partition of b-support) pairs that define
    the same random variable almost surely: on every positive-probability
    pair, the a-class determines the b-class and the classes correspond
    one-to-one."""
    pairs = support_pairs(dist, pos_a, pos_b)
    supp_a = sorted({a for a, _ in pairs})
    supp_b = sorted({b for _, b in pairs})
    valid = []
    for classes_a in partitions(supp_a):
        label_a = {sym: k for k, cls in enumerate(classes_a) for sym in cls}
        for classes_b in partitions(supp_b):
            label_b = {sym: k for k, cls in enumerate(classes_b) for sym in cls}
            fwd, bwd, ok = {}, {}, True
            for a, b in pairs:
                ka, kb = label_a[a], label_b[b]
                if fwd.setdefault(ka, kb) != kb or bwd.setdefault(kb, ka) != ka:
                    ok = False
                    break
            if ok:
                valid.append((as_partition(classes_a), as_partition(classes_b)))
    return valid


def finest_common_partition(dist, pos_a, pos_b):
    """The valid common partition pair with the most classes (the common part)."""
    valid = common_partition_pairs(dist, pos_a, pos_b)
    best = max(valid, key=lambda pair: len(pair[0]))
    ties = [pair for pair in valid if len(pair[0]) == len(best[0])]
    assert all(pair == best for pair in ties), "finest common partition not unique"
    return best


def components_by_union_find(dist, pos_a, pos_b):
    """Connected components of the support graph, by union-find (not BFS)."""
    pairs = support_pairs(dist, pos_a, pos_b)
    parent = {}

    def find(node):
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for a, b in pairs:
        na, nb = ("a", a), ("b", b)
        parent.setdefault(na, na)
        parent.setdefault(nb, nb)
        parent[find(na)] = find(nb)
    roots = {find(node) for node in parent}
    comp = {}
    for node in parent:
        comp.setdefault(find(node), set()).add(node)
    classes_a = [frozenset(s for side, s in grp if side == "a")
                 for grp in comp.values()]
    classes_b = [frozenset(s for side, s in grp if side == "b")
                 for grp in comp.values()]
    return (frozenset(c for c in classes_a if c),
            frozenset(c for c in classes_b if c),
            len(roots))


def conditional_independence_residual_oracle(dist, pos_a, pos_b):
    """Max over components u of max |P(a,b|u) - P(a|u)P(b|u)|."""
    classes_a, _, _ = components_by_union_find(dist, pos_a, pos_b)
    pair = {}
    for key, pr in dist.items():
        if pr > 0.0:
            cell = (key[pos_a], key[pos_b])
            pair[cell] = pair.get(cell, 0.0) + pr
    worst = 0.0
    for cls in classes_a:
        bs = {b for a, b in pair if a in cls}
        weight = sum(pr for (a, _), pr in pair.items() if a in cls)
        for a in cls:
            pa = sum(pair.get((a, b), 0.0) for b in bs) / weight
            for b in bs:
                pb = sum(pair.get((aa, b), 0.0) for aa in cls) / weight
                pab = pair.get((a, b), 0.0) / weight
                worst = max(worst, abs(pab - pa * pb))
    return worst


# -- separating auxiliaries ----------------------------------------------------------

def separating_aux_oracle(dist, tol):
    """Every deterministic channel from the common part of (Y, Z) to U.

    Positions are (X, Y, Z). Each partition of the common-function classes
    defines one U; for each, I(U;X) and I(Y;Z|U) come from ``oracle_cmi``.
    Returns the smallest residual, whether any U has residual <= ``tol``,
    and the best I(U;X) among those that do (None when none does).
    """
    classes_y, _ = finest_common_partition(dist, 1, 2)
    classes_y = sorted(classes_y, key=min)
    width = len(next(iter(dist)))
    attempts = []
    for groups in partitions(range(len(classes_y))):
        merged = [set().union(*(classes_y[c] for c in group))
                  for group in groups]
        lifted = apply_partition(dist, 1, merged)
        attempts.append((oracle_cmi(lifted, (0,), (width,)),
                         oracle_cmi(lifted, (1,), (2,), (width,))))
    feasible = [value for value, resid in attempts if resid <= tol]
    return (min(resid for _, resid in attempts), bool(feasible),
            max(feasible) if feasible else None)


# -- the worked source ---------------------------------------------------------------

def worked_source_dist():
    """V, W, W' iid uniform bits; X = (V, W xor W'), Y = (V, W), Z = (V, W').

    Symbols are 2·(first bit) + (second bit); positions are (X, Y, Z).
    """
    dist = {}
    for v, w, wp in product((0, 1), repeat=3):
        key = (2 * v + (w ^ wp), 2 * v + w, 2 * v + wp)
        dist[key] = dist.get(key, 0.0) + 0.125
    return dist


def worked_source_targets():
    """All target quantities for the worked source, from this module only."""
    dist = worked_source_dist()
    classes_a, classes_b, components = components_by_union_find(dist, 1, 2)
    label = {sym: k for k, cls in enumerate(sorted(classes_a, key=min))
             for sym in cls}
    lifted = {key + (label[key[1]],): pr for key, pr in dist.items()}
    i_x_common = oracle_cmi(lifted, (0,), (3,))
    i_x_yz = oracle_cmi(dist, (0,), (1, 2))
    return {
        "a": oracle_cmi(dist, (0,), (1,), (2,)),
        "b": oracle_cmi(dist, (0,), (2,), (1,)),
        "i_x_yz": i_x_yz,
        "i_x_common": i_x_common,
        "s": i_x_yz - i_x_common,
        "components": components,
        "ci_residual": conditional_independence_residual_oracle(dist, 1, 2),
    }


# -- protocol evaluation ----------------------------------------------------------------

def seq_index(symbols, card):
    idx = 0
    for sym in symbols:
        idx = idx * card + sym
    return idx


def oracle_evaluate(pmf, cards, proto):
    """Exact protocol evaluation by plain enumeration.

    ``pmf`` maps (x, y, z) to probability; ``proto`` is a dict with keys
    n, slots (list of (alphabet_size, table) with tables as nested lists),
    key_xy/est_xy/key_xz/est_xz tables, and key_xy_size/key_xz_size.
    Returns the eight report fields in a dict.
    """
    cx, cy, cz = cards
    n = proto["n"]
    joint = {}
    for xs in product(range(cx), repeat=n):
        for ys in product(range(cy), repeat=n):
            for zs in product(range(cz), repeat=n):
                pr = 1.0
                for i in range(n):
                    pr *= pmf.get((xs[i], ys[i], zs[i]), 0.0)
                if pr <= 0.0:
                    continue
                f = 0
                for t, (m, table) in enumerate(proto["slots"]):
                    own = (xs, ys, zs)[t % 3]
                    own_idx = seq_index(own, (cx, cy, cz)[t % 3])
                    f = f * m + table[own_idx][f]
                xi, yi, zi = seq_index(xs, cx), seq_index(ys, cy), seq_index(zs, cz)
                key = (proto["key_xy"][xi][f], proto["est_xy"][yi][f],
                       proto["key_xz"][xi][f], proto["est_xz"][zi][f], f, yi, zi)
                joint[key] = joint.get(key, 0.0) + pr
    # positions: k_xy, l_xy, k_xz, l_xz, f, yseq, zseq
    error_xy = sum(pr for key, pr in joint.items() if key[0] != key[1])
    error_xz = sum(pr for key, pr in joint.items() if key[2] != key[3])
    leak_xy = max(oracle_cmi(joint, (0,), (4, 6)), oracle_cmi(joint, (1,), (4, 6)))
    leak_xz = max(oracle_cmi(joint, (2,), (4, 5)), oracle_cmi(joint, (3,), (4, 5)))
    h_k_xy = oracle_entropy(joint, (0,))
    h_k_xz = oracle_entropy(joint, (2,))
    return {
        "error_xy": error_xy,
        "error_xz": error_xz,
        "leak_xy": leak_xy / n,
        "leak_xz": leak_xz / n,
        "unif_xy": (math.log2(proto["key_xy_size"]) - h_k_xy) / n,
        "unif_xz": (math.log2(proto["key_xz_size"]) - h_k_xz) / n,
        "rate_xy": h_k_xy / n,
        "rate_xz": h_k_xz / n,
    }
