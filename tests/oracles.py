"""Independent brute-force oracles, written before the library internals.

These deliberately avoid the generators and composition bookkeeping of the
package: maps are raw value tuples filtered by the defining inequalities,
and composition is pointwise evaluation on a window of elements.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def oracle_hom_values(m: int, n: int) -> list[tuple[int, ...]]:
    """All canonical value tuples for maps Par(m) -> Par(n), by raw filtering."""
    period = n + 1
    out = []
    for values in itertools.product(range(2 * period), repeat=m + 1):
        if not 0 <= values[0] < period:
            continue
        if any(values[a] > values[a + 1] for a in range(m)):
            continue
        if values[-1] > values[0] + period:
            continue
        out.append(values)
    return out


def oracle_hom_values_of_kind(m: int, n: int, kind: str = "all") -> list[tuple[int, ...]]:
    """``oracle_hom_values`` of the given kind, in their (ascending) order:
    injections are strictly increasing and end below the first value plus
    the period, surjections meet every residue modulo the period."""
    period = n + 1
    out = []
    for values in oracle_hom_values(m, n):
        strict = all(values[a] < values[a + 1] for a in range(m)) and (
            values[-1] < values[0] + period
        )
        onto = {v % period for v in values} == set(range(period))
        if kind == "inj" and not strict:
            continue
        if kind == "surj" and not onto:
            continue
        out.append(values)
    return out


def oracle_hom_count(m: int, n: int, kind: str = "all") -> int:
    return len(oracle_hom_values_of_kind(m, n, kind))


def eval_raw(values: tuple[int, ...], shift: int, m: int, n: int, x: int) -> int:
    """Evaluate the map with given one-period values at absolute element x."""
    period, slot = divmod(x, m + 1)
    return values[slot] + (period + shift) * (n + 1)


def oracle_compose_values(
    g_values, g_shift, f_values, f_shift, m: int, n: int, p: int
) -> tuple[tuple[int, ...], int]:
    """Compose by pointwise evaluation, then split off the leading period."""
    raw = [
        eval_raw(g_values, g_shift, n, p, eval_raw(f_values, f_shift, m, n, a))
        for a in range(m + 1)
    ]
    lead = raw[0] // (p + 1)
    return tuple(v - lead * (p + 1) for v in raw), lead


def is_injective(f) -> bool:
    """Whether the ``ParaMap`` f is injective, read off its values: strictly
    increasing over one period, the last below the first plus the target's
    period."""
    values = f.values
    return (all(x < y for x, y in zip(values, values[1:]))
            and values[-1] < values[0] + f.tgt.period)


def oracle_composition_violations(rep) -> list:
    """The ``composition`` violations of ``equivalence.validate_rep`` by the
    per-pair loop it used to run: for every composable pair of canonical
    surjections g : Par(n) -> Par(p) and f : Par(m) -> Par(n), g outer and f
    inner in enumeration order, compare M(g) M(f) with t_p^lead M(h), where
    h and lead come from ``oracle_compose_values``.  The surjections are
    ``oracle_hom_values`` filtered by the definition; products are the
    field's own."""
    fld = rep.field
    violations = []
    for m, n, p in itertools.product(range(rep.N + 1), repeat=3):
        for g in oracle_hom_values_of_kind(n, p, "surj"):
            for f in oracle_hom_values_of_kind(m, n, "surj"):
                h, lead = oracle_compose_values(g, 0, f, 0, m, n, p)
                rhs = rep.gen[(m, p)][h]
                for _ in range(lead):
                    rhs = fld.matmul(rep.shifts[p], rhs)
                if not fld.equal(fld.matmul(rep.gen[(n, p)][g], rep.gen[(m, n)][f]), rhs):
                    violations.append(("composition", (m, n, p), f, g))
    return violations


def comparison_iso(rep, r, rel):
    """The comparison of ``rep``'s realized system along r at rel, computed
    afresh: the representation applied to the iso I'/pullback(rel) -> I/rel
    of quotient parasimplices, the reference for the realization plan's
    numbered comparisons."""
    from paracyclic.equivalence import comparison_map

    return rep.evaluate(comparison_map(r, rel))


def oracle_kernel_dim_by_enumeration(rows: list[list[int]], width: int, p: int) -> int:
    """dim ker of a matrix over F_p by enumerating all vectors (tiny cases)."""
    count = 0
    for vec in itertools.product(range(p), repeat=width):
        if all(sum(r[j] * vec[j] for j in range(width)) % p == 0 for r in rows):
            count += 1
    dim = 0
    while p**dim < count:
        dim += 1
    assert p**dim == count, "solution set size is not a power of p"
    return dim


def oracle_rref_fraction(rows: list[list]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q with unit pivots, by list elimination
    with Fractions."""
    mat = [[Fraction(x) for x in r] for r in rows]
    cols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    for col in range(cols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = mat[rank][col]
        mat[rank] = [x / inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[rank])]
        pivots.append(col)
    return mat, pivots


def oracle_matmul_fraction(a: list[list], b: list[list], cols: int) -> list[list[Fraction]]:
    """Product of list matrices over Q, one Fraction product at a time in a
    triple loop; b has ``cols`` columns (needed when b has no rows)."""
    out = []
    for row in a:
        out_row = []
        for j in range(cols):
            total = Fraction(0)
            for t in range(len(b)):
                total += Fraction(row[t]) * Fraction(b[t][j])
            out_row.append(total)
        out.append(out_row)
    return out


def oracle_matmul_mod(a: list[list[int]], b: list[list[int]], p: int,
                      cols: int) -> list[list[int]]:
    """Product of list matrices over F_p with Python ints, entry by entry;
    b has ``cols`` columns (needed when b has no rows)."""
    inner = len(b)
    return [[sum(row[t] * b[t][j] for t in range(inner)) % p for j in range(cols)]
            for row in a]


def oracle_rref_mod(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over F_p with unit pivots, by list elimination."""
    mat = [[x % p for x in r] for r in rows]
    cols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    for col in range(cols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        mat[rank] = [x * inv % p for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [(x - factor * y) % p for x, y in zip(mat[r], mat[rank])]
        pivots.append(col)
    return mat, pivots


def oracle_kernel_basis(rows: list[list], width: int, p: int = None) -> list[list]:
    """A basis of { v : rows v = 0 } in width ``width``, over F_p or over Q
    when p is None: one vector per free column of the reduced echelon form,
    1 there and minus that column's entries at the pivots."""
    mat, pivots = oracle_rref_fraction(rows) if p is None else oracle_rref_mod(rows, p)
    basis = []
    for free in range(width):
        if free in pivots:
            continue
        vec = [0] * width
        vec[free] = 1
        for r, col in enumerate(pivots):
            vec[col] = -mat[r][free] if p is None else -mat[r][free] % p
        basis.append(vec)
    return basis


def oracle_chain_map_rows(src, tgt) -> tuple[list[list], int]:
    """The equations f1 d0 = d0' f0 and f0 d1 = d1' f1 on chain maps between
    2-periodic complexes (``dims``, ``d0``, ``d1``; d' is tgt's), by index
    loops, as rows over the unknowns f0 then f1, each flattened row-major;
    returns the rows and their width."""
    (s0, s1), (t0, t1) = src.dims, tgt.dims
    src_d0, src_d1, tgt_d0, tgt_d1 = src.d0, src.d1, tgt.d0, tgt.d1
    width = t0 * s0 + t1 * s1
    rows = []
    for r in range(t1):
        for c in range(s0):
            row = [0] * width
            for k in range(s1):
                row[t0 * s0 + r * s1 + k] += src_d0[k][c]
            for k in range(t0):
                row[k * s0 + c] -= tgt_d0[r][k]
            rows.append(row)
    for r in range(t0):
        for c in range(s1):
            row = [0] * width
            for k in range(s0):
                row[r * s0 + k] += src_d1[k][c]
            for k in range(t1):
                row[t0 * s0 + k * s1 + c] -= tgt_d1[r][k]
            rows.append(row)
    return rows, width


def oracle_fingerprint(filtration) -> tuple:
    """Homology dimensions of every step and of the cone of every composite
    X_i -> X_j (i < j) of a filtration, from the definitions with plain
    lists: composites by entrywise products, the cone's differentials as
    blocks d0 = [[-d1, 0], [f1, d0']] and d1 = [[-d0, 0], [f0, d1']] (degree
    i of the cone is src_{i+1} + tgt_i, d' the target's), and
    h_i = dim V_i - rank d0 - rank d1, ranks by ``oracle_rref_mod`` over F_p
    or ``oracle_rref_fraction`` over Q.  Returns (steps, cones), the cones
    ordered by i, then j."""
    p = getattr(filtration.field, "p", None)

    def rank(rows):
        return len((oracle_rref_fraction(rows) if p is None else oracle_rref_mod(rows, p))[1])

    def product(a, b, cols):
        return oracle_matmul_fraction(a, b, cols) if p is None else oracle_matmul_mod(a, b, p, cols)

    def homology(d0, d1, v0, v1):
        r0, r1 = rank(d0), rank(d1)
        return (v0 - r0 - r1, v1 - r1 - r0)

    def block(a, zero_cols, below, beside):
        """[[-a, 0], [below, beside]] with zero_cols columns of zeros."""
        return ([[-x for x in row] + [0] * zero_cols for row in a]
                + [left + right for left, right in zip(below, beside)])

    objects = [(x.d0.tolist(), x.d1.tolist(), *x.dims) for x in filtration.objects]
    maps = [(m.f0.tolist(), m.f1.tolist()) for m in filtration.maps]
    steps = tuple(homology(*x) for x in objects)
    cones = []
    for i, (src_d0, src_d1, s0, s1) in enumerate(objects):
        f0 = [[int(r == c) for c in range(s0)] for r in range(s0)]
        f1 = [[int(r == c) for c in range(s1)] for r in range(s1)]
        for j in range(i + 1, len(objects)):
            tgt_d0, tgt_d1, t0, t1 = objects[j]
            f0 = product(maps[j - 1][0], f0, s0)
            f1 = product(maps[j - 1][1], f1, s1)
            cones.append(homology(block(src_d1, t0, f1, tgt_d0),
                                  block(src_d0, t1, f0, tgt_d1), s1 + t0, s0 + t1))
    return (steps, tuple(cones))


def oracle_upsets_by_mask(keys: list[tuple[int, ...]]) -> list[frozenset]:
    """Every upward closed subset of the strata ``keys`` (sorted gap tuples),
    by scanning all 2^len(keys) masks in ascending order, bit i standing for
    keys[i].  A subset is upward closed when, with each member, it holds
    every non-empty tuple obtained by dropping one gap."""
    out = []
    for mask in range(1 << len(keys)):
        chosen = frozenset(keys[i] for i in range(len(keys)) if mask >> i & 1)
        if all(tuple(x for x in key if x != b) in chosen
               for key in chosen if len(key) > 1 for b in key):
            out.append(chosen)
    return out


def oracle_strata(num_boundaries: int):
    """The stratum poset of a base with ``num_boundaries`` class boundaries,
    from subsets of the boundaries alone.

    The keys are every non-empty subset as a sorted tuple, from
    ``itertools.combinations``, most gaps first and lexicographic within a
    size; key i has the mask bit 1 << i.  The covering pairs (big, small)
    come from comparing every pair of keys: small lies inside big and has
    one gap fewer.  ``faces[big][b]`` is the small key of the pair whose
    missing gap is b.  Returns keys, bits, faces and covering pairs."""
    keys = [gaps for size in range(num_boundaries, 0, -1)
            for gaps in itertools.combinations(range(num_boundaries), size)]
    bits = {key: 1 << i for i, key in enumerate(keys)}
    covers = [(big, small) for big in keys for small in keys
              if len(small) == len(big) - 1 and set(small) < set(big)]
    faces = {key: {} for key in keys}
    for big, small in covers:
        (missing,) = set(big) - set(small)
        faces[big][missing] = small
    return keys, bits, faces, covers


def oracle_class_position(sizes: tuple[int, ...], x: int) -> int:
    """Absolute class index of element x of the preorder with class sizes
    ``sizes``, class 0 holding element 0: the number of class boundaries
    between 0 and x, counted one element at a time (negative below 0)."""
    period = sum(sizes)
    last_slots, total = set(), 0
    for size in sizes:
        total += size
        last_slots.add(total - 1)
    if x >= 0:
        return sum(1 for e in range(x) if e % period in last_slots)
    return -sum(1 for e in range(x, 0) if e % period in last_slots)


def oracle_preord_map_values(src_sizes: tuple[int, ...], tgt_sizes: tuple[int, ...],
                             onto: bool = True) -> list[tuple[int, ...]]:
    """All canonical value tuples (values[0] in period zero) of the
    shift-equivariant maps between the preorders with class sizes
    ``src_sizes`` and ``tgt_sizes`` that preserve the preorder, x <= y
    implying f(x) <= f(y) on ``oracle_class_position``, by raw filtering;
    with ``onto``, only those whose image meets every class of the target.
    The candidates are every tuple in [-Q, 3Q) for Q the target period, which
    holds every valid one, and the preorder is tested on every pair of a
    window of two source periods, which suffices by equivariance."""
    src_period, tgt_period, tgt_classes = sum(src_sizes), sum(tgt_sizes), len(tgt_sizes)
    window = range(2 * src_period)
    src_pos = [oracle_class_position(src_sizes, x) for x in window]
    tgt_pos = {y: oracle_class_position(tgt_sizes, y)
               for y in range(-tgt_period, 5 * tgt_period)}
    out = []
    for values in itertools.product(range(-tgt_period, 3 * tgt_period), repeat=src_period):
        if not 0 <= values[0] < tgt_period:
            continue
        image = [tgt_pos[values[x % src_period] + (x // src_period) * tgt_period]
                 for x in window]
        if any(src_pos[x] <= src_pos[y] and image[x] > image[y]
               for x in window for y in window):
            continue
        if onto and {c % tgt_classes for c in image} != set(range(tgt_classes)):
            continue
        out.append(values)
    return out


def oracle_preord_maps_by_search(src, tgt) -> list:
    """Every canonical morphism src -> tgt of the ``ParaPreorder``s, in
    order of values, by a recursive search over value prefixes that never
    reads ``enumerate_hom``: the first value runs over period zero, each
    next one from one target period below the last to two above the first,
    kept while the preorder allows it, and every full tuple goes through
    the library's ``is_valid_morphism``, which rejects overshoots past the
    wrap and maps that miss a class."""
    from paracyclic.errors import NotEssentiallySurjective, NotMonotone
    from paracyclic.preord import is_valid_morphism

    found = []

    def extend(prefix):
        if len(prefix) == src.period:
            try:
                found.append(is_valid_morphism(src, tgt, prefix))
            except (NotMonotone, NotEssentiallySurjective):
                pass
            return
        if not prefix:
            candidates = range(tgt.period)
        else:
            candidates = [v for v in range(prefix[-1] - tgt.period, prefix[0] + 2 * tgt.period)
                          if tgt.leq(prefix[-1], v) and tgt.leq(v, prefix[0] + tgt.period)]
        for v in candidates:
            extend(prefix + (v,))

    extend(())
    return found


def oracle_related(sizes: tuple[int, ...], gaps, i: int, j: int) -> bool:
    """Whether elements i and j are merged by the convex relation whose
    surviving boundaries are ``gaps`` over the preorder with class sizes
    ``sizes``: no surviving boundary is crossed between their class
    positions, boundary b sitting after every class congruent to b."""
    low, high = sorted((oracle_class_position(sizes, i), oracle_class_position(sizes, j)))
    return not any(c % len(sizes) in gaps for c in range(low, high))


def class_oracle_mismatches(bases) -> list:
    """Where ``class_position``, ``leq`` and ``equivalent`` of each preorder
    disagree with ``oracle_class_position``, on absolute indices spanning
    three periods from minus one period."""
    out = []
    for base in bases:
        window = range(-base.period, 2 * base.period)
        oracle = {x: oracle_class_position(base.sizes, x) for x in window}
        out += [(base.sizes, "class_position", x) for x in window
                if base.class_position(x) != oracle[x]]
        for x, y in itertools.product(window, repeat=2):
            if base.leq(x, y) != (oracle[x] <= oracle[y]):
                out.append((base.sizes, "leq", x, y))
            if base.equivalent(x, y) != (oracle[x] == oracle[y]):
                out.append((base.sizes, "equivalent", x, y))
    return out


def marked_keys(tilde) -> frozenset:
    """The (src, tgt, map values) key of every Cartesian edge of a
    ``ConvTilde``."""
    return frozenset((e.src, e.tgt, e.map.values) for e in tilde.edges if e.cartesian)


def oracle_missing_marked_composites(tilde) -> list:
    """The ``marked-composite-missing`` failures of
    ``equivalence.check_localization_adjunction`` by the per-pair loop it
    used to run: for every Cartesian edge e in edge order, and every
    Cartesian edge e2 leaving e's target in edge order, the composite built
    by the library's scalar ``compose`` and looked up among the
    ``marked_keys``.  Unlike the oracles above, it composes with the
    library: it is the scalar reference for the gather that replaced it."""
    from paracyclic.consheaf import gap_key
    from paracyclic.paracat import compose

    def named(rel):
        return rel.base.sizes, gap_key(rel)

    by_src = {}
    for e in tilde.edges:
        by_src.setdefault(e.src, []).append(e)
    marked = marked_keys(tilde)
    failures = []
    for e in tilde.edges:
        if not e.cartesian:
            continue
        for e2 in by_src.get(e.tgt, []):
            if not e2.cartesian:
                continue
            composite = compose(e2.map, e.map).values
            if (e.src, e2.tgt, composite) not in marked:
                failures.append(("marked-composite-missing", named(e.src), named(e2.tgt)))
    return failures
