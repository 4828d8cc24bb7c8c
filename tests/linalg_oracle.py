"""Reference pipeline for differential tests of cmscan.linalg and groups.

``elements`` enumerates G(m,p,n), refusing more than ``max_order``
elements with ``GroupTooLargeError``, and ``identity_element``, ``mul``,
``inv``, ``is_identity``, ``trace`` and ``cycles`` are the group
operations on its monomial elements, which ``cmscan`` no longer needs:
no command enumerates a group.  ``signature_counts_by_enumeration``
counts the elements of each Molien cycle signature one by one, as
``groups.molien_series`` did before the closed-form count.

This is the generic route to a reflection's restricted form that
``cmscan`` used before the closed forms: reduced echelon forms, kernel
and column-space bases, a Gauss-Jordan inverse, the projection onto
Im(1 - S) along Ker(1 - S) for the symplectic extension
S = diag(s, (s^-1)^T) on h + h*, and the Gram matrix of omega under that
projection.  ``sparse_rank`` of 1 - w is the old reflection test and
``character_norm`` the old irreducibility test, by enumeration.
``is_reflection`` is the cycle rule that replaced ``sparse_rank``, and
``reflection_classes_by_conjugation`` the old reflection classes, which
enumerate the group and conjugate each reflection by every element.
``molien_series_by_inversion`` is the old Molien series, which inverts
one ``CycloNumber`` power series per cycle signature, and
``group_ring_table`` the group-ring sum as it was before its
coefficients were packed into ints: a list of m ints per t-coefficient.
The code is kept as it was, so tests can compare the closed forms and
the packed Molien sum against it.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

from cmscan.cyclo import CycloNumber
from cmscan.fakedeg import GroupSpec
from cmscan.groups import MonomialElement, ReflectionClass, _signature_counts
from cmscan.linalg import Matrix, _dot, identity, mat_mul, mat_sub, scalar_mul
from cmscan.polycore import LaurentPoly, VerificationError

Vector = tuple[CycloNumber, ...]

# The largest group ``elements`` enumerates unless told otherwise.
DEFAULT_MAX_ORDER = 10**6


class GroupTooLargeError(ValueError):
    pass


# -- group elements --------------------------------------------------------

def _check_order(g: GroupSpec, max_order: int) -> None:
    # |W| = m^n n!/p, multiplied up only until past the bound: huge n is cheap.
    order = 1
    for k in range(1, g.n + 1):
        order *= g.m * k
        if order > max_order * g.p:
            size = f" {order // g.p}" if k == g.n else ""
            raise GroupTooLargeError(f"{g} has order{size} > bound {max_order}")


def elements(g: GroupSpec, max_order: int = DEFAULT_MAX_ORDER):
    """All elements in deterministic (perm, exps) lexicographic order,
    valid by construction and so not re-validated."""
    _check_order(g, max_order)
    m, p, new = g.m, g.p, tuple.__new__
    for perm in itertools.permutations(range(g.n)):
        for head in itertools.product(range(m), repeat=g.n - 1):
            for last in range(-sum(head) % p, m, p):
                yield new(MonomialElement, (m, perm, head + (last,)))


def identity_element(m: int, n: int) -> MonomialElement:
    return MonomialElement(m, tuple(range(n)), (0,) * n)


def mul(x: MonomialElement, y: MonomialElement) -> MonomialElement:
    """Matrix product x * y (x applied second)."""
    if x.m != y.m or x.n != y.n:
        raise ValueError("mixed ambient groups")
    perm = tuple(x.perm[y.perm[j]] for j in range(x.n))
    exps = tuple((y.exps[j] + x.exps[y.perm[j]]) % x.m for j in range(x.n))
    return MonomialElement(x.m, perm, exps)


def inv(w: MonomialElement) -> MonomialElement:
    q = [0] * w.n
    for i, img in enumerate(w.perm):
        q[img] = i
    exps = tuple((-w.exps[q[k]]) % w.m for k in range(w.n))
    return MonomialElement(w.m, tuple(q), exps)


def is_identity(w: MonomialElement) -> bool:
    return w.perm == tuple(range(w.n)) and not any(w.exps)


def trace(w: MonomialElement) -> CycloNumber:
    acc = CycloNumber.zero(w.m)
    for i in range(w.n):
        if w.perm[i] == i:
            acc = acc + CycloNumber.zeta(w.m, w.exps[i])
    return acc


def cycles(w: MonomialElement) -> list[list[int]]:
    seen = [False] * w.n
    out = []
    for start in range(w.n):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        j = w.perm[start]
        while j != start:
            seen[j] = True
            cyc.append(j)
            j = w.perm[j]
        out.append(cyc)
    return out


def signature_counts_by_enumeration(
        g: GroupSpec,
        max_order: int = DEFAULT_MAX_ORDER) -> dict[tuple[tuple[int, int], ...], int]:
    """Number of elements with each sorted (cycle length, exponent sum
    mod m) signature, one element at a time."""
    signatures: dict[tuple[tuple[int, int], ...], int] = {}
    for w in elements(g, max_order):
        key = tuple(sorted((len(cyc), sum(w.exps[i] for i in cyc) % g.m)
                           for cyc in cycles(w)))
        signatures[key] = signatures.get(key, 0) + 1
    return signatures


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return tuple(_dot(row, v) for row in a)


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def pairing(form: Matrix, x: Vector, y: Vector) -> CycloNumber:
    """x^T form y."""
    return _dot(mat_vec(form, y), x)


def invert(a: Matrix, m: int) -> Matrix:
    """Gauss-Jordan inverse; raises ValueError on singular input."""
    n = len(a)
    aug = [list(row) + list(idrow) for row, idrow in zip(a, identity(n, m))]
    for col in range(n):
        pivot = next((r for r in range(col, n) if not aug[r][col].is_zero()), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col].inverse()
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and not aug[r][col].is_zero():
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def rref(a: Matrix) -> tuple[tuple[tuple[CycloNumber, ...], ...], tuple[int, ...]]:
    """Reduced row echelon form and pivot column indices."""
    rows = [list(r) for r in a]
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        if r >= nrows:
            break
        pivot = next((i for i in range(r, nrows) if not rows[i][col].is_zero()), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][col].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and not rows[i][col].is_zero():
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return tuple(tuple(row) for row in rows), tuple(pivots)


def rank(a: Matrix, stop_at: int | None = None) -> int:
    rows = [{j: x for j, x in enumerate(row) if not x.is_zero()} for row in a]
    return sparse_rank(rows, stop_at)


def sparse_rank(rows: list[dict[int, CycloNumber]], stop_at: int | None = None) -> int:
    """Rank by elimination on sparse rows; stops early at stop_at."""
    pending = [r for r in rows if r]
    rnk = 0
    while pending:
        row = pending.pop(0)
        rnk += 1
        if stop_at is not None and rnk >= stop_at:
            return rnk
        p = min(row)
        pv_inv = row[p].inverse()
        nxt = []
        for r in pending:
            if p in r:
                f = r[p] * pv_inv
                merged = dict(r)
                for c, v in row.items():
                    w = merged.get(c, None)
                    w = (w - f * v) if w is not None else (-f * v)
                    if w.is_zero():
                        merged.pop(c, None)
                    else:
                        merged[c] = w
                if merged:
                    nxt.append(merged)
            else:
                nxt.append(r)
        pending = nxt
    return rnk


def kernel_basis(a: Matrix, m: int) -> list[Vector]:
    """Basis of the right kernel, from the reduced echelon form."""
    reduced, pivots = rref(a)
    ncols = len(a[0])
    free = [j for j in range(ncols) if j not in pivots]
    zero, one = CycloNumber.zero(m), CycloNumber.one(m)
    basis: list[Vector] = []
    for j in free:
        vec = [zero] * ncols
        vec[j] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][j]
        basis.append(tuple(vec))
    return basis


def column_space_basis(a: Matrix) -> list[Vector]:
    """The pivot columns of a, as vectors."""
    _, pivots = rref(a)
    cols = list(zip(*a))
    return [tuple(cols[j]) for j in pivots]


def projection_onto_image(b: Matrix, m: int) -> Matrix:
    """Projection onto Im(b) along Ker(b), by exact solve.

    Valid whenever Im(b) and Ker(b) are complementary, which holds for
    b = 1 - s with s of finite order.
    """
    n = len(b)
    image = column_space_basis(b)
    kernel = kernel_basis(b, m)
    if len(image) + len(kernel) != n:
        raise ValueError("image and kernel do not span")
    cols = image + kernel
    basis = tuple(zip(*cols))  # columns -> matrix
    binv = invert(basis, m)
    zero = CycloNumber.zero(m)
    # P = [image | 0] * basis^-1
    padded = tuple(
        tuple(image[j][i] if j < len(image) else zero for j in range(n))
        for i in range(n)
    )
    return mat_mul(padded, binv)


def symplectic_extension(a: Matrix, m: int) -> Matrix:
    """Block action on h + h*: diag(a, (a^-1)^T)."""
    n = len(a)
    dual = transpose(invert(a, m))
    zero = CycloNumber.zero(m)
    rows = []
    for i in range(n):
        rows.append(tuple(a[i]) + (zero,) * n)
    for i in range(n):
        rows.append((zero,) * n + tuple(dual[i]))
    return tuple(rows)


def symplectic_form_matrix(n: int, m: int) -> Matrix:
    """Gram matrix of omega on h + h*: omega(x, y) = x^T J y with
    J = [[0, -I], [I, 0]] in the (h coords, h* coords) basis."""
    zero, one = CycloNumber.zero(m), CycloNumber.one(m)
    rows = []
    for i in range(2 * n):
        row = [zero] * (2 * n)
        if i < n:
            row[n + i] = -one
        else:
            row[i - n] = one
        rows.append(tuple(row))
    return tuple(rows)


def gram(total: Matrix, t: CycloNumber) -> Matrix:
    """t^-1 [[0, -total^T], [total, 0]]: the Gram matrix on h + h* of
    the sum of restricted forms whose ``linalg.reflection_sum`` is
    (total, t)."""
    n = len(total)
    scaled = scalar_mul(t.inverse(), total)
    zero = (CycloNumber.zero(t.m),) * n
    return (tuple(zero + tuple(-scaled[j][i] for j in range(n))
                  for i in range(n))
            + tuple(row + zero for row in scaled))


def restricted_form_matrix(s: Matrix, m: int) -> Matrix:
    """Gram matrix of omega_s = omega(pi_s ., pi_s .) on h + h*,
    where pi_s projects onto Im(1 - s) along Ker(1 - s)."""
    two_n = len(s)
    b = mat_sub(identity(two_n, m), s)
    p = projection_onto_image(b, m)
    j = symplectic_form_matrix(two_n // 2, m)
    return mat_mul(transpose(p), mat_mul(j, p))


def one_minus_rows(w: MonomialElement) -> list[dict[int, CycloNumber]]:
    """The rows of 1 - w as sparse dicts, for ``sparse_rank``."""
    one = CycloNumber.one(w.m)
    rows: list[dict[int, CycloNumber]] = [{i: one} for i in range(w.n)]
    for j in range(w.n):
        row = rows[w.perm[j]]
        val = row.get(j, CycloNumber.zero(w.m)) - CycloNumber.zeta(w.m, w.exps[j])
        if val.is_zero():
            row.pop(j, None)
        else:
            row[j] = val
    return rows


def is_reflection(w: MonomialElement) -> bool:
    """rank(1 - w) == 1.

    On the coordinates of one cycle of w, of length L and exponent sum E,
    w has characteristic polynomial x^L - zeta^E, so it fixes a line there
    exactly when E = 0 mod m and nothing otherwise.  Hence rank(1 - w) is
    n minus the number of cycles whose exponent sum is 0 mod m.
    """
    fixed = sum(1 for cyc in cycles(w)
                if sum(w.exps[i] for i in cyc) % w.m == 0)
    return w.n - fixed == 1


def reflection_classes_by_conjugation(
        g: GroupSpec,
        max_order: int = DEFAULT_MAX_ORDER) -> tuple[ReflectionClass, ...]:
    """Conjugacy classes of reflections, ordered by first appearance."""
    all_elements = list(elements(g, max_order))
    reflections = [w for w in all_elements if is_reflection(w)]
    assigned: set[MonomialElement] = set()
    classes: list[ReflectionClass] = []
    n_minus_1 = CycloNumber.from_rational(g.m, g.n - 1)
    for s in reflections:
        if s in assigned:
            continue
        orbit = {mul(mul(x, s), inv(x)) for x in all_elements}
        assigned |= orbit
        members = tuple(sorted(orbit, key=MonomialElement.sort_key))
        zeta = trace(s) - n_minus_1
        classes.append(ReflectionClass(members, zeta))
    return tuple(classes)


def character_norm(g) -> Fraction:
    """<chi, chi> of the natural character of G(m,p,n), by enumeration."""
    acc = CycloNumber.zero(g.m)
    for w in elements(g):
        acc = acc + trace(w) * trace(inv(w))
    return acc.as_rational() / g.order


# -- Molien series --------------------------------------------------------

def molien_series_by_inversion(g: GroupSpec, truncate: int = 30,
                                max_order: int = DEFAULT_MAX_ORDER) -> LaurentPoly:
    """(1/|W|) sum_w 1/det(1 - t w) to order ``truncate``, exactly.

    det(1 - t w) = prod over permutation cycles of (1 - zeta^E t^len),
    so elements are grouped by their cycle signature before the series
    work; the rational-integrality of the result is checked.
    """
    signatures = signature_counts_by_enumeration(g, max_order)

    n_terms = truncate + 1
    zero = CycloNumber.zero(g.m)
    one = CycloNumber.one(g.m)
    acc = [zero] * n_terms
    for sig, count in sorted(signatures.items()):
        den = [zero] * n_terms
        den[0] = one
        for length, exp in sig:
            z = CycloNumber.zeta(g.m, exp)
            nxt = list(den)
            for k in range(length, n_terms):
                if not den[k - length].is_zero():
                    nxt[k] = nxt[k] - z * den[k - length]
            den = nxt
        inv = [zero] * n_terms
        inv[0] = one
        for k in range(1, n_terms):
            s = zero
            for j in range(1, k + 1):
                if not den[j].is_zero() and not inv[k - j].is_zero():
                    s = s + den[j] * inv[k - j]
            inv[k] = -s
        c = Fraction(count)
        acc = [a + v * c for a, v in zip(acc, inv)]

    scale = Fraction(1, g.order)
    out: dict[int, int] = {}
    for k, v in enumerate(acc):
        value = v * scale
        coeff = value.as_rational()
        if coeff.denominator != 1:
            raise VerificationError(f"Molien coefficient at t^{k} is not integral")
        if coeff.numerator:
            out[k] = coeff.numerator
    return LaurentPoly(out)


def group_ring_table(g: GroupSpec, truncate: int = 30) -> list[list[int]]:
    """|W| times the Molien series to order ``truncate`` in Z[C_m]: row k
    lists the count of t^k at each power of zeta, one signature series
    (``groups._signature_counts``) expanded and added at a time."""
    m, n_terms = g.m, truncate + 1
    table = [[0] * m for _ in range(n_terms)]
    for sig, count in sorted(_signature_counts(g).items()):
        series = [[0] * m for _ in range(n_terms)]
        series[0][0] = 1
        for length, exp in sig:
            # times 1/(1 - zeta^exp t^length): s[k] += zeta^exp * s[k - length],
            # k ascending, so s[k - length] already carries the new factor.
            for k in range(length, n_terms):
                prev = series[k - length]
                rotated = prev[m - exp:] + prev[:m - exp]
                series[k] = [a + b for a, b in zip(series[k], rotated)]
        for k, row in enumerate(series):
            table[k] = [a + count * b for a, b in zip(table[k], row)]
    return table


def molien_series_by_group_ring(g: GroupSpec, truncate: int = 30) -> LaurentPoly:
    """The Molien series from ``group_ring_table``, each row reduced into
    Q(zeta_m) and divided by |W|, checked rational and integral."""
    out: dict[int, int] = {}
    for k, row in enumerate(group_ring_table(g, truncate)):
        total = CycloNumber.from_powers(g.m, row)
        if not total.is_rational():
            raise VerificationError(f"Molien coefficient at t^{k} is not rational")
        coeff, rem = divmod(total.num[0], g.order)
        if rem:
            raise VerificationError(f"Molien coefficient at t^{k} is not integral")
        if coeff:
            out[k] = coeff
    return LaurentPoly(out)
