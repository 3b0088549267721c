"""Referees shared by several test modules.

These are direct definitions that no production code calls. They import
nothing from seqlab, so they check it from outside.
"""

import csv
import io
import itertools
import math
import operator


def _euler_criterion(a: int, p: int) -> int:
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def legendre_symbol(a: int, p: int) -> int:
    """Quadratic residue symbol (a/p) in {-1, 0, +1} by Euler's criterion."""
    if p < 3 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"{p} is not an odd prime")
    return _euler_criterion(a, p)


def legendre_euler_word(p: int, f, n: int) -> list[int]:
    """Bit i is 1 when f(i) is a nonzero square mod p, by Euler's criterion
    on every bit; f is any callable on ints. p is checked by trial division
    when below 2^32, and taken as an odd prime above, where trial division
    would not finish."""
    if p < 1 << 32:
        legendre_symbol(0, p)  # raises unless p is an odd prime
    return [1 if _euler_criterion(f(i), p) == 1 else 0 for i in range(n)]


def linear_complexity_bm(period) -> int:
    """Linear complexity of the periodic sequence with this period (a
    sequence of bits): Berlekamp-Massey over two periods, where the
    complexity has saturated. Polynomials are int-packed, bit i the
    coefficient of x^i."""
    c, b, ell, m, srev = 1, 1, 0, -1, 0
    for n, bit in enumerate(list(period) * 2):
        srev = (srev << 1) | bit  # bit k = s_{n-k}
        if (c & srev).bit_count() & 1:
            t = c
            c ^= b << (n - m)
            if 2 * ell <= n:
                ell, b, m = n + 1 - ell, t, n
    return ell


def expansion_elimination(bits, n: int, d_max: int = 16) -> int | None:
    """Expansion complexity of the first n of bits (a sequence of bits) by
    one F2 elimination at that length: the least total degree d of a
    nonzero h(x, y) with h(x, G(x)) = 0 mod x^n, None above d_max, 0 for an
    all-zero prefix. Columns x^i * G^j mod x^n are packed into ints and
    reduced by total degree; the first column that reduces to zero is a
    dependence of degree d."""
    mask = (1 << n) - 1
    g = sum(b << i for i, b in enumerate(bits[:n]))
    if g == 0:
        return 0
    powers = [1]
    # Seed the constant monomial x^0 y^0; alone it annihilates nothing, but
    # dependences found later may use it.
    basis = {0: 1}
    for d in range(1, d_max + 1):
        powers.append(_gf2_mul_trunc(powers[-1], g, n))
        for j in range(d + 1):
            vec = (powers[j] << (d - j)) & mask
            while vec:
                piv = vec.bit_length() - 1
                other = basis.get(piv)
                if other is None:
                    basis[piv] = vec
                    break
                vec ^= other
            if not vec:
                return d
    return None


def _gf2_mul_trunc(a: int, b: int, n: int) -> int:
    """Carry-less product of bit-packed polynomials, truncated mod x^n."""
    mask = (1 << n) - 1
    a &= mask
    b &= mask
    out = 0
    while a:
        low = a & -a
        out ^= b * low  # single-bit multiple: a shift
        a ^= low
    return out & mask


def euclid_rows(s: int, n: int) -> tuple[int, int, int, int]:
    """Schoolbook extended Euclid on (2^n, s), one division per quotient,
    from the rows (2^n, 0), (s, 1) to the first row (r1, t1) with
    r1 <= |t1|; returns that row and the one before it as (r0, t0, r1, t1)."""
    r0, t0, r1, t1 = 1 << n, 0, s, 1
    while r1 > abs(t1):
        k = r0 // r1
        r0, t0, r1, t1 = r1, t1, r0 - k * r1, t0 - k * t1
    return r0, t0, r1, t1


def sup_gauss_once(uf: int, uq: int, vf: int, vq: int) -> tuple[int, int, int, int]:
    """One sup-norm Gauss step on the two Euclid stopping rows of
    euclid_rows: order the rows so |u| <= |v|, then replace v by the best
    v - k*u over floor and floor + 1 of the four kinks vf/uf, vq/uq,
    (vf - vq)/(uf - uq) and (vf + vq)/(uf + uq) of x -> |v - x*u|, ties to
    the least |vq - k*uq|. On these rows one step leaves the basis reduced,
    which is asserted."""
    if sup_norm(uf, uq) > sup_norm(vf, vq):
        uf, uq, vf, vq = vf, vq, uf, uq
    best = None
    for num, den in ((vf, uf), (vq, uq), (vf - vq, uf - uq), (vf + vq, uf + uq)):
        if den:
            t = num // den
            for k in (t, t + 1):
                wf, wq = vf - k * uf, vq - k * uq
                key = (sup_norm(wf, wq), abs(wq))
                if best is None or key < best[0]:
                    best = (key, wf, wq)
    _, vf, vq = best
    nv = sup_norm(vf, vq)
    assert sup_norm(uf, uq) <= nv <= min(sup_norm(vf - uf, vq - uq), sup_norm(vf + uf, vq + uq))
    return uf, uq, vf, vq


def sup_norm(f: int, q: int) -> int:
    return max(abs(f), abs(q))


def per_length_basis(s: int, n: int) -> tuple[int, int, int, int]:
    """The reduced basis at length n of {(f, q): f = q*S (mod 2^n)} by a
    Euclid on (2^n, s) from nothing: the schoolbook rows and one Gauss
    step."""
    return sup_gauss_once(*euclid_rows(s, n))


class Lattice:
    """Basis (u, v) of {(f, q): f = q*S (mod 2^n)}, kept Lagrange-reduced in
    the Euclidean norm, u the shorter vector; built at one length by
    euclid(), or bit by bit from the empty word (n = 0, S = 0)."""

    def __init__(self):
        self.n = 0
        self.s = 0
        self.uf, self.uq = 1, 0
        self.vf, self.vq = 0, 1

    @classmethod
    def euclid(cls, s: int, n: int) -> "Lattice":
        """The basis at length n from the two stopping rows of the
        schoolbook Euclid on (2^n, s), Lagrange-reduced."""
        lat = cls()
        lat.n = n
        lat.s = s
        lat.reduce(*euclid_rows(s, n))
        return lat

    def reduce(self, uf: int, uq: int, vf: int, vq: int) -> None:
        """Store the Lagrange-reduced form of the basis (u, v)."""
        nu = uf * uf + uq * uq
        nv = vf * vf + vq * vq
        while True:
            if nu > nv:
                uf, uq, vf, vq, nu, nv = vf, vq, uf, uq, nv, nu
            dot = uf * vf + uq * vq
            r = (2 * dot + nu) // (2 * nu)
            if r == 0:
                break
            vf -= r * uf
            vq -= r * uq
            nv = vf * vf + vq * vq
        self.uf, self.uq, self.vf, self.vq = uf, uq, vf, vq

    def minimize(self) -> tuple[int, int, int, int]:
        """The canonical pair (f, q, n, mu) at the current n: the least
        (mu, q, |f|, f < 0) over odd q > 0.

        Seeds an incumbent (the q = 1 pair plus small basis combinations),
        then walks the coefficient y of the longer basis vector outward; the
        Cramer bound |y| <= mu*(|uf| + |uq|)/2^n shrinks as the incumbent
        improves, so the walk terminates. Per y, the sup norm is
        quasi-convex in the other coefficient, so a constant window around
        its kinks and crossings suffices.
        """
        n = self.n
        if n == 0:
            raise ValueError("no bits consumed")
        full = 1 << n
        half = full >> 1
        s = self.s
        uf, uq, vf, vq = self.uf, self.uq, self.vf, self.vq

        f0 = s if s <= half else s - full
        best_key = (max(abs(f0), 1), 1, abs(f0), 0 if f0 >= 0 else 1)
        best = (f0, 1)

        def consider(f: int, q: int) -> None:
            nonlocal best_key, best
            if not q & 1:
                return
            if q < 0:
                f, q = -f, -q
            key = (max(abs(f), q), q, abs(f), 0 if f >= 0 else 1)
            if key < best_key:
                best_key = key
                best = (f, q)

        for x in range(-2, 3):
            for y in range(-2, 3):
                consider(x * uf + y * vf, x * uq + y * vq)

        wsum = abs(uf) + abs(uq)
        ay = 0
        while ay <= best_key[0] * wsum // full:
            for y in (0,) if ay == 0 else (ay, -ay):
                cf = y * vf
                cq = y * vq
                for x in _x_candidates(cf, cq, uf, uq):
                    consider(cf + x * uf, cq + x * uq)
            ay += 1

        f, q = best
        assert q > 0 and q & 1 and (q * s - f) % full == 0, (f, q, n)
        return f, q, n, best_key[0]


def _x_candidates(cf: int, cq: int, uf: int, uq: int) -> set[int]:
    # Integer windows around the kinks and crossings of
    # x -> max(|cf + x*uf|, |cq + x*uq|); width 2 covers both parities.
    cands = {-1, 0, 1}

    def around(num: int, den: int) -> None:
        if den:
            t = num // den
            cands.update((t - 2, t - 1, t, t + 1, t + 2))

    around(-cf, uf)
    around(-cq, uq)
    around(cq - cf, uf - uq)
    around(-(cf + cq), uf + uq)
    return cands


def adic_steps_both_signs(bits, uf: int, uq: int, ru: int, vf: int, vq: int, rv: int, values: list):
    """The loop adic._steps replaced, with its arguments and results: each
    bit takes the shift-and-add index-2 step of a sup-norm reduced basis
    u, v with residues ru, rv, measures both norms afresh with abs and max,
    and reduces by testing v - u, then v + u, until neither is shorter.
    Appends mu at each new length and returns the last basis."""
    for bit in bits:
        if bit:
            ru -= uq
            rv -= vq
        if ru & 1:
            if rv & 1:
                uf, uq, ru, vf, vq = uf - vf, uq - vq, (ru - rv) >> 1, vf << 1, vq << 1
            else:
                uf, uq, ru, vf, vq, rv = vf, vq, rv >> 1, uf << 1, uq << 1, ru
        else:
            if not rv & 1:
                raise AssertionError("index-2 step left both basis vectors inside")
            ru >>= 1
            vf, vq = vf << 1, vq << 1
        nu = max(abs(uf), abs(uq))
        nv = max(abs(vf), abs(vq))
        if nu > nv:
            uf, uq, ru, nu, vf, vq, rv, nv = vf, vq, rv, nv, uf, uq, ru, nu
        while True:
            if max(abs(vf - uf), abs(vq - uq)) < nv:
                sf, sq, sr = uf, uq, ru
            elif max(abs(vf + uf), abs(vq + uq)) < nv:
                sf, sq, sr = -uf, -uq, -ru
            else:
                break
            while True:
                wf, wq = vf - sf, vq - sq
                nw = max(abs(wf), abs(wq))
                if nw >= nv:
                    break
                vf, vq, rv, nv = wf, wq, rv - sr, nw
            if nv >= nu:
                break
            uf, uq, ru, nu, vf, vq, rv, nv = vf, vq, rv, nv, uf, uq, ru, nu
        values.append(nu if uq & 1 else nv)
    return uf, uq, vf, vq


def carry_register_bits(a: int, q: int, n: int) -> list[int]:
    """First n bits of the carry-register sequence s_i = (a * 2^-i mod q)
    mod 2, one register step per bit: halve the state mod q."""
    inv2 = (q + 1) // 2
    bits = []
    cur = a
    for _ in range(n):
        bits.append(cur & 1)
        cur = cur * inv2 % q
    return bits


def coset_orbit(a: int, q: int) -> set[int]:
    """The doubling orbit of a mod q, walked until an element repeats."""
    orbit = set()
    u = a % q
    while u not in orbit:
        orbit.add(u)
        u = u * 2 % q
    return orbit


def coset_width(a: int, q: int) -> int:
    """Least N with the doubling orbit of a mod q distinct mod 2^N, trying
    N = 1, 2, ... in turn; 0 when the orbit has one element."""
    orbit = coset_orbit(a, q)
    if len(orbit) == 1:
        return 0
    for nbits in range(1, q.bit_length() + 1):
        mask = (1 << nbits) - 1
        seen = set()
        for u in sorted(orbit):
            if u & mask in seen:
                break
            seen.add(u & mask)
        else:
            return nbits
    raise AssertionError("unreachable: orbit elements are distinct below q")


def thm4_per_coset(q_max: int, width, moc) -> list[tuple]:
    """The thm4 suite over every coset of every odd q <= q_max, negated
    cosets included: one row (claim_id, instance, status, evidence) per q,
    stopping a q at its first coset, by ascending least member a, whose
    width differs from M. width maps (orbit, q) to the orbit's width and
    moc maps (a, q, T) to M of the carry word of a."""
    rows = []
    for q in range(3, q_max + 1, 2):
        seen = [math.gcd(b, q) != 1 for b in range(q)]
        values = set()
        cosets = units = 0
        failed = None
        for a in range(1, q):
            if seen[a]:
                continue
            orbit = [a]
            b = a * 2 % q
            while b != a:
                orbit.append(b)
                b = b * 2 % q
            for u in orbit:
                seen[u] = True
            cosets += 1
            units += len(orbit)
            from_coset, from_word = width(orbit, q), moc(a, q, len(orbit))
            if from_coset != from_word:
                evidence = {"q": q, "A": a, "from_coset": from_coset, "from_word": from_word}
                failed = ("thm4", f"q={q}", "fail", evidence)
                break
            values.add(from_coset)
        rows.append(
            failed
            or (
                "thm4",
                f"q={q}",
                "pass",
                {"q": q, "T": len(orbit), "units": units, "cosets": cosets, "value_set": sorted(values)},
            )
        )
    return rows


def moc_two_periods(period, word_moc) -> int:
    """M of the periodic sequence with this least period (a sequence of
    bits), read as word_moc, a callable from bytes to M, on the first
    2T - 1 symbols, where M has settled."""
    bits = bytes(period)
    return word_moc((bits * 2)[: 2 * len(bits) - 1])


def least_period_words(T: int):
    """Every word of least period T as a bit tuple (bit i of the phase value
    v is symbol i), by ascending v."""
    for v in range(1 << T):
        bits = tuple((v >> i) & 1 for i in range(T))
        if all(bits != bits[d:] + bits[:d] for d in range(1, T)):
            yield bits


def _ceil_log2(n: int) -> int:
    return (n - 1).bit_length()


def thm2_per_word(t_max: int, moc, conn_q) -> list[tuple]:
    """The thm2 suite over every least-period word: one row
    (claim_id, instance, status, evidence) per T, stopping a T at its first
    word with M > ceil(log2 q). moc and conn_q map a bit tuple to M and q."""
    rows = []
    for T in range(1, t_max + 1):
        words = 0
        tight = None
        failed = None
        for bits in least_period_words(T):
            words += 1
            m, q = moc(bits), conn_q(bits)
            cap = _ceil_log2(q)
            if m > cap:
                word = "".join(map(str, bits))
                evidence = {"word": word, "moc": m, "q": q, "ceil_log2_q": cap}
                failed = ("thm2", f"exhaustive T={T}", "fail", evidence)
                break
            if tight is None or cap - m < tight:
                tight = cap - m
        rows.append(
            failed
            or ("thm2", f"exhaustive T={T}", "pass", {"T": T, "words": words, "min_slack": tight})
        )
    return rows


def thm6_per_word(t_max: int, moc, conn_q) -> list[tuple]:
    """The thm6 suite over every least-period word, rows as in thm2_per_word:
    each word with M = T - 1 must have q = 2^T - 1, and T = 8 rechecks the
    example 00100100 with M = 6 and q = 85."""
    rows = []
    for T in range(2, t_max + 1):
        full = (1 << T) - 1
        extremal = 0
        failed = None
        for bits in least_period_words(T):
            if moc(bits) != T - 1:
                continue
            extremal += 1
            q = conn_q(bits)
            if q != full:
                word = "".join(map(str, bits))
                evidence = {"T": T, "word": word, "q": q, "expected_q": full}
                failed = ("thm6", f"T={T}", "fail", evidence)
                break
        if failed:
            rows.append(failed)
            continue
        evidence = {"T": T, "extremal_words": extremal, "q": full}
        status = "pass"
        if T == 8:
            bits = (0, 0, 1, 0, 0, 1, 0, 0)
            m, q = moc(bits), conn_q(bits)
            evidence["example"] = {"word": "00100100", "moc": m, "q": q}
            if (m, q) != (6, 85):
                status = "fail"
        rows.append(("thm6", f"T={T}", status, evidence))
    return rows


def lemma1_per_length(t_max: int, conn_q, mu) -> list[tuple]:
    """The lemma1 suite with mu read at each of 2T, ..., 2T + 3 on its own:
    the recorded gap period 01001 first, then one row
    (claim_id, instance, status, evidence) per T over every least-period
    word, stopping a T at its first word with mu(N) != q for some N in
    2T + 1..2T + 3. conn_q maps a period (a bit tuple) to q, and mu(bits, n)
    gives mu of the first n of bits."""

    def check(bits):
        T = len(bits)
        q = conn_q(bits)
        prefix = (bits * 5)[: 2 * T + 3]
        mus = [mu(prefix, n) for n in range(2 * T, 2 * T + 4)]
        evidence = {"T": T, "q": q, "mu_2T": mus[0], "mu_after": mus[1:], "gap_at_2T": mus[0] < q}
        return all(m == q for m in mus[1:]), evidence

    ok, evidence = check((0, 1, 0, 0, 1))
    rows = [("lemma1", "period 01001", "pass" if ok else "fail", evidence)]
    for T in range(1, t_max + 1):
        words = 0
        gaps = 0
        failed = None
        for bits in least_period_words(T):
            words += 1
            ok, evidence = check(bits)
            if not ok:
                failed = ("lemma1", f"exhaustive T={T}", "fail", evidence)
                break
            gaps += evidence["gap_at_2T"]
        rows.append(
            failed
            or ("lemma1", f"exhaustive T={T}", "pass", {"T": T, "words": words, "gaps_at_2T": gaps})
        )
    return rows


def thm1_per_prefix(bits, moc, mu, instance: str | None = None) -> tuple:
    """The thm1 report on bits (a sequence of bits) with M and mu read at
    every prefix length, as (claim_id, instance, status, evidence): the
    first N with M > ceil(log2 mu) + 1, or else the first N of least slack.
    moc(n) and mu(n) give M and mu of the first n of bits."""
    instance = instance or f"word len={len(bits)}"
    tight = None
    for n in range(1, len(bits) + 1):
        m, u = moc(n), mu(n)
        cap = _ceil_log2(u) + 1
        if m > cap:
            word = "".join(map(str, bits[:n]))
            evidence = {"N": n, "moc": m, "mu": u, "bound": cap, "word": word}
            return ("thm1", instance, "fail", evidence)
        if tight is None or cap - m < tight[0]:
            tight = (cap - m, n, m, u)
    if tight is None:
        return ("thm1", instance, "pass", {"lengths": 0})
    slack, n, m, u = tight
    evidence = {
        "lengths": len(bits),
        "tight_N": n,
        "tight_moc": m,
        "tight_mu": u,
        "tight_slack": slack,
    }
    return ("thm1", instance, "pass", evidence)


def lowerbound_per_prefix(family: str, start: int, d: int, n_max: int, moc, mu) -> tuple:
    """The lowerbound report with M and mu read at every N from start to
    n_max, as (claim_id, instance, status, evidence): the first N with
    ceil(log2 mu) < M - 1 or d*M <= N, or else the first N of least margin
    d*M - N. moc(n) and mu(n) give M and mu at length n."""
    instance = f"{family} {start}<=N<={n_max}"
    tight = None
    for n in range(start, n_max + 1):
        m, u = moc(n), mu(n)
        if _ceil_log2(u) < m - 1 or d * m <= n:
            return ("lowerbound", instance, "fail", {"N": n, "moc": m, "mu": u, "denominator": d})
        if tight is None or d * m - n < tight[0]:
            tight = (d * m - n, n, m)
    evidence = {
        "denominator": d,
        "n_max": n_max,
        "tight_N": tight[1],
        "tight_moc": tight[2],
        "tight_margin": tight[0],
    }
    return ("lowerbound", instance, "pass", evidence)


def analyze_csv(seq: str, columns, rows) -> str:
    """analyze's CSV written with csv.writer: the header naming the columns,
    the "# seq=" line, then one row per prefix with None written as an
    empty field."""
    buf = io.StringIO()
    buf.write(f"# seqlab-analyze-v1: {','.join(columns)}\n")
    buf.write(f"# seq={seq}\n")
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(["" if v is None else v for v in row])
    return buf.getvalue()


def correlation_single_pass(bits, k: int) -> tuple[int, int, tuple[int, ...], int]:
    """Order-k correlation of bits (a sequence of bits) as
    (value, window U, offsets, signed sum): every lag tuple in one pass,
    each new best or tied tuple searched at once for its least window, so
    the witness has the lexicographically least (U, d1, lag tuple)."""
    n = len(bits)
    best_val = -1
    best_key = None  # (U, d1, lag tuple)
    best_sign = 1
    for lags in itertools.combinations(range(1, n), k - 1):
        top = lags[-1]
        xs = [bits[j] for j in range(n - top)]
        for lag in lags:
            for j in range(n - top):
                xs[j] ^= bits[j + lag]
        prefix = [0]
        for bit in xs:
            prefix.append(prefix[-1] + 1 - 2 * bit)
        val = max(prefix) - min(prefix)
        if val < best_val:
            continue
        if val > best_val:
            best_val = val
            best_key = None
        # The latest earlier occurrence of pb -+ val gives the least U
        # ending at b.
        latest: dict[int, int] = {}
        for b, pb in enumerate(prefix):
            for target, sign in ((pb - val, 1), (pb + val, -1)):
                a = latest.get(target)
                if a is not None:
                    key = (b - a, a, lags)
                    if best_key is None or key < best_key:
                        best_key = key
                        best_sign = sign
            latest[pb] = b
    u, d1, lags = best_key
    offsets = (d1,) + tuple(d1 + lag for lag in lags)
    return best_val, u, offsets, best_sign * best_val


def correlation_by_prefix_sums(bits, k: int) -> tuple[int, int, tuple[int, ...], int]:
    """Order-k correlation of bits (a sequence of bits) as
    (value, window U, offsets, signed sum), one prefix-sum list per lag
    tuple: a tuple's value is the max minus the min of the prefix sums of
    its sign products. The least (U, d1, lag tuple) is searched only in the
    tuples that tie the final value, each prefix position looking up the
    latest earlier position whose sum differs by the value."""
    n = len(bits)
    signs = [1 - 2 * b for b in bits]

    def prefix_sums(lags):
        terms = signs
        for lag in lags:
            terms = map(operator.mul, terms, signs[lag:])
        return list(itertools.accumulate(terms, initial=0))

    best_val = 0
    ties = []
    for lags in itertools.combinations(range(1, n), k - 1):
        prefix = prefix_sums(lags)
        val = max(prefix) - min(prefix)
        if val > best_val:
            best_val, ties = val, [lags]
        elif val == best_val:
            ties.append(lags)
    best_key = None  # (U, d1, lag tuple)
    best_sign = 1
    for lags in ties:
        latest: dict[int, int] = {}
        for b, pb in enumerate(prefix_sums(lags)):
            for target, sign in ((pb - best_val, 1), (pb + best_val, -1)):
                a = latest.get(target)
                if a is not None:
                    key = (b - a, a, lags)
                    if best_key is None or key < best_key:
                        best_key = key
                        best_sign = sign
            latest[pb] = b
    u, d1, lags = best_key
    offsets = (d1,) + tuple(d1 + lag for lag in lags)
    return best_val, u, offsets, best_sign * best_val


def correlation2_profile_nested(bits) -> list[int]:
    """Order-2 correlation of every prefix of bits, 0 at length 1, by a
    loop over (prefix, lag): each new bit s_n adds (-1)^(s_(n-l) + s_n) to
    the running sum of every lag l <= n, each lag keeps the max and min of
    its sums (from 0), and the value is the largest max - min so far."""
    acc = [0]  # per lag l, at index l; index 0 unused
    hi = [0]
    lo = [0]
    best = 0
    values = []
    for n, bit in enumerate(bits):
        for lag in range(1, n + 1):
            a = acc[lag] + (-1 if bits[n - lag] ^ bit else 1)
            acc[lag] = a
            if a > hi[lag]:
                hi[lag] = a
            elif a < lo[lag]:
                lo[lag] = a
            else:
                continue
            if hi[lag] - lo[lag] > best:
                best = hi[lag] - lo[lag]
        values.append(best)
        acc.append(0)
        hi.append(0)
        lo.append(0)
    return values


def least_period_by_divisors(bits) -> int:
    """Least period of a nonempty word (bytes of bits): the least d
    dividing its length whose first d symbols, repeated, give the word."""
    T = len(bits)
    for d in range(1, T + 1):
        if T % d == 0 and bits == bits[:d] * (T // d):
            return d
    raise AssertionError("unreachable: d = T always tiles")


def ell_moduli_by_trial(limit: int) -> list[int]:
    """Odd prime powers q <= limit whose doubling orbit of 1 holds every
    unit, each odd q factored by trial division, ascending."""
    out = []
    for q in range(3, limit + 1, 2):
        p = next((d for d in range(3, math.isqrt(q) + 1, 2) if q % d == 0), q)
        r = q
        while r % p == 0:
            r //= p
        if r == 1 and len(coset_orbit(1, q)) == q - q // p:
            out.append(q)
    return out


def lfsr_walk(taps, seed, n: int) -> bytes:
    """First n bits of the register s_(i+r) = XOR of s_(i+t) over t in taps,
    r = len(seed): one register step per bit on a list state."""
    state = list(seed)
    out = bytearray()
    for _ in range(n):
        out.append(state[0])
        nxt = 0
        for t in taps:
            nxt ^= state[t]
        state = state[1:] + [nxt]
    return bytes(out)


def lfsr_state_cycle(taps, seed) -> bytes:
    """One least period of a register with tap 0: the output of the state
    walk, one step per bit on a tuple state, until the state is the seed
    again."""
    state = tuple(seed)
    out = bytearray()
    steps = 0
    while True:
        out.append(state[0])
        nxt = 0
        for t in taps:
            nxt ^= state[t]
        state = state[1:] + (nxt,)
        steps += 1
        if state == tuple(seed):
            return bytes(out)
        assert steps < 1 << len(seed), "state cycle missed the seed"


def zeckendorf_per_index(n: int) -> bytes:
    """First n bits of the Zeckendorf parity, each index expanded greedily
    on its own: take the largest Fibonacci number (1, 2, 3, 5, ...) that
    fits, then the largest that fits the rest, and count the summands."""
    fibs = [1, 2]
    while fibs[-1] < n:
        fibs.append(fibs[-1] + fibs[-2])
    out = bytearray()
    for i in range(n):
        count, rest = 0, i
        for f in reversed(fibs):
            if f <= rest:
                rest -= f
                count += 1
        out.append(count & 1)
    return bytes(out)
