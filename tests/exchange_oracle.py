"""The braid-exchange components and their coproduct certificates, one
component at a time.

``qgroup`` forms R T1 T2 - T2 T1 R and both sides of each certificate as
``QTensor`` sums of products.  The references here write every component
out as its own sum over R's entries and over the products of two matrix
entries, indexed by hand, and keep the zero components.
"""

from ckq.freealg import NCPoly


def braid_index(R) -> tuple:
    """R's nonzero components grouped by output pair and by input pair."""
    rows: dict = {}
    cols: dict = {}
    for (a, b, c, d), val in R.data.items():
        rows.setdefault((a, b), []).append(((c, d), val))
        cols.setdefault((c, d), []).append(((a, b), val))
    return rows, cols


def rtt_components(T, R) -> dict:
    """Component (i,j,k,l) of R T1 T2 - T2 T1 R for every key, zeros
    included: sum_ab R[i,j,a,b] T[a,k] T[b,l] - T[j,b] T[i,a] R[a,b,k,l]."""
    rows, cols = braid_index(R)
    e = T.get
    rng = range(1, T.N + 1)
    out = {}
    for i in rng:
        for jj in rng:
            for k in rng:
                for l in rng:
                    out[(i, jj, k, l)] = NCPoly.dot(
                        T.n,
                        [(e(a, k), e(b, l) * val)
                         for (a, b), val in rows.get((i, jj), ())]
                        + [(e(jj, b), e(i, a) * -val)
                           for (a, b), val in cols.get((k, l), ())])
    return out


def pair_products(M) -> dict:
    """M[x,u] M[y,v] for every two entries, keyed (x,u,y,v)."""
    rng = range(1, M.N + 1)
    slots = [(x, u) for x in rng for u in rng]
    return {s + t: M.get(*s) * M.get(*t) for s in slots for t in slots}


def certificate_sums(A, B, relA: dict, relB: dict, R) -> dict:
    """Key (i,j,k,l) -> (certificate, target), for every key.

    relA and relB map keys to exchange components of A and B (a missing
    key is a zero component).  The certificate is sum_ab relA[i,j,a,b]
    B[a,k] B[b,l] + A[j,b] A[i,a] relB[a,b,k,l]; the target is the
    exchange component of P = A B, sum_ab R[i,j,a,b] P[a,k] P[b,l]
    - P[j,b] P[i,a] R[a,b,k,l].
    """
    n, N = A.n, A.N
    zero = NCPoly.zero(n)
    rows, cols = braid_index(R)
    AA, BB, PP = pair_products(A), pair_products(B), pair_products(A @ B)
    rng = range(1, N + 1)
    out = {}
    for i in rng:
        for jj in rng:
            for k in rng:
                for l in rng:
                    target = NCPoly.dot(
                        n, [(PP[(a, k, b, l)], NCPoly.scalar(n, val))
                            for (a, b), val in rows.get((i, jj), ())]
                        + [(PP[(jj, b, i, a)], NCPoly.scalar(n, -val))
                           for (a, b), val in cols.get((k, l), ())])
                    terms = []
                    for a in rng:
                        for b in rng:
                            terms.append((relA.get((i, jj, a, b), zero),
                                          BB[(a, k, b, l)]))
                            terms.append((AA[(jj, b, i, a)],
                                          relB.get((a, b, k, l), zero)))
                    out[(i, jj, k, l)] = (NCPoly.dot(n, terms), target)
    return out
