"""Prime arithmetic on group orders."""

from __future__ import annotations

from functools import lru_cache


@lru_cache(maxsize=None)
def prime_divisors(n: int) -> tuple[int, ...]:
    """The distinct primes dividing n, in increasing order."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def is_prime(n: int) -> bool:
    return n > 1 and prime_divisors(n) == (n,)


def p_part(n: int, p: int) -> int:
    """The largest power of p dividing n."""
    pp = 1
    while n % p == 0:
        pp *= p
        n //= p
    return pp
