"""Statistics and traffic schedules for the repository benchmark.

Pure functions, no I/O, so test_stats.py can pin their behaviour.
"""
import bisect
import math
import random
import statistics

# The tail is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10


def percentile(values, pct):
    """Linear-interpolated percentile (the 'linear' method of numpy)."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values):
    """(value, percentile, samples beyond): the highest percentile with
    TAIL_BEYOND samples beyond it, so p99 at 1000 samples and p90 at 100.
    With 2 * TAIL_BEYOND samples or fewer that percentile would not lie
    above the median, so the tail is the maximum (percentile 100)."""
    n = len(values)
    if n <= 2 * TAIL_BEYOND:
        return max(values), 100.0, 0
    pct = 100.0 * (n - TAIL_BEYOND) / n
    return percentile(values, pct), pct, TAIL_BEYOND


def iqr_share(values):
    """Distance between the first and third quartile as a share of the
    median, with the quartiles statistics.quantiles(values, n=4) gives."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def poisson_schedule(rate, seconds, seed):
    """Send times (ns from phase start) of a Poisson process at `rate` per
    second over `seconds`."""
    rng = random.Random(seed)
    out = []
    t = rng.expovariate(rate)
    while t < seconds:
        out.append(int(t * 1e9))
        t += rng.expovariate(rate)
    return out


def zipf_picks(items, exponent, count, seed):
    """`count` ranks in [0, items) drawn with P(rank k) proportional to
    1/(k+1)**exponent."""
    rng = random.Random(seed)
    cdf = []
    acc = 0.0
    for k in range(items):
        acc += 1.0 / (k + 1) ** exponent
        cdf.append(acc)
    return [min(bisect.bisect_left(cdf, rng.random() * acc), items - 1)
            for _ in range(count)]


def loglog_slope(xs, ys):
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    den = sum((a - mx) ** 2 for a in lx)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / den if den else 0.0
