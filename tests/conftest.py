"""Shared test helpers: independent oracles, random generators and capped runs.

The helpers here deliberately avoid the code paths they are used to
check: the element-order census recomputes group identity by brute
force, and the random builders construct values from scratch.
"""

import random
import resource
import subprocess
import time
from collections import Counter
from itertools import product
from math import gcd, lcm

from hypothesis import strategies as st

from gottlieb.abelian import AbelianGroup, canonicalize
from gottlieb.profiles import Flags, GradedGroup, ProfileDb, SpaceProfile
from gottlieb.spaces import (
    Atom,
    Bouquet,
    BouquetSpace,
    Loop,
    MapSpace,
    Point,
    Product,
    Sphere,
    Susp,
    Torus,
    Wedge,
)


def census(orders) -> Counter:
    """Element-order census of the direct sum of cyclic groups Z/order.

    The multiset of element orders determines a finite abelian group up
    to isomorphism, so equal censuses mean isomorphic torsion.
    """
    counts: Counter = Counter()
    for element in product(*(range(d) for d in orders)):
        counts[lcm(*(d // gcd(x, d) for x, d in zip(element, orders)), 1)] += 1
    return counts


def torsion_orders(group: AbelianGroup) -> list[int]:
    return [p**k for p, k, count in group.torsion for _ in range(count)]


# --- hypothesis strategies -------------------------------------------------

def groups_strategy():
    # Orders may repeat, so runs of equal summands and invariant factors occur.
    return st.builds(
        canonicalize,
        st.integers(0, 4),
        st.lists(st.integers(2, 120), max_size=4).flatmap(
            lambda orders: st.lists(st.sampled_from(orders), max_size=3).map(
                lambda repeats: orders + repeats
            ) if orders else st.just(orders)
        ),
    )


def splittable_exprs(max_depth: int = 3):
    """Sphere/wedge/product/suspension trees; every one of them splits."""
    leaves = st.integers(1, 5).map(Sphere)

    def extend(children):
        return st.one_of(
            st.lists(children, min_size=1, max_size=3).map(lambda cs: Wedge(tuple(cs))),
            st.lists(children, min_size=1, max_size=3).map(lambda cs: Product(tuple(cs))),
            st.tuples(children, st.integers(1, 2)).map(lambda t: Susp(*t)),
        )

    return st.recursive(leaves, extend, max_leaves=2 * max_depth + 2)


def space_exprs():
    """Arbitrary well-formed expression trees covering every node kind."""
    leaves = st.one_of(
        st.integers(1, 6).map(Sphere),
        st.just(Point()),
        st.sampled_from(["Y", "Target", "B", "aX_1", "s9", "ptx"]).map(Atom),
        st.integers(1, 4).map(Torus),
        st.integers(1, 4).map(Bouquet),
    )

    def extend(children):
        return st.one_of(
            st.lists(children, min_size=1, max_size=3).map(lambda cs: Wedge(tuple(cs))),
            st.lists(children, min_size=1, max_size=3).map(lambda cs: Product(tuple(cs))),
            st.tuples(children, st.integers(1, 3)).map(lambda t: Susp(*t)),
            st.tuples(children, children).map(lambda t: MapSpace(*t)),
            st.tuples(children, st.integers(1, 3)).map(lambda t: Loop(*t)),
            st.tuples(children, st.integers(1, 3), st.integers(1, 2)).map(
                lambda t: BouquetSpace(*t)
            ),
        )

    return st.recursive(leaves, extend, max_leaves=10)


# --- seeded random builders (for exact-count corpora) ----------------------

def random_group(rng: random.Random, max_rank: int = 3, max_orders: int = 3) -> AbelianGroup:
    orders = [rng.choice((2, 3, 4, 5, 7, 8, 9, 12, 16, 25)) for _ in range(rng.randint(0, max_orders))]
    return canonicalize(rng.randint(0, max_rank), orders)


def synthetic_space(
    name: str,
    rng: random.Random,
    degrees,
    zero_above: int | None = None,
    betti: tuple[int, ...] | None = None,
    shifts: tuple[int, ...] | None = None,
    finite: bool | None = True,
    simply_connected: bool | None = True,
) -> SpaceProfile:
    entries = {d: random_group(rng) for d in degrees}
    return SpaceProfile(
        name,
        gottlieb=GradedGroup(entries, zero_above),
        betti=betti,
        suspension_shifts=shifts,
        flags=Flags(finite=finite, simply_connected=simply_connected),
    )


def db_of(*profiles, maps=()) -> ProfileDb:
    return ProfileDb.of(profiles, maps)


# --- capped child processes -----------------------------------------------

CHILD_MEMORY = 2**30  # address space of a capped child, in bytes


def _cap_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY, CHILD_MEMORY))


def run_capped(argv, env, timeout: float = 60):
    """(completed process, seconds) of ``argv`` with its address space capped.

    A child that allocates without bound fails with ``MemoryError`` under
    the cap instead of exhausting the machine's memory.
    """
    start = time.perf_counter()
    result = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=timeout,
                            preexec_fn=_cap_address_space)
    return result, time.perf_counter() - start
