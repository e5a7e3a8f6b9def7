"""Rational ranks of mapping spaces, flag propagation, and the loop test.

The rank (gamma) of the degree-n Gottlieb group of map(X, Y; 0) equals
the Betti-weighted sum of the target's ranks:

    gamma_n(map(X, Y; 0)) = sum over i = 0..dim X of b_i(X) * gamma_{n+i}(Y)

valid for finite X and finite simply connected Y.  Those hypotheses are
enforced through profile flags; passing ``unchecked=True`` skips the
check, and callers are expected to mark such output as unverified.

Because the mapping space retracts onto Y (restrict to the constant maps
and evaluate at the basepoint), "is a T-space" transfers both ways, and
"is a G-space" transfers both ways once the source suspension splits into
spheres; without a splitting only the backward direction survives, so a
G-space target gives an unknown rather than a claim.

``free_loop_necessary_condition`` checks the degreewise test that any
candidate free-loop-space model must pass: G_d(candidate) must equal
G_d(Y) + G_{d+1}(Y) on the requested degree window.  It compares ranks
and merged torsion, so a passing degree builds no sum; only a failing one
forms G_d(Y) + G_{d+1}(Y), to print it.  Over two tables that both declare
a bound it stops at the larger one: every degree above reads the trivial
group three times and passes.
"""

from dataclasses import dataclass

from .abelian import AbelianGroup, _merged
from .profiles import GradedGroup, Incomplete, ProfileError, SpaceProfile
from .spaces import SpaceExpr, _nat
from .splitting import NotSplittableError, _degree

__all__ = [
    "HypothesisError",
    "LoopCheckVerdict",
    "PropagatedFlags",
    "TopDegreeReport",
    "free_loop_necessary_condition",
    "gamma_of_map_space",
    "hypotheses_met",
    "propagate_flags",
    "top_degree_report",
]


class HypothesisError(ValueError):
    """A computation was requested whose validity hypotheses are not verified."""


def hypotheses_met(x_profile: SpaceProfile, y_profile: SpaceProfile) -> bool:
    """True when the rank formula's hypotheses are affirmatively declared."""
    return (
        x_profile.flags.finite is True
        and y_profile.flags.finite is True
        and y_profile.flags.simply_connected is True
    )


def _require_hypotheses(x_profile: SpaceProfile, y_profile: SpaceProfile, unchecked: bool) -> None:
    if unchecked or hypotheses_met(x_profile, y_profile):
        return
    problems = []
    if x_profile.flags.finite is not True:
        problems.append(f"{x_profile.name!r} is not declared finite")
    if y_profile.flags.finite is not True:
        problems.append(f"{y_profile.name!r} is not declared finite")
    if y_profile.flags.simply_connected is not True:
        problems.append(f"{y_profile.name!r} is not declared simply connected")
    raise HypothesisError(
        "rank formula hypotheses not verified: " + "; ".join(problems)
    )


def gamma_of_map_space(
    x_profile: SpaceProfile,
    y_profile: SpaceProfile,
    degree: int,
    unchecked: bool = False,
) -> int | Incomplete:
    """Rank of the degree-``degree`` Gottlieb group of map(X, Y; 0).

    Needs the Betti vector of X and the ranks of Y on degrees
    ``degree .. degree + dim X``; unknown ranks anywhere in that window
    produce an Incomplete listing them.
    """
    _nat(degree, "degree")
    _require_hypotheses(x_profile, y_profile, unchecked)
    if x_profile.betti is None:
        raise HypothesisError(
            f"{x_profile.name!r} declares no Betti numbers; the rank formula needs them"
        )
    missing = []
    total = 0
    for i, b in enumerate(x_profile.betti):
        group = y_profile.gottlieb.lookup(degree + i)
        if group is None:
            missing.append(f"gamma[{degree + i}]({y_profile.name})")
        else:
            total += b * group.rank
    if missing:
        return Incomplete(tuple(missing), ())
    return total


@dataclass(frozen=True)
class TopDegreeReport:
    """Top positive-rank degree of the target and the rank there.

    ``degree`` is None when every rank below the bound is zero.  Whenever a
    top degree N exists, the mapping space has the same rank at N as the
    target does, which the computation checks; a mismatch raises ProfileError.
    """

    degree: int | None
    gamma_top: int | None

    @property
    def all_zero(self) -> bool:
        return self.degree is None


def top_degree_report(
    x_profile: SpaceProfile, y_profile: SpaceProfile, unchecked: bool = False
) -> TopDegreeReport | Incomplete:
    """Locate the last positive rank of Y and confirm the mapping space keeps it."""
    _require_hypotheses(x_profile, y_profile, unchecked)
    bound = y_profile.gottlieb.zero_above
    if bound is None:
        raise HypothesisError(
            f"{y_profile.name!r} declares no zero_above bound; the top degree is undefined"
        )
    missing = []
    top = rank = None
    for d in range(1, bound + 1):
        group = y_profile.gottlieb.lookup(d)
        if group is None:
            missing.append(f"gamma[{d}]({y_profile.name})")
        elif group.rank > 0:
            top, rank = d, group.rank
    if missing:
        return Incomplete(tuple(missing), ())
    if top is None:
        return TopDegreeReport(None, None)
    value = gamma_of_map_space(x_profile, y_profile, top, unchecked=unchecked)
    if value != rank:
        raise ProfileError(
            f"rank at the top degree must survive to the mapping space, "
            f"got {value} != {rank}"
        )
    return TopDegreeReport(top, rank)


@dataclass(frozen=True)
class PropagatedFlags:
    """Tri-state G-space / T-space conclusions for a mapping space."""

    g_space: bool | None
    t_space: bool | None


def propagate_flags(
    source: SpaceExpr, y_profile: SpaceProfile, atom_shifts=None
) -> PropagatedFlags:
    """Transfer T-space and G-space flags from the target to map(source, Y; 0).

    T-space transfers in both directions unconditionally.  G-space
    transfers forward only when the source suspension splits; backward it
    always transfers, so a target that is not a G-space rules the mapping
    space out even without a splitting.
    """
    t_space = y_profile.flags.t_space
    g_target = y_profile.flags.g_space
    try:
        _degree(source, atom_shifts or {})  # whether it splits; no polynomial is formed
    except NotSplittableError:
        g_space = False if g_target is False else None
    else:
        g_space = g_target
    return PropagatedFlags(g_space=g_space, t_space=t_space)


@dataclass(frozen=True)
class LoopCheckVerdict:
    """Outcome of the free-loop necessary condition on a degree window."""

    status: str  # "pass", "fail", or "incomplete"
    failing_degree: int | None = None
    detail: str = ""
    missing: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def free_loop_necessary_condition(
    candidate: GradedGroup, base: GradedGroup, degrees
) -> LoopCheckVerdict:
    """Check G_d(candidate) = G_d(base) + G_{d+1}(base) across ``degrees``.

    Failing any degree disqualifies the candidate as a free loop space of
    the base.  The first definite mismatch wins; if no mismatch is found
    but some degrees could not be checked, the verdict is incomplete.  A
    step-1 ``range`` is read in order, never materialized, and cut at the
    larger bound when both tables declare one; any other iterable is
    sorted and deduplicated.
    """
    if isinstance(degrees, range) and degrees.step == 1:
        if degrees:
            _nat(degrees.start, "degree")  # the rest are integers above it
            # Above both bounds every read is the trivial group, so every
            # degree there passes.
            if candidate.zero_above is not None and base.zero_above is not None:
                bound = max(candidate.zero_above, base.zero_above)
                degrees = range(degrees.start, min(degrees.stop, bound + 1))
    else:
        degrees = (_nat(d, "degree") for d in sorted(set(degrees)))
    missing: list[str] = []
    for d in degrees:
        left, lower, upper = candidate.lookup(d), base.lookup(d), base.lookup(d + 1)
        if left is None or lower is None or upper is None:
            if left is None:
                missing.append(f"candidate G[{d}]")
            if lower is None:
                missing.append(f"base G[{d}]")
            if upper is None:
                missing.append(f"base G[{d + 1}]")
            continue
        if left.rank != lower.rank + upper.rank or left.torsion != _merged(
            [*lower.torsion, *upper.torsion]
        ):
            return LoopCheckVerdict(
                "fail",
                failing_degree=d,
                detail=f"degree {d}: candidate has {left}, "
                f"a free loop space needs {lower.direct_sum(upper)}",
            )
    if missing:
        return LoopCheckVerdict("incomplete", missing=tuple(dict.fromkeys(missing)))
    return LoopCheckVerdict("pass")
