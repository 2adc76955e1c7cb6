"""Finite test oracles share one shape: a list of safe actions and a list
of references per state, searched by scoring every candidate and taking
the nearest with :func:`nearest_candidate`.  The library's oracles make
their own selections; this exhaustive search is the reference they are
checked against."""

import numpy as np


def nearest_candidate(candidates, distances):
    """Candidate of least distance, or ``None`` when there are none; exact
    ties go to the lexicographically smallest candidate.

    Candidates are the rows of ``candidates`` (scalars become 1-vectors);
    ``distances`` holds one distance per candidate, in the same order.
    """
    cands = np.asarray(candidates, dtype=float)
    if cands.size == 0:
        return None
    cands = cands.reshape(cands.shape[0], -1)
    dvals = np.asarray(distances, dtype=float)
    tied = np.flatnonzero(dvals == dvals.min())
    if tied.size > 1:
        tied = tied[np.lexsort(cands[tied].T[::-1])]
    return cands[tied[0]].copy()


class EnumeratedOracle:
    """Governor oracle over finite candidate sets.

    Subclasses provide ``feasible_actions(x)`` (the safe actions at ``x``),
    ``candidate_refs(x)``, ``member(x, v)``, ``proj_member(x)`` and
    ``pi0(x, v)``.
    """

    def adjust(self, x, u1, dist):
        feas = self.feasible_actions(x)
        return nearest_candidate(feas, [dist(u1, u) for u in feas])

    def backup(self, x, u1, dist):
        refs = [v for v in self.candidate_refs(x) if self.member(x, v)]
        return nearest_candidate(refs, [dist(u1, self.pi0(x, v)) for v in refs])
