"""Finite test oracles share one shape: a list of safe actions and a list
of references per state, searched with the library's enumeration helper."""

from actiongov.governor import nearest_candidate


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
