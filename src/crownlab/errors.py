"""Exception types shared across the library."""

from __future__ import annotations


class CrownLabError(Exception):
    """Base class for all library-specific failures."""


class SymmetryError(CrownLabError, ValueError):
    """A structural check (symmetric / hermitian / real) failed.

    Carries the offending maximum entrywise asymmetry.
    """

    def __init__(self, kind: str, max_asymmetry: float):
        self.kind = kind
        self.max_asymmetry = max_asymmetry
        super().__init__(f"input is not {kind}: max asymmetry {max_asymmetry:.3e}")


class NearSingularMinorError(CrownLabError, ValueError):
    """A leading principal minor fell below the magnitude floor.

    Signals departure from the complexified Iwasawa domain, not roundoff.
    ``index`` is 1-based (the order of the offending minor).
    """

    def __init__(self, index: int, magnitude: float, floor: float):
        self.index = index
        self.magnitude = magnitude
        self.floor = floor
        super().__init__(
            f"near-singular leading minor Delta_{index}: "
            f"|Delta| = {magnitude:.3e} below floor {floor:.3e}"
        )


class SingularInputError(CrownLabError, ValueError):
    """A matrix required to be invertible is numerically singular."""


class DomainExitError(CrownLabError, RuntimeError):
    """A continuation path left the complexified Iwasawa domain.

    ``last_good_t`` is the largest path parameter at which all leading
    minors were still above the floor; ``t_fail`` is where the violation
    was detected.  The message prints both times in full (repr), since in
    the boundary layer they differ from 1 only past the sixth digit.
    """

    def __init__(self, last_good_t: float, t_fail: float, minor_index: int, magnitude: float):
        self.last_good_t = last_good_t
        self.t_fail = t_fail
        self.minor_index = minor_index
        self.magnitude = magnitude
        super().__init__(
            f"domain exit near t={float(t_fail)!r} (last good t={float(last_good_t)!r}, "
            f"minor {minor_index} at magnitude {magnitude:.3e})"
        )


class BranchAmbiguityError(CrownLabError, RuntimeError):
    """Path refinement hit maximum depth with an argument jump still too large.

    The message prints the interval's ends in full (repr), as DomainExitError does.
    """

    def __init__(self, t_lo: float, t_hi: float, minor_index: int, arg_jump: float):
        self.t_lo = t_lo
        self.t_hi = t_hi
        self.minor_index = minor_index
        self.arg_jump = arg_jump
        super().__init__(
            f"branch ambiguity on [{float(t_lo)!r}, {float(t_hi)!r}]: minor {minor_index} "
            f"argument jump {arg_jump:.3f} rad exceeds the guard at max refinement depth"
        )

