"""Exception types shared across the package."""


class LslabError(Exception):
    """Base class for all package-specific failures."""


class ResourceLimitError(LslabError):
    """A configured table or row cap would be exceeded."""


class KernelInvariantError(LslabError):
    """An exact identity the kernel relies on failed (e.g. a sum that must
    be integral came out fractional).  Always indicates a bug."""


class CertificationError(LslabError):
    """A root-certificate clause failed; ``clause`` names the first one."""

    def __init__(self, clause: str, detail: str = ""):
        self.clause = clause
        super().__init__(f"{clause}: {detail}" if detail else clause)


class UnimodalityError(LslabError):
    """The scaled row failed the peak-or-plateau scan."""


class PrecisionError(LslabError):
    """Cancellation exhausted the working precision; retry with more bits."""


class DegenerateVarianceError(LslabError):
    """The row-sum distribution has zero variance."""


class ExpansionConditionError(LslabError):
    """variance/n fell below the configured floor for the expansion."""


class CacheCorruptionError(LslabError):
    """An on-disk cache file failed its content hash, or has an unreadable
    header, a truncated last line or a non-canonical record."""
