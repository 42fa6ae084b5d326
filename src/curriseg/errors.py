"""Exception hierarchy. Every error the library raises deliberately derives
from CurrisegError so callers can catch one type at the CLI boundary."""


class CurrisegError(Exception):
    """Base class for all curriseg errors."""


class ShapeMismatch(CurrisegError):
    """Two arrays that must share a shape do not."""


class ValueOutOfRange(CurrisegError):
    """An array element violates its domain; the message names the index."""


class AlignmentError(CurrisegError):
    """Input height/width is not a multiple of the backbone alignment."""


class LayoutMismatch(CurrisegError):
    """Parameter vectors from different backbone layouts were combined."""


class NonFiniteLoss(CurrisegError):
    """A loss component became NaN or infinite during training."""


class EmptyDataset(CurrisegError):
    """A dataset build produced no usable items."""


class AlphaOutOfRange(CurrisegError):
    """Momentum coefficient outside [0, 1]."""


class LengthMismatch(CurrisegError):
    """Two sequences that must have equal length do not."""


class BadMagic(CurrisegError):
    """Checkpoint file does not start with the expected magic bytes."""


class VersionUnsupported(CurrisegError):
    """Checkpoint file version is not readable by this library."""


class CountMismatch(CurrisegError):
    """Checkpoint parameter count disagrees with the file payload."""


class CorruptManifest(CurrisegError):
    """Dataset manifest is missing required structure."""


class MissingFile(CurrisegError):
    """A file referenced by a manifest or run directory does not exist."""


class BadImageDepth(CurrisegError):
    """An image file violates the 8-bit grayscale contract."""
