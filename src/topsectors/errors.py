"""The two kinds of error that a caller can act on.  Every error that the
package raises for its input derives from one of them, which fixes the
CLI's exit code; any other exception is a bug in topsectors (exit 4)."""


class InputError(Exception):
    """Bad or malformed input (exit 1)."""


class UnsupportedError(Exception):
    """Well-formed input that no route handles (exit 2)."""
