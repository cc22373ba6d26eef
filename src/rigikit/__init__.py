"""rigikit: exact character-theoretic computations on desk-scale finite groups."""

__all__ = [
    "Cyclotomic",
    "Rational",
    "cyc",
    "zeta",
    "parse_value",
    "format_value",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    # the re-exports load rigikit.cyclo on first use (PEP 562), so that
    # `import rigikit.cli` or a verb that never touches a cyclotomic value
    # does not compile it
    if name in __all__:
        from . import cyclo
        return getattr(cyclo, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
