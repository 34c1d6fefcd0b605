"""The library's one error base class.

Every error the library raises for bad input or an input it cannot
handle (a model file, an expression, a chain, a face measure, an LP, a
simulation) derives from :class:`StokolmoError`.  The command line maps
it, and only it, to exit 2 with a JSON diagnostic naming the subclass;
any other exception is a bug and keeps its traceback.  It is a
``ValueError`` so that callers catching ``ValueError`` keep working.
"""


class StokolmoError(ValueError):
    pass
