"""Names that the benchmark's tracer wraps; IS checking is the index-free
fragment of ID checking in `dependent.py`."""

# bench/tracing.py wraps these three names; they go with ROADMAP item 1.
from .dependent import fs_check_term, is_check_expr  # noqa: F401
from .translate import translate_expr as translate_is_expr  # noqa: F401
