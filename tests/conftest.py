"""Hold the examples of the derandomized property tests fixed across source edits.

A derandomized Hypothesis test (`settings(derandomize=True)`) draws from a
seed taken from its own source, but Hypothesis also mixes literals collected
from the project's non-test modules into its draws, so an edit to any module
under `src/` could hand an unchanged test a different set of examples.  An
empty pool of such literals makes each test's examples depend on the test
alone: a test then draws the same examples before and after a change to the
code it checks.  Hypothesis' global pool of edge-case constants is kept.  The
hook is private; if a Hypothesis release drops it, nothing is patched.
"""

try:
    from hypothesis.internal.conjecture import providers as _providers
except ImportError:
    _providers = None

if hasattr(_providers, "_get_local_constants") and hasattr(_providers, "Constants"):
    _providers._get_local_constants = _providers.Constants
