# Imported before any test module: the package sets OPENBLAS_NUM_THREADS
# before numpy loads, so the test process keeps one thread, as the CLI
# does, and the detection reader it forks comes from a single-threaded
# process (Python 3.12 warns on a fork from a multi-threaded one).
import trafficstate  # noqa: F401
