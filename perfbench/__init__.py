"""polycat benchmark: workloads, layer tracer and runner (see run.py)."""
