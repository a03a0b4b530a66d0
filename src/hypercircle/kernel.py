"""The name of the term arithmetic backend, for the benchmark's report.

Polynomial term arithmetic is pure Python (mpoly: Packing and addmul;
groebner: the term kernel _add_multiple); there is no other backend.
hcbench/worker.py still reports backend_name() as its `env.backend`, so
this stub stays until the benchmark drops that field.
"""


def backend_name() -> str:
    return "python"
