"""Reference implementations kept as test oracles.

Each module here holds a verbatim copy of a production function as it
was before a fast path replaced it.  Equivalence tests patch the oracle
back in and require byte-identical simulator telemetry, so the fast path
can never drift from the behaviour it replaced.

* :mod:`tests.oracles.reference_paths` — the scalar reference of each
  simulator layer (forest, radius query, query windows, migration,
  association);
* :mod:`tests.oracles.overload_paths` — the per-request overload path
  (redirect scan, down-set lookup, one-row forest predict).
"""
