"""The bench suites behind the checked-in ``BENCH_*.json`` baselines.

One module per suite; :mod:`repro.bench.suites` is the table of them
and ``python -m repro bench SUITE`` the one way to run a row.
"""
