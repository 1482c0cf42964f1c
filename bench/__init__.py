"""The repo's gated benchmark (see ``bench/README.md``); ``benchmarks/`` stays the pytest paper-table suite."""
