"""Layer-ledger benchmark: end-to-end and per-layer timings of the CMP builders,
the one-pass streaming trainer and the serving stack (see README.md)."""
