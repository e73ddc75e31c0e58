"""Benchmark harness for rotor-spectra: workloads, output checks and tracing."""
