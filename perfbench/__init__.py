"""Benchmark for the quasiline library: workloads, inputs, checks and spans."""
