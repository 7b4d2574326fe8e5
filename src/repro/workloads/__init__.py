"""Workload substrate: generators, traces, and task-assignment pipelines."""
