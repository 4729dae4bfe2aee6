"""Self-adaptive model switching over a simulated inference workload."""

__version__ = "0.1.0"
