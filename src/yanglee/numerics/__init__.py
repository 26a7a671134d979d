"""Self-contained numerical kernels used throughout the package."""
