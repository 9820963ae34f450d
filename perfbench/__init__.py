"""The repository benchmark: driver, layer tracing and design record."""
