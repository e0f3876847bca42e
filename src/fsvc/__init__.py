"""Few-shot video classification over frame-level feature sequences."""
