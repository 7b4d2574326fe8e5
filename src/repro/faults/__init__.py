"""Static bus fault injection, degraded-mode analysis and availability."""
