"""Network topology descriptions and the Table I cost model."""
