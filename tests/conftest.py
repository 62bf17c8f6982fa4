from hypothesis import settings

# Tier-1 must be deterministic: the same examples on every run, no wall-clock
# deadline on a slow host, and no example database left behind.
settings.register_profile("tier1", deadline=None, derandomize=True, database=None)
settings.load_profile("tier1")
