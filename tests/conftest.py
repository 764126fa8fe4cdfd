from hypothesis import settings

# fixed example sequence and no per-example deadline keep the suite reproducible
settings.register_profile("pstransport", derandomize=True, deadline=None)
settings.load_profile("pstransport")
