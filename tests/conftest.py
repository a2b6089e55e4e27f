from hypothesis import settings

# Property tests draw the same examples on every run, store none and time none; each sets only max_examples.
settings.register_profile("style_recal", deadline=None, derandomize=True, database=None)
settings.load_profile("style_recal")
