#!/usr/bin/env python3
# A small benchmark run: seeded instances, each run in a child process that
# times every repetition and keeps the minimum, all under one wall-clock
# timeout per run.
#
# The equivalent CLI invocation:
#   bandrec bench --sizes 10,12 --cases 3 --reps 3 --seed 42 --output /tmp/bench.csv

import io

from bandrec.bench import BenchConfig, run_bench, summarize, write_records_csv

config = BenchConfig(
    sizes=(10, 12),
    affirmative_offsets=(-4, -2),
    negative_offsets=(-4,),
    cases_per_pair=3,
    timeout_s=10.0,
    repetitions=3,
    algorithms=("hall",),
    seed=42,
)
records = run_bench(config, progress=print)

# One CSV row per (instance, algorithm) run; solved rows carry the verdict
# and the minimum runtime over the repetitions, which filters out scheduler
# noise better than an average.
buf = io.StringIO()
write_records_csv(records, buf)
print("\nCSV head:")
print("\n".join(buf.getvalue().splitlines()[:4]))

print("\nsummary (affirmative rows end fast; negative rows pay for the full enumeration):")
print(summarize(records))
