"""A fixed pure-Python workload that measures how fast the host is now.

The benchmark runs it in its own process between operations and rescales
every end-to-end time by how long it took, so that a host running slower
for a minute does not read as a slower program.  It imports nothing from
refcat; like refcat's hot loops it looks up tuple-keyed dicts and builds
tuples and sets.  Prints a checksum so a partial run is detected.
"""

table = {(f, g): (f * 7 + g) % 251 for f in range(251) for g in range(251)}
rows = tuple(tuple(range(k, k + 8)) for k in range(251))
acc = 0
for r in range(24):
    for f in range(251):
        for g in rows[f]:
            acc ^= table[(f, (g * r) % 251)]
    acc += len({(a, b) for a in range(120) for b in range(0, 120, 3)})
print(acc)
