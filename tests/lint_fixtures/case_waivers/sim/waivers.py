"""Fixture: waiver syntax handling (justified, bare, retired rule id)."""


def spin():
    out = []
    for item in {1, 2}:  # lint: ok(R2): two-element demo set, order immaterial
        out.append(item)
    for item in {3, 4}:  # lint: ok(R2)
        out.append(item)
    for item in {5, 6}:  # lint: ok(R7): retired id, never reused
        out.append(item)
    return out
