"""A fixed pure-Python job the benchmark times between ops.

Its work never changes, so its wall time tracks only how fast the machine is
running at that moment.  The mix resembles the program's: splitting text,
counting tokens in dicts, building and sorting tuples, JSON in and out.
"""

import json

ROUNDS = 2


def main() -> None:
    checksum = 0
    for round_ in range(ROUNDS):
        text = " ".join(f"w{(i * 7919 + round_) % 4099}" for i in range(30000))
        counts: dict[str, int] = {}
        for token in text.split():
            counts[token] = counts.get(token, 0) + 1
        ranked = sorted(((-n, token) for token, n in counts.items()))
        records = [json.dumps({"token": token, "count": -n, "rank": r}) for r, (n, token) in enumerate(ranked)]
        checksum += sum(json.loads(record)["count"] for record in records)
    if checksum != 30000 * ROUNDS:
        raise SystemExit(f"reference job miscounted: {checksum}")


if __name__ == "__main__":
    main()
