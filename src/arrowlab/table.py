"""The CSV artifact format: a header line, then ints and strings as written
and every other value as repr(float), which reads back as the same double."""


def to_csv(header: str, rows) -> str:
    lines = [header] + [",".join(str(v) if isinstance(v, (int, str)) else repr(float(v))
                                 for v in row) for row in rows]
    return "\n".join(lines) + "\n"
