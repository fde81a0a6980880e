"""The onsaw layers the traced run wraps, their work counters, and the
per-layer metrics computed from one traced pass.

Each layer is a module under ``src/onsaw/``; the span names below are the
prefixes of the metric names in ``BENCHMARK.json``.  Only ``targets`` imports
onsaw, so the runner can use the metric table without it.
"""

import statistics

# The suites of ``onsaw verify all``, one cli.suite_s metric each.
SUITES = (
    "cybe",
    "dg",
    "frt-onsager",
    "frt-alt",
    "frt-series",
    "sn",
    "charges",
    "reD",
    "iso",
    "beta-alpha",
    "quartic",
    "aw3-fit",
    "rep",
    "upoly",
    "fixtures-appendix-a",
)


def _poly_mul(tracer, args, result):
    a, b = args
    # b is a LaurentPoly or a rational the method promoted to a constant.
    nb = len(b.terms) if hasattr(b, "terms") else int(bool(b))
    tracer.counts["poly_mul.term_products"] += len(a.terms) * nb
    out = result.terms
    tracer.counts["poly_mul.out_terms"] += len(out)
    if len(out) > tracer.maxima["scalars.terms"]:
        tracer.maxima["scalars.terms"] = len(out)
    bits = tracer.maxima["scalars.coeff_bits"]
    for c in out.values():
        if c.numerator.bit_length() > bits or c.denominator.bit_length() > bits:
            bits = max(c.numerator.bit_length(), c.denominator.bit_length())
    tracer.maxima["scalars.coeff_bits"] = bits


def _poly_add(tracer, args, result):
    if len(result.terms) > tracer.maxima["scalars.terms"]:
        tracer.maxima["scalars.terms"] = len(result.terms)


def _ratfunc_new(tracer, args, result):
    den = args[0].den.terms
    tracer.counts["ratfunc.new"] += 1
    if len(den) == 1 and den.get(()) == 1:
        tracer.counts["ratfunc.poly"] += 1


def _elem_add(tracer, args, result):
    if len(result.terms) > tracer.maxima["elements.terms"]:
        tracer.maxima["elements.terms"] = len(result.terms)


def _bracket(tracer, args, result):
    tracer.counts["bracket.pairs"] += len(args[0].terms) * len(args[1].terms)


def _suite_span(args):
    return f"cli.suite_s.{args[0]}"


def targets():
    """(owner, attribute, span name, hook) for every wrapped entry point."""
    import onsaw.altpres as altpres
    import onsaw.cli as cli
    import onsaw.elements as elements
    import onsaw.envelope as envelope
    import onsaw.matrices as matrices
    import onsaw.onsager as onsager
    import onsaw.quotient as quotient
    import onsaw.reports as reports
    import onsaw.scalars as scalars
    import onsaw.yangbaxter as yangbaxter

    LP, RF = scalars.LaurentPoly, scalars.RatFunc
    out = [
        (LP, "__mul__", "scalars.poly_mul", _poly_mul),
        (LP, "__add__", "scalars.poly_add", _poly_add),
        (RF, "__init__", "scalars.ratfunc", _ratfunc_new),
        (matrices.Matrix, "__mul__", "matrices.mul", None),
        (elements.AlgElem, "__add__", "elements.add", _elem_add),
        (elements.AlgElem, "__mul__", "elements.scale", None),
        (onsager, "bracket", "onsager.bracket", _bracket),
        (quotient.QuotientO, "reduce", "quotient.reduce", None),
        (quotient, "u_poly", "quotient.upoly", None),
        (altpres.QuotientA, "reduce", "altpres.reduce", None),
        (yangbaxter, "verify_cybe", "yangbaxter.cybe", None),
        (cli, "run_suite", _suite_span, None),
    ]
    for name in ("__add__", "__mul__", "__truediv__", "__eq__"):
        out.append((RF, name, "scalars.ratfunc", None))
    for name in ("ratfunc_equal", "coeff_div"):
        out.append((scalars, name, "scalars.ratfunc", None))
    for name in ("embed_leg", "kron", "partial_trace"):
        out.append((matrices, name, "matrices.embed", None))
    for name in ("convert_to_alt", "convert_to_ons"):
        out.append((altpres, name, "altpres.convert", None))
    for name in ("verify_frt", "verify_frt_series_onsager", "verify_frt_series_alt"):
        out.append((yangbaxter, name, "yangbaxter.frt", None))
    for name in ("build_B_onsager", "build_B_alt"):
        out.append((yangbaxter, name, "yangbaxter.build", None))
    for name in ("normalize_word", "normalize", "multiply"):
        out.append((envelope.PBW, name, "envelope.pbw", None))
    for name in ("to_json", "to_text"):
        out.append((reports.Report, name, "reports.render", None))
    return out


# (metric name, unit, better); order is the order of BENCHMARK.json.
METRICS = [
    ("scalars.poly_mul.calls", "count", "lower"),
    ("scalars.poly_mul.term_products", "count", "lower"),
    ("scalars.poly_mul.yield", "ratio", "higher"),
    ("scalars.poly_mul.self_s", "s", "lower"),
    ("scalars.poly_add.calls", "count", "lower"),
    ("scalars.poly_add.self_s", "s", "lower"),
    ("scalars.terms.max", "terms", "lower"),
    ("scalars.coeff_bits.max", "bits", "lower"),
    ("scalars.ratfunc.new", "count", "lower"),
    ("scalars.ratfunc.poly_share", "ratio", "lower"),
    ("scalars.ratfunc.self_s", "s", "lower"),
    ("matrices.mul.calls", "count", "lower"),
    ("matrices.mul.self_s", "s", "lower"),
    ("matrices.embed.self_s", "s", "lower"),
    ("elements.add.calls", "count", "lower"),
    ("elements.add.self_s", "s", "lower"),
    ("elements.scale.calls", "count", "lower"),
    ("elements.scale.self_s", "s", "lower"),
    ("elements.terms.max", "terms", "lower"),
    ("onsager.bracket.calls", "count", "lower"),
    ("onsager.bracket.pairs", "count", "lower"),
    ("onsager.bracket.self_s", "s", "lower"),
    ("quotient.reduce.calls", "count", "lower"),
    ("quotient.reduce.self_s", "s", "lower"),
    ("quotient.upoly.self_s", "s", "lower"),
    ("altpres.reduce.calls", "count", "lower"),
    ("altpres.reduce.self_s", "s", "lower"),
    ("altpres.convert.calls", "count", "lower"),
    ("altpres.convert.self_s", "s", "lower"),
    ("yangbaxter.frt.self_s", "s", "lower"),
    ("yangbaxter.cybe.self_s", "s", "lower"),
    ("yangbaxter.build.self_s", "s", "lower"),
    ("envelope.pbw.self_s", "s", "lower"),
    ("reports.render_s", "s", "lower"),
] + [(f"cli.suite_s.{s}", "s", "lower") for s in SUITES] + [
    ("trace.overhead_ratio", "ratio", "lower"),
]

# Metrics that must repeat exactly between traced passes of one seed.
EXACT = [m for m, unit, _ in METRICS if unit in ("count", "terms", "bits")]


def pass_metrics(tracer):
    """Per-layer values of one traced pass (all but trace.overhead_ratio)."""
    calls, self_s, counts, maxima = (
        tracer.calls,
        tracer.self_s,
        tracer.counts,
        tracer.maxima,
    )
    products = counts["poly_mul.term_products"]
    new = counts["ratfunc.new"]
    out = {
        "scalars.poly_mul.calls": calls["scalars.poly_mul"],
        "scalars.poly_mul.term_products": products,
        "scalars.poly_mul.yield": counts["poly_mul.out_terms"] / products
        if products
        else 0.0,
        "scalars.poly_mul.self_s": self_s["scalars.poly_mul"],
        "scalars.poly_add.calls": calls["scalars.poly_add"],
        "scalars.poly_add.self_s": self_s["scalars.poly_add"],
        "scalars.terms.max": maxima["scalars.terms"],
        "scalars.coeff_bits.max": maxima["scalars.coeff_bits"],
        "scalars.ratfunc.new": new,
        "scalars.ratfunc.poly_share": counts["ratfunc.poly"] / new if new else 0.0,
        "scalars.ratfunc.self_s": self_s["scalars.ratfunc"],
        "matrices.mul.calls": calls["matrices.mul"],
        "matrices.mul.self_s": self_s["matrices.mul"],
        "matrices.embed.self_s": self_s["matrices.embed"],
        "elements.add.calls": calls["elements.add"],
        "elements.add.self_s": self_s["elements.add"],
        "elements.scale.calls": calls["elements.scale"],
        "elements.scale.self_s": self_s["elements.scale"],
        "elements.terms.max": maxima["elements.terms"],
        "onsager.bracket.calls": calls["onsager.bracket"],
        "onsager.bracket.pairs": counts["bracket.pairs"],
        "onsager.bracket.self_s": self_s["onsager.bracket"],
        "quotient.reduce.calls": calls["quotient.reduce"],
        "quotient.reduce.self_s": self_s["quotient.reduce"],
        "quotient.upoly.self_s": self_s["quotient.upoly"],
        "altpres.reduce.calls": calls["altpres.reduce"],
        "altpres.reduce.self_s": self_s["altpres.reduce"],
        "altpres.convert.calls": calls["altpres.convert"],
        "altpres.convert.self_s": self_s["altpres.convert"],
        "yangbaxter.frt.self_s": self_s["yangbaxter.frt"],
        "yangbaxter.cybe.self_s": self_s["yangbaxter.cybe"],
        "yangbaxter.build.self_s": self_s["yangbaxter.build"],
        "envelope.pbw.self_s": self_s["envelope.pbw"],
        "reports.render_s": self_s["reports.render"],
    }
    for suite in SUITES:
        out[f"cli.suite_s.{suite}"] = tracer.total_s[f"cli.suite_s.{suite}"]
    return out


def combine(per_pass, overhead_ratio):
    """Per-layer metrics of a traced run from its traced passes.

    Counts come from the first pass and must repeat exactly in the others;
    times are medians.  Returns (metrics, notes on counts that differed).
    """
    first = per_pass[0]
    notes = [
        f"{name} differs between traced passes: {[p[name] for p in per_pass]}"
        for name in EXACT
        if any(p[name] != first[name] for p in per_pass)
    ]
    metrics = {}
    for name, unit, _ in METRICS:
        if name == "trace.overhead_ratio":
            value = overhead_ratio
        elif name in EXACT:
            value = first[name]
        else:
            value = statistics.median(p[name] for p in per_pass)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, notes
