"""Output checks for each CLI command, using the package's own tolerances.

Each check reads the files a command wrote and returns a list of problems;
an empty list means the outputs are correct.  Statistical estimates are
never gated: a correct change to the particle layer may change its draws.
"""

import json
from pathlib import Path

# structure.decompose: |residual| <= 1e-7 on every irreducible chain.
DECOMPOSITION_TOL = 1e-7
# cli simulate manifest, tolerances.girsanov_exactness.
GIRSANOV_TOL = 1e-10
# Under detailed balance the ldp gradient flow is the linear flow.
DETAILED_BALANCE_GAP = 1e-8

MANIFEST = "manifest.json"


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _within(problems, label, value, tol):
    # Written as `not value <= tol` so that NaN fails.
    if not value <= tol:
        problems.append("%s = %r exceeds %r" % (label, value, tol))


def analyze(out, reversible):
    r = _load(Path(out) / "diagnostics.json")
    problems = []
    _within(problems, "decomposition_residual_max",
            r["decomposition_residual_max"], DECOMPOSITION_TOL)
    if reversible:
        _within(problems, "psi_star_symmetry_defect",
                r["psi_star_symmetry_defect"], r["tol"])
        _within(problems, "critical_covector_gap_max",
                r["extras"]["critical_covector_gap_max"], r["tol"])
        expected = "gradient system (detailed balance)"
    else:
        expected = "covector system only"
    if r["verdict"] != expected:
        problems.append("verdict %r, expected %r" % (r["verdict"], expected))
    return problems


def simulate(out):
    r = _load(Path(out) / "ldp_report.json")
    problems = []
    _within(problems, "girsanov_consistency_abs_gap",
            r["girsanov_consistency_abs_gap"], GIRSANOV_TOL)
    if r["zero_tilt_girsanov"] != 0:
        problems.append("zero_tilt_girsanov = %r" % r["zero_tilt_girsanov"])
    return problems


def evolve(out, tags, rows):
    out = Path(out)
    problems = []
    for tag in tags:
        with open(out / ("trajectory_%s.csv" % tag)) as fh:
            n = sum(1 for _ in fh) - 1  # header
        if n != rows:
            problems.append("trajectory_%s.csv has %d rows, expected %d"
                            % (tag, n, rows))
    if sorted(tags) == ["ldp", "linear"]:
        gap = _load(out / "evolve_report.json")["gap"]["sup_norm_gap"]
        _within(problems, "linear vs ldp sup_norm_gap", gap,
                DETAILED_BALANCE_GAP)
    return problems


def diffusion(out):
    r = _load(Path(out) / "diffusion_report.json")
    problems = []
    _within(problems, "decomposition_residual_max",
            r["decomposition_residual_max"], r["decomposition_tolerance"])
    if r["entropy_monotone"] is not True:
        problems.append("entropy not monotone")
    return problems


def run_check(check, out):
    """Apply `check`, turning unreadable or malformed outputs into problems."""
    try:
        return check(out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return ["outputs unreadable: %r" % (exc,)]


def _files(root):
    return {p.relative_to(root): p for p in Path(root).rglob("*")
            if p.is_file() and p.name != MANIFEST}


def same_outputs(ref, out):
    """Byte-for-byte comparison of two output directories; the manifest is
    the one file the CLI allows to differ between reruns."""
    a, b = _files(ref), _files(out)
    if a.keys() != b.keys():
        return ["output files differ: %s vs %s"
                % (sorted(map(str, a)), sorted(map(str, b)))]
    return ["%s differs from the first run" % rel for rel in sorted(a)
            if a[rel].read_bytes() != b[rel].read_bytes()]


def output_bytes(root):
    return sum(p.stat().st_size for p in _files(root).values())
