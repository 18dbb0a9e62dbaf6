"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``matrix``      — run the §V device-outcome matrix (intervention on/off)
- ``sweep``       — the §VII Windows-refresh adoption trajectory, within the testbed's DHCP pool
- ``fleet``       — the same trajectory at fleet scale, as IPv4 demand
- ``scores``      — mirror scores per device class, stock vs fixed
- ``demo``        — the quickstart walk-through
- ``experiments`` — a quick PASS/FAIL check of six paper experiments (E4, E5,
  E6, E7, E9, E10); ``PYTHONPATH=src python -m pytest tests/`` asserts them all
- ``lint``        — determinism & wire-contract static analysis (repro.lint)
- ``sanitize``    — runtime determinism sanitizer (hash-salt byte-diff)
"""

from __future__ import annotations

import argparse
import sys

from repro._cli import run_piped
from repro.analysis.adoption import FIXED_DEVICES, sweep_table, windows_refresh_mixes
from repro.analysis.fleet import distinct_profiles, run_fleet_adoption_sweep_stats
from repro.analysis.matrix import matrix_table, run_device_matrix
from repro.core.testbed import build_testbed, PI_POOL_SIZE, TestbedConfig

__all__ = ["main"]


def fleet_size(text: str) -> int:
    """``--fleet``/``--devices``: a refresh-stage size that holds the
    devices every stage keeps (:data:`FIXED_DEVICES`)."""
    size = int(text)
    if size < FIXED_DEVICES:
        raise argparse.ArgumentTypeError(f"must be at least {FIXED_DEVICES}, got {size}")
    return size


def cmd_matrix(args) -> int:
    config = TestbedConfig(poisoned_dns=not args.no_intervention, use_rpz=args.rpz)
    outcomes = run_device_matrix(config)
    print(matrix_table(outcomes))
    return 0


def cmd_sweep(args) -> int:
    """The §VII trajectory on the paper's testbed, in closed form.

    Each distinct profile is calibrated once with a live client and
    each stage folds as ``count × calibrated outcome``, as in
    ``fleet``.  That equals measuring every device live while each
    stage's IPv4 demand fits the Pi DHCP pool; past it the live
    testbed would starve the last devices of a lease and count starved
    Windows 10 machines as IPv6-only.  So a fleet whose demand
    outgrows the pool is a usage error that points at ``fleet``,
    which reports demand without modelling the pool.  ``--jobs`` has
    nothing to fan out.
    """
    mixes = windows_refresh_mixes(fleet_size=args.fleet)
    points, _info = run_fleet_adoption_sweep_stats(mixes)
    peak = max(points, key=lambda point: point.ipv4_leases)
    if peak.ipv4_leases > PI_POOL_SIZE:
        args.usage_error(
            f"argument --fleet: {args.fleet} devices need {peak.ipv4_leases} IPv4 leases "
            f"at {peak.label}, more than the {PI_POOL_SIZE}-address Pi DHCP pool; "
            f"'repro fleet --devices {args.fleet}' reports that demand without the pool"
        )
    print(sweep_table(points))
    return 0


def cmd_fleet(args) -> int:
    """The §VII trajectory at fleet scale, in closed form.

    Each distinct profile is calibrated once with a live client and
    every stage folds as ``count × calibrated outcome`` in this process
    (:func:`repro.analysis.fleet.run_fleet_adoption_sweep_stats`), so
    ``--jobs`` has nothing to fan out.  The table goes to stdout and the
    timed summary to stderr, so stdout can be diffed byte-for-byte
    against a golden table (the CI fleet smoke diffs the 100,000-device
    run against ``tests/golden/fleet_100k.txt``).  The summary times
    the two steps apart: the calibration runs live clients, and the
    fold is arithmetic over the stages.
    """
    import time

    from repro.clients.fleet import calibrate_profiles
    from repro.core.rss import peak_rss_bytes

    mixes = windows_refresh_mixes(fleet_size=args.devices)
    start = time.perf_counter()
    calibration = calibrate_profiles(distinct_profiles(mixes))
    calibrated = time.perf_counter()
    points, info = run_fleet_adoption_sweep_stats(mixes, calibration=calibration)
    folded = time.perf_counter()
    print(sweep_table(points))
    rss = peak_rss_bytes()
    summary = (
        f"fleet: {info.devices} devices / {info.stages} stages / "
        f"{info.distinct_profiles} profiles, "
        f"calibration {(calibrated - start) * 1e3:.1f} ms, "
        f"fold {(folded - calibrated) * 1e3:.2f} ms"
    )
    if rss is not None:
        summary += f", peak RSS {rss / (1024 * 1024):.1f} MiB"
    print(summary, file=sys.stderr)
    return 0


def cmd_scores(args) -> int:
    from repro.clients.profiles import ALL_PROFILES
    from repro.core.scoring import score_rfc8925_aware, score_stock
    from repro.services.testipv6 import run_test_ipv6

    testbed = build_testbed(TestbedConfig(poison_target=args.poison_target))
    context = testbed.scoring_context()
    print(f"{'device':30s} {'stock':>7s} {'fixed':>7s}  classification")
    for index, profile in enumerate(ALL_PROFILES):
        client = testbed.add_client(profile, f"dev-{index}")
        report = run_test_ipv6(client, testbed.mirror)
        stock = score_stock(report)
        fixed = score_rfc8925_aware(report, context)
        print(
            f"{profile.name:30s} {stock.score:>4d}/10 {fixed.score:>4d}/10  "
            f"{fixed.classified_as}"
        )
    return 0


def cmd_demo(args) -> int:
    del args
    from repro.demo import main as demo_main

    demo_main()
    return 0


def cmd_experiments(args) -> int:
    """Check the key assertion of six paper experiments (E4, E5, E6, E7,
    E9, E10); the tier-1 suite asserts every experiment."""
    del args
    from repro.clients.profiles import (
        MACOS,
        NINTENDO_SWITCH,
        WINDOWS_10,
        WINDOWS_10_V6_DISABLED,
        WINDOWS_11,
        WINDOWS_XP,
    )
    from repro.core.scoring import score_stock
    from repro.services.testipv6 import run_test_ipv6

    results = []

    tb = build_testbed(TestbedConfig())
    nsw = tb.add_client(NINTENDO_SWITCH, "nsw")
    results.append(("E6  fig6  switch intervened", nsw.fetch("sc24.supercomputing.org").landed_on == "ip6.me"))
    xp = tb.add_client(WINDOWS_XP, "xp")
    results.append(("E7  fig7  XP via NAT64", xp.fetch("sc24.supercomputing.org").ok))
    w10 = tb.add_client(WINDOWS_10, "w10")
    poison_before = tb.poisoner.poison_answers
    w10.fetch("sc24.supercomputing.org")
    results.append(("E10 fig10 W10 shielded", tb.poisoner.poison_answers == poison_before))
    w11 = tb.add_client(WINDOWS_11, "w11")
    ns = w11.nslookup("vpn.anl.gov")
    results.append(("E9  fig9  suffix poisoning", str(ns.queried_name) == "vpn.anl.gov.rfc8925.com"))
    mac = tb.add_client(MACOS, "mac")
    results.append(("E4  fig4  RFC8925 v6-only", mac.host.v6only_wait is not None))

    tb5 = build_testbed(TestbedConfig(poison_target="test-ipv6.com"))
    nov6 = tb5.add_client(WINDOWS_10_V6_DISABLED, "nov6")
    score = score_stock(run_test_ipv6(nov6, tb5.mirror))
    results.append(("E5  fig5  erroneous 10/10", score.score == 10))

    ok = True
    for label, passed in results:
        print(f"  [{'PASS' if passed else 'FAIL'}] {label}")
        ok = ok and passed
    print("every experiment, asserted: PYTHONPATH=src python -m pytest tests/ (see EXPERIMENTS.md)")
    return 0 if ok else 1


def print_version() -> int:
    from repro import __version__

    print(f"repro {__version__}")
    return 0


def cmd_sanitize(args) -> int:
    from repro.lint.sanitize import main as sanitize_main

    forwarded = ["--quick"] if args.quick else []
    forwarded += ["--timeout", str(args.timeout)]
    return sanitize_main(forwarded)


def main(argv=None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    # ``lint`` forwards everything verbatim to the repro.lint CLI.  Done
    # before argparse: REMAINDER mis-parses a leading option (bpo-17050).
    if arguments and arguments[0] == "lint":
        from repro.lint.cli import main as lint_main

        return run_piped(lint_main, arguments[1:])
    # Same treatment for ``--version``: the subcommand is required, so
    # argparse would reject a bare ``--version`` unless short-circuited.
    if arguments and arguments[0] in ("--version", "-V"):
        return run_piped(print_version)

    parser = argparse.ArgumentParser(
        prog="repro",
        description="v6shift: RFC 8925 + IPv4 DNS interventions, simulated (SC 2024 reproduction)",
    )
    parser.add_argument(
        "--version", "-V", action="store_true",
        help="print the version (e.g. 'repro 1.0.0')",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fleet_size_help = f"devices per refresh stage, at least {FIXED_DEVICES} (2 Macs + 1 IoT box)"
    no_jobs_help = "accepted for compatibility; has no effect (the closed form runs in-process)"

    p_matrix = sub.add_parser("matrix", help="device outcome matrix (§V)")
    p_matrix.add_argument("--no-intervention", action="store_true")
    p_matrix.add_argument("--rpz", action="store_true", help="use the RPZ-style poisoner")
    p_matrix.set_defaults(fn=cmd_matrix)

    sweep_help = (
        f"Windows-refresh adoption sweep (§VII) on the testbed: no stage may need more "
        f"IPv4 leases than its {PI_POOL_SIZE}-address Pi DHCP pool holds (beyond it, use fleet)"
    )
    p_sweep = sub.add_parser("sweep", help=sweep_help, description=sweep_help)
    p_sweep.add_argument("--fleet", type=fleet_size, default=15, help=fleet_size_help)
    p_sweep.add_argument("--jobs", type=int, default=None, help=no_jobs_help)
    p_sweep.set_defaults(fn=cmd_sweep, usage_error=p_sweep.error)

    fleet_help = (
        "adoption sweep at fleet scale, in closed form (count x calibrated outcome): "
        "reports IPv4 demand and does not model the DHCP pool"
    )
    p_fleet = sub.add_parser("fleet", help=fleet_help, description=fleet_help)
    p_fleet.add_argument(
        "--devices", type=fleet_size, default=1_000_000,
        help=f"{fleet_size_help} (default: 1,000,000)",
    )
    p_fleet.add_argument("--jobs", type=int, default=None, help=no_jobs_help)
    p_fleet.set_defaults(fn=cmd_fleet)

    p_scores = sub.add_parser("scores", help="mirror scores, stock vs fixed (§VI)")
    p_scores.add_argument("--poison-target", default="ip6.me",
                          choices=["ip6.me", "test-ipv6.com"])
    p_scores.set_defaults(fn=cmd_scores)

    p_demo = sub.add_parser("demo", help="the quickstart walk-through")
    p_demo.set_defaults(fn=cmd_demo)

    p_exp = sub.add_parser(
        "experiments",
        help="quick check of E4, E5, E6, E7, E9 and E10; "
        "PYTHONPATH=src python -m pytest tests/ asserts every experiment",
    )
    p_exp.set_defaults(fn=cmd_experiments)

    # ``lint`` is handled above (verbatim forwarding); registered here
    # only so it shows in --help.
    sub.add_parser("lint", help="determinism & wire-contract static analysis (repro.lint)")

    p_sanitize = sub.add_parser(
        "sanitize", help="runtime determinism sanitizer (byte-diff across PYTHONHASHSEED)"
    )
    p_sanitize.add_argument("--quick", action="store_true", help="CI smoke variant")
    p_sanitize.add_argument("--timeout", type=float, default=600.0)
    p_sanitize.set_defaults(fn=cmd_sanitize)

    args = parser.parse_args(arguments)
    return run_piped(args.fn, args)


if __name__ == "__main__":
    sys.exit(main())
