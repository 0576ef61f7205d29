"""Self-test of the benchmark: its checks catch a wrong answer, and its tracer
sees every layer a workload is mapped to load.

    python3 bench/selftest.py

For each workload:
1. with both steppers wrapped to scale the field they return by
   1 + PERTURBATION, a run must count failed checks;
2. a short traced run must pass every check, which includes one span at
   least for each layer listed under the workload's "spans" in
   workloads.json, so a renamed function cannot silently drop a layer.
Exits 0 when both hold on every workload, 1 otherwise.
"""
from __future__ import annotations

import environment

PERTURBATION = 1e-9  # per step; mass drift then far exceeds its 1e-12 bound


def perturbing(step):
    def wrapper(*args, **kwargs):
        out = step(*args, **kwargs)
        field = out[0] if isinstance(out, tuple) else out
        field.values *= 1.0 + PERTURBATION
        return out

    return wrapper


def main() -> int:
    environment.cap_threads()
    environment.import_inls()
    import harness
    import tracer
    from inls import dynamics

    ok = True
    for name in harness.load_spec()["workloads"]:
        with tracer.patched(
            [(dynamics, "radial_cn_step", perturbing), (dynamics, "strang_step", perturbing)]
        ):
            checks = harness.measure(name, seed=0, seconds=0, trace=False).checks
        caught = checks.failed > 0
        print(
            f"{'pass' if caught else 'FAIL'} {name}: perturbed stepper fails "
            f"{checks.failed}/{checks.attempted} checks",
            flush=True,
        )
        checks = harness.measure(name, seed=0, seconds=0, trace=True).checks
        failures = [f"{check}: {detail}" for check, (_, failed, detail) in checks.tally.items() if failed]
        print(
            f"{'pass' if not failures else 'FAIL'} {name}: traced run passes "
            f"{checks.attempted - checks.failed}/{checks.attempted} checks"
            + "".join(f"\n    {line}" for line in failures),
            flush=True,
        )
        ok = ok and caught and not failures
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
