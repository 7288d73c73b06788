"""Weighted OEF: priorities and multiple job types per tenant (§4.2.3–4).

A production tenant pays for 2x priority; another trains two different
model families at once.  Weighted OEF handles both as weighted rows of one
LP (the paper's virtual users, without the copies), preserving every
fairness property.

Run:  python examples/priority_tenants.py
"""

from repro import JobTypeSpec, TenantSpec, WeightedOEF


def main() -> None:
    tenants = [
        # a premium tenant with double weight
        TenantSpec.single("premium", [1.0, 1.6, 2.15], weight=2.0),
        # a tenant training two model families simultaneously; its unit
        # weight is split between them (half each)
        TenantSpec.of(
            "mixed",
            [
                JobTypeSpec.of("vision", [1.0, 1.2, 1.39]),
                JobTypeSpec.of("language", [1.0, 1.5, 1.95]),
            ],
        ),
        TenantSpec.single("basic", [1.0, 1.25, 1.45]),
    ]
    capacities = [8.0, 8.0, 8.0]

    for mode in ("noncooperative", "cooperative"):
        merged = WeightedOEF(mode=mode).allocate(tenants, capacities)
        print(f"=== {mode} weighted OEF ===")
        for tenant in tenants:
            share = merged.tenant_shares[tenant.name].round(2)
            throughput = merged.tenant_throughput[tenant.name]
            print(f"  {tenant.name:<8} share {share}  throughput {throughput:6.3f}")
            for job_type, job_tp in merged.job_type_throughput[tenant.name].items():
                if len(merged.job_type_throughput[tenant.name]) > 1:
                    print(f"{'':>11}- {job_type}: {job_tp:.3f}")
        premium = merged.tenant_throughput["premium"]
        basic = merged.tenant_throughput["basic"]
        if mode == "noncooperative":
            print(
                f"  premium / basic throughput = {premium / basic:.2f} "
                "(the 2x weight is honoured exactly)\n"
            )
        else:
            print()


if __name__ == "__main__":
    main()
