"""Tour of the topology-expression algebra and the shipped tables.

Run as: python3 demos/01_topology_tables.py
"""

from grovekit import (
    CostModel,
    PartitionSpec,
    count_by_rank,
    enumerate_groves,
    enumerate_situations,
    enumerate_topologies,
    factor,
    is_prime,
    multiply,
    parse,
    rank,
    render,
    total_multiplicity,
    verify_against_table,
)

model = CostModel()

print("== prime counts by rank ==")
for r in (1, 2, 3):
    print(f"rank {r}: {count_by_rank(r)} prime forms")

print("\n== the three rank-1 forms ==")
for form in sorted(map(render, enumerate_topologies(0, model))):
    print(" ", form)

print("\n== verification against the shipped tables ==")
for table in (0, 1, 2):
    result = verify_against_table(table, model)
    status = "exact" if result.exact else (
        "entry-27 exception only" if result.entry27_exception_only else "diff!")
    print(f"table {table}: {len(result.produced)} produced, {status}")

print("\n== grove totals ==")
print(f"depth 1 partitions of 2: {total_multiplicity(1)} groves")
print(f"depth 2 partitions of 3: {total_multiplicity(2)} groves")
print("the {1,1} partition prunes to a single undecorated grove:")
for grove in enumerate_groves(PartitionSpec((1, 1))):
    print(" ", grove.render())

print("\n== products and factorization ==")
left = parse("sig^(1)(m1)")
right = parse("sig(m1, m2)")
product = multiply(left, right)
print(f"{render(left)} * {render(right)} = {render(product)}")
print(f"rank {rank(left)} + {rank(right)} = {rank(product)}")
print("factors:", " * ".join(render(p) for p in factor(product)))
print("product prime?", is_prime(product), "| factors prime?",
      all(is_prime(p) for p in factor(product)))

print("\n== situation expressions ==")
for order in (1, 2, 3):
    forms = sorted(s.render() for s in enumerate_situations(order))
    print(f"order {order}: {len(forms)} forms")
    if order <= 2:
        for f in forms:
            print("   ", f)
