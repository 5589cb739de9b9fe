"""Build a Macdonald table and look around.

The modified Macdonald polynomials are summed over fillings of their
diagrams (the Haglund-Haiman-Loehr formula) and checked against the two
triangularity families and the normalization that pin them down; the
table bundles their power-sum expansions, the Kostka matrix, its
inverse, and the (q,t)-norms.
"""

from qtsym import Partition, build_table, partitions_of, qt_pairing_scalar

n = 3
table = build_table(n)

print("Partitions of %d in table order:" % n)
print("  ", ", ".join(str(p) for p in table.partitions))

print("\nSchur expansions (columns of the Kostka matrix):")
for rho in table.partitions:
    row = ", ".join(
        "%s*s%s" % (table.kostka_entry(lam, rho), lam)
        for lam in table.partitions
        if not table.kostka_entry(lam, rho).is_zero()
    )
    print("  H%s = %s" % (rho, row))

print("\n(q,t)-norms match the arm/leg cell product:")
for lam in table.partitions:
    H = table.htilde_sym(lam)
    pairing = qt_pairing_scalar(H, H)
    print("  (H%s, H%s) = %s" % (lam, lam, pairing))
    assert pairing == table.norm(lam)

print("\nOrthogonality of distinct elements:")
parts = partitions_of(n)
for i, lam in enumerate(parts):
    for mu in parts[i + 1 :]:
        val = qt_pairing_scalar(table.htilde_sym(lam), table.htilde_sym(mu))
        assert val.is_zero()
        print("  (H%s, H%s) = 0" % (lam, mu))
