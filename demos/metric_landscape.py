"""How the standard metrics carve up the non-separable pairs.

Where two SERPs are innately ordered, every compliant metric must agree.
Where they are non-separable, metrics are free to differ — and they do.
This script scores the canonical depth-3 split under seven metrics,
certifies the bundled suite against the ordering contract, shows a
score-ordered relationship grid, and closes with rank correlations
between metric-induced orderings at k=6.
"""

import io

from ipso.enumeration import build_grid, kendall_tau
from ipso.metrics import (
    PHI,
    MetricSpec,
    TopicContext,
    certify_compliance,
    evaluate,
    metric_suite,
    ordering_check,
)
from ipso.serp import Serp

A = [1, 0, 0]  # one early relevant document
B = [0, 1, 1]  # two later ones
ctx = TopicContext(total_relevant=2)

print(f"A = {Serp(A).bitstring}, B = {Serp(B).bitstring}, R = 2")
print(f"{'metric':<10} {'score(A)':>10} {'score(B)':>10}  verdict")
suite3 = metric_suite(3) + [MetricSpec("RBP", 3, PHI)]
for metric in suite3:
    sa = evaluate(metric, A, ctx)
    sb = evaluate(metric, B, ctx)
    verdict = ordering_check(metric, A, B, ctx)
    print(f"{metric.label:<10} {sa:>10.6f} {sb:>10.6f}  A {verdict} B")
# Top-weighted metrics (RR, RBP with low persistence) prefer the early
# hit; volume-weighted ones (P, AP, NDCG, RBP 0.8) prefer two hits; S
# ties, and RBP at the golden-ratio persistence ties exactly because
# phi + phi^2 = 1.

# Every bundled metric obeys the ordering contract: on an innately
# ordered pair its scores never point the other way.
print()
for metric in metric_suite(4):
    bad = certify_compliance(metric, 4, TopicContext(total_relevant=4))
    print(f"certify {metric.label:<9}: {len(bad)} violations")


# A scorer that breaks the contract is caught and the offending pairs
# are returned, smallest encodings first.
def late_bonus(serp):
    return evaluate(MetricSpec("P", 3), serp) + 1e-6 * ((1 << 3) - 1 - serp.to_int())

bad = certify_compliance(late_bonus, 3)
print(f"certify late_bonus: {len(bad)} violations, e.g. "
      + ", ".join(f"({a.bitstring},{b.bitstring})" for a, b in bad[:3]))

# The grid arranges all 2^k SERPs by two metrics' score orders and
# classifies every cell.  With RBP(0.5) on both axes the rows climb in
# plain integer order — its scores are exactly the binary fractions.
print()
grid = build_grid(3, MetricSpec("RBP", 3, 0.5), MetricSpec("RBP", 3, 0.5))
out = io.StringIO()
grid.write_csv(out)
print(out.getvalue().rstrip())

print()
print("kendall tau-b between metric orderings at k=6:")
pairs = [("AP@6", "NDCG@6"), ("RBP0.5@6", "NDCG@6"), ("AP@6", "RBP0.5@6"),
         ("P@6", "S@6")]
ctx6 = TopicContext(total_relevant=6)
from ipso.metrics import parse_metric
for left, right in pairs:
    tau = kendall_tau(parse_metric(left), parse_metric(right), 6, ctx6)
    print(f"  tau({left}, {right}) = {tau:.4f}")
